#include "src/eval/pipeline.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/attack/driver.h"
#include "src/attack/fga.h"

namespace geattack {

std::vector<int64_t> SelectTargetNodes(const GraphData& data,
                                       const Tensor& clean_logits,
                                       const std::vector<int64_t>& test_nodes,
                                       const TargetSelectionConfig& config,
                                       Rng* rng) {
  GEA_CHECK(rng != nullptr);
  // Only correctly classified nodes are meaningful victims.
  std::vector<std::pair<double, int64_t>> by_margin;
  for (int64_t node : test_nodes) {
    if (clean_logits.ArgMaxRow(node) != data.labels[ZU(node)]) continue;
    by_margin.emplace_back(
        ClassificationMargin(clean_logits, node, data.labels[ZU(node)]), node);
  }
  std::sort(by_margin.begin(), by_margin.end());

  std::set<int64_t> chosen;
  const int64_t m = static_cast<int64_t>(by_margin.size());
  for (int64_t i = 0; i < std::min(config.bottom_margin, m); ++i)
    chosen.insert(by_margin[ZU(i)].second);
  for (int64_t i = 0; i < std::min(config.top_margin, m); ++i)
    chosen.insert(by_margin[ZU(m - 1 - i)].second);

  // Random fill from the remaining correctly-classified pool.
  std::vector<int64_t> pool;
  for (const auto& [margin, node] : by_margin)
    if (!chosen.count(node)) pool.push_back(node);
  rng->Shuffle(&pool);
  for (int64_t i = 0;
       i < config.random && i < static_cast<int64_t>(pool.size()); ++i)
    chosen.insert(pool[ZU(i)]);

  return {chosen.begin(), chosen.end()};
}

Tensor PerturbedLogits(const AttackContext& ctx, const AttackResult& result,
                       bool sparse, bool f32_values) {
  if (!sparse) {
    return ctx.model->LogitsFromRaw(
        DensePerturbedAdjacency(ctx, result.added_edges), ctx.data->features);
  }
  // One normalized clean CSR is shared across every target; each target
  // only patches the values incident to its added edges.
  const CsrMatrix perturbed = GcnRenormalizeAfterAdds(
      ctx.clean_norm_csr, ctx.clean_degp1, result.added_edges);
  return f32_values ? ctx.model->LogitsF32(perturbed, ctx.data->features)
                    : ctx.model->Logits(perturbed, ctx.data->features);
}

std::vector<PreparedTarget> PrepareTargets(const AttackContext& ctx,
                                           const std::vector<int64_t>& nodes,
                                           Rng* rng, bool sparse) {
  GEA_CHECK(rng != nullptr);
  const FgaAttack fga(/*targeted=*/false);
  std::vector<PreparedTarget> prepared;
  for (int64_t node : nodes) {
    PreparedTarget t;
    t.node = node;
    t.true_label = ctx.data->labels[ZU(node)];
    t.budget = std::max<int64_t>(1, ctx.data->graph.Degree(node));

    AttackRequest request;
    request.target_node = node;
    request.target_label = -1;
    request.budget = t.budget;
    const AttackResult probe = fga.Attack(ctx, request, rng);
    const Tensor logits = PerturbedLogits(ctx, probe, sparse);
    const int64_t flipped = logits.ArgMaxRow(node);
    if (flipped == t.true_label) continue;  // FGA failed; drop (§5.1).
    t.target_label = flipped;
    prepared.push_back(t);
  }
  return prepared;
}

namespace {

/// Shared result-to-outcome aggregation used by both the driver-backed and
/// the service-backed evaluation entries: inspects ok results (logits,
/// detection, optional defense) and routes everything else to the failure
/// tallies.  Only ok results are inspected — a failed result carries no
/// (or a partial) perturbed graph, and feeding it to the means would let
/// one crashed target bend every aggregate.
class OutcomeAggregator {
 public:
  OutcomeAggregator(const AttackContext& ctx, const Explainer& explainer,
                    const EvalConfig& eval_config)
      : ctx_(ctx),
        explainer_(explainer),
        eval_config_(eval_config),
        pctx_(MakeProtocolContext(ctx, explainer)),
        // One working graph, patched and restored per target with each
        // result's edge list, so a sparse context runs the full protocol
        // with nothing n x n in sight.
        work_(ctx.data->graph) {}

  void Tally(const PreparedTarget& t, const AttackResult& result) {
    switch (result.status.code()) {
      case StatusCode::kOk:
        Inspect(t, result);
        break;
      case StatusCode::kTimedOut:
        ++outcome_.num_timed_out;
        break;
      case StatusCode::kSkipped:
        ++outcome_.num_skipped;
        break;
      case StatusCode::kResourceExhausted:
        ++outcome_.num_shed;
        break;
      default:
        ++outcome_.num_failed;
        break;
    }
  }

  JointAttackOutcome Finish(int64_t total_targets) {
    outcome_.asr = asr_.mean();
    outcome_.asr_t = asr_t_.mean();
    outcome_.detection.precision = precision_.mean();
    outcome_.detection.recall = recall_.mean();
    outcome_.detection.f1 = f1_.mean();
    outcome_.detection.ndcg = ndcg_.mean();
    outcome_.num_targets = total_targets - outcome_.num_failed -
                           outcome_.num_timed_out - outcome_.num_skipped -
                           outcome_.num_shed;
    if (eval_config_.defend) {
      outcome_.defense_recovery = recovery_.mean();
      outcome_.mean_pruned_edges = pruned_count_.mean();
      outcome_.mean_true_adversarial_pruned = true_pruned_.mean();
    }
    return outcome_;
  }

 private:
  /// Scores one target's attack outcome (logits, detection, defense) into
  /// the stats.
  void Inspect(const PreparedTarget& t, const AttackResult& result) {
    const Tensor logits = PerturbedLogits(ctx_, result, eval_config_.sparse,
                                          eval_config_.f32_values);
    const int64_t predicted = logits.ArgMaxRow(t.node);
    asr_.Add(predicted != t.true_label ? 1.0 : 0.0);
    asr_t_.Add(predicted == t.target_label ? 1.0 : 0.0);

    for (const Edge& e : result.added_edges) work_.AddEdge(e.u, e.v);

    // Inspect: explain the model's (post-attack) prediction at the target
    // and score how visible the adversarial edges are.
    const Explanation explanation =
        explainer_.Explain(work_, t.node, predicted);
    const DetectionMetrics d =
        ComputeDetection(explanation, result.added_edges,
                         eval_config_.subgraph_size, eval_config_.k);
    precision_.Add(d.precision);
    recall_.Add(d.recall);
    f1_.Add(d.f1);
    ndcg_.Add(d.ndcg);

    if (eval_config_.defend) {
      const DefenseOutcome defense = InspectAndPruneInPlace(
          pctx_, &work_, t.node, eval_config_.defense, &result.added_edges);
      recovery_.Add(defense.prediction_after == t.true_label ? 1.0 : 0.0);
      pruned_count_.Add(static_cast<double>(defense.pruned_edges.size()));
      true_pruned_.Add(static_cast<double>(defense.true_adversarial_pruned));
      // Undo the pruning before undoing the attack.
      for (const Edge& e : defense.pruned_edges) work_.AddEdge(e.u, e.v);
    }

    for (const Edge& e : result.added_edges) work_.RemoveEdge(e.u, e.v);
  }

  const AttackContext& ctx_;
  const Explainer& explainer_;
  const EvalConfig& eval_config_;
  const ProtocolContext pctx_;
  Graph work_;
  JointAttackOutcome outcome_;
  RunningStats asr_, asr_t_, precision_, recall_, f1_, ndcg_;
  RunningStats recovery_, pruned_count_, true_pruned_;
};

}  // namespace

JointAttackOutcome EvaluateAttack(const AttackContext& ctx,
                                  const TargetedAttack& attack,
                                  const std::vector<PreparedTarget>& targets,
                                  const Explainer& explainer,
                                  const EvalConfig& eval_config, Rng* rng) {
  if (targets.empty()) return {};
  OutcomeAggregator aggregate(ctx, explainer, eval_config);
  auto tally = [&aggregate](const PreparedTarget& t,
                            const AttackResult& result) {
    aggregate.Tally(t, result);
  };

  if (eval_config.attack_threads >= 1) {
    // Thread-pool driver: independent per-target streams seeded off one
    // draw from `rng`, so the whole evaluation still replays from the
    // caller's single seed.  Buffering every result is inherent to the
    // fan-out (and bounded: results are edge lists).
    std::vector<AttackRequest> requests;
    requests.reserve(targets.size());
    for (const PreparedTarget& t : targets)
      requests.push_back({t.node, t.target_label, t.budget});
    AttackDriverConfig driver_config;
    driver_config.num_threads = eval_config.attack_threads;
    driver_config.base_seed = rng->engine()();
    driver_config.target_deadline_ms = eval_config.target_deadline_ms;
    driver_config.run_deadline_ms = eval_config.run_deadline_ms;
    driver_config.journal_path = eval_config.journal_path;
    const std::vector<AttackResult> results =
        RunMultiTargetAttack(ctx, attack, requests, driver_config);
    for (size_t i = 0; i < targets.size(); ++i) tally(targets[i], results[i]);
  } else {
    // Legacy serial loop on the shared rng stream, one live result at a
    // time.  The fault-containment wrapping changes nothing on a clean
    // run: tokens default disarmed (every Cancelled() poll is false, so the
    // attack takes identical branches) and rng consumption is untouched,
    // which keeps the fixed-seed integration pins bit-identical.  Deadlines
    // that cannot be armed reject every target, as the driver does.
    const Status deadlines = CheckDeadlines(eval_config.run_deadline_ms,
                                            eval_config.target_deadline_ms);
    CancellationToken run_token;
    if (deadlines.ok())
      run_token.SetDeadlineAfterMs(eval_config.run_deadline_ms);
    for (const PreparedTarget& t : targets) {
      AttackResult result;
      if (!deadlines.ok()) {
        result.status = deadlines;
      } else if (t.node < 0 || t.node >= ctx.data->num_nodes() ||
                 t.target_label < -1 ||
                 t.target_label >= ctx.data->num_classes || t.budget < 0) {
        result.status = Status::InvalidArgument(
            "invalid prepared target (node " + std::to_string(t.node) + ")");
      } else if (run_token.Expired()) {
        result.status =
            Status::Skipped("run deadline exceeded before target started");
      } else {
        CancellationToken token(&run_token);
        token.SetDeadlineAfterMs(eval_config.target_deadline_ms);
        AttackRequest request{t.node, t.target_label, t.budget};
        request.cancel = &token;
        try {
          result = attack.Attack(ctx, request, rng);
        } catch (const std::exception& e) {
          result = AttackResult();
          result.status = Status::Error("target " + std::to_string(t.node) +
                                        ": " + e.what());
        } catch (...) {
          result = AttackResult();
          result.status =
              Status::Error("target " + std::to_string(t.node) +
                            ": unknown exception");
        }
      }
      tally(t, result);
    }
  }

  return aggregate.Finish(static_cast<int64_t>(targets.size()));
}

JointAttackOutcome EvaluateAttackOnService(
    const AttackContext& ctx, AttackService* service,
    const std::string& graph_version,
    const std::vector<PreparedTarget>& targets, const Explainer& explainer,
    const EvalConfig& eval_config, double request_deadline_ms,
    int32_t priority) {
  GEA_CHECK(service != nullptr);
  if (targets.empty()) return {};
  OutcomeAggregator aggregate(ctx, explainer, eval_config);

  // Submit everything up front — the service's bounded queue is sized for
  // open-loop arrivals, so a patient closed-loop caller waits for the
  // backlog to drain and retries once instead of treating "queue full" as
  // terminal.  Anything still rejected after that (or shed later under
  // overload) comes back as structured kResourceExhausted and lands in
  // num_shed.
  std::vector<int64_t> tickets(targets.size(), -1);
  std::vector<Status> rejections(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    AttackServiceRequest request;
    request.graph = graph_version;
    request.target_node = targets[i].node;
    request.target_label = targets[i].target_label;
    request.budget = targets[i].budget;
    request.priority = priority;
    request.deadline_ms = request_deadline_ms;
    Admission admission = service->Submit(request);
    if (admission.status.code() == StatusCode::kResourceExhausted) {
      service->Drain();
      admission = service->Submit(request);
    }
    if (admission.status.ok())
      tickets[i] = admission.ticket;
    else
      rejections[i] = admission.status;
  }

  // Staleness is judged against the epoch current at COLLECTION time: a
  // caller churning the graph while this evaluation runs sees exactly how
  // many results predate the newest epoch (they are still exact for their
  // own pinned epoch, so they aggregate normally).
  int64_t num_stale = 0;
  for (size_t i = 0; i < targets.size(); ++i) {
    AttackResult result;
    if (tickets[i] >= 0) {
      ServiceResult taken = service->Take(tickets[i]);
      if (taken.epoch >= 0 &&
          taken.epoch != service->CurrentEpoch(graph_version))
        ++num_stale;
      result = std::move(taken.result);
    } else {
      result.status = rejections[i];
    }
    aggregate.Tally(targets[i], result);
  }
  JointAttackOutcome outcome =
      aggregate.Finish(static_cast<int64_t>(targets.size()));
  outcome.num_stale = num_stale;
  return outcome;
}

AttackContext MakeSparseAttackContext(const GraphData& data,
                                      const Gcn& model) {
  AttackContext ctx;
  ctx.data = &data;
  ctx.model = &model;
  ctx.clean_csr = data.graph.CsrAdjacency();
  ctx.clean_norm_csr = GcnNormalizeCsr(ctx.clean_csr);
  ctx.clean_degp1 = Tensor(data.num_nodes(), 1);
  for (int64_t i = 0; i < data.num_nodes(); ++i)
    ctx.clean_degp1.at(i, 0) = static_cast<double>(data.graph.Degree(i)) + 1.0;
  return ctx;
}

AttackContext MakeAttackContext(const GraphData& data, const Gcn& model) {
  AttackContext ctx = MakeSparseAttackContext(data, model);
  ctx.clean_adjacency = data.graph.DenseAdjacency();
  return ctx;
}

}  // namespace geattack
