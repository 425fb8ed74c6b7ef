// Workload `protocol`: the paper's §5.1 loop as a closed batch.
//
// Cora stand-in (MakeDataset(kCora, 1.0)), default TrainConfig, targets by
// SelectTargetNodes 10/10/20 on a sparse context, PrepareTargets(sparse) so
// budget = degree.  EvaluateAttack then runs FgaAttack(true) and GeAttack()
// with attack_threads = 4, sparse, defend, and a 50-epoch GNNExplainer
// inspector (K = 15, L = 20).
//
// Like the paper's Cora, the dataset is fixed: the graph, the trained GCN
// and the targets come from kDatasetSeed (21 targets, budgets 1-48), and
// --seed draws the evaluation streams — the driver's base seeds, hence
// every GEAttack mask initialization, and the explainer's initialization.
// A seed-drawn target set would make the batch's work, which one hub of
// degree 40+ dominates, differ by 2x from seed to seed.  The targets are
// ordered by descending budget, so the hub starts first and the batch's
// length does not hinge on when a worker happens to steal it.
//
// The FGA-T batch runs first and warms the driver and the context caches.
// The GEAttack batch then repeats, on the same base seed, until the window
// has run --seconds (at least kMinBatches times): every repeat must give
// the same picks and outcome, and the timings are medians over repeats.
//
// A RecordingAttack wrapper around each attacker timestamps every target's
// attack and keeps its picks, which gives per-target completion times and
// lets the run re-derive the whole JointAttackOutcome through the public
// inspect steps (InspectSteps) and demand bit equality.

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "perfbench/common.h"
#include "src/attack/driver.h"
#include "src/attack/fga.h"
#include "src/core/geattack.h"
#include "src/explain/gnn_explainer.h"
#include "src/graph/datasets.h"
#include "src/nn/trainer.h"

namespace perfbench {

using namespace geattack;

namespace {

constexpr int kAttackThreads = 4;
constexpr int kSetupRepeats = 3;
constexpr int kMinBatches = 3;
constexpr uint64_t kDatasetSeed = 1;
/// Salts separating the two evaluation streams from the set-up stream.
constexpr uint64_t kEvalSalt = 0x5eedba5eull;
constexpr uint64_t kFgaSalt = 0xf6a7ull;

/// Forwards Attack() and records each call's target, interval and picks.
class RecordingAttack : public TargetedAttack {
 public:
  struct Call {
    int64_t node = -1;
    double start_ms = 0.0;
    double end_ms = 0.0;
    double cpu_ms = 0.0;  ///< The worker thread's CPU time.
    std::vector<Edge> edges;
    bool ok = false;
  };

  RecordingAttack(const TargetedAttack& inner, Tracer* tracer,
                  int64_t parent_span = -1)
      : inner_(inner), tracer_(tracer), parent_span_(parent_span) {}

  std::string name() const override { return inner_.name(); }

  AttackResult Attack(const AttackContext& ctx, const AttackRequest& request,
                      Rng* rng) const override {
    ScopedSpan span(tracer_, "attack.target", request.target_node,
                    parent_span_);
    const double t0 = NowMs();
    const double c0 = ThreadCpuMs();
    AttackResult r = inner_.Attack(ctx, request, rng);
    const double c1 = ThreadCpuMs();
    const double t1 = NowMs();
    std::lock_guard<std::mutex> lock(mu_);
    calls_.push_back({request.target_node, t0, t1, c1 - c0, r.added_edges,
                      r.status.ok()});
    return r;
  }

  std::vector<Call> calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

  /// Picks in `targets` order; false if some target has no ok call.
  bool PicksInOrder(const std::vector<PreparedTarget>& targets,
                    std::vector<std::vector<Edge>>* picks) const {
    const std::vector<Call> all = calls();
    picks->assign(targets.size(), {});
    for (size_t i = 0; i < targets.size(); ++i) {
      bool found = false;
      for (const Call& c : all) {
        if (c.node == targets[i].node && c.ok) {
          (*picks)[i] = c.edges;
          found = true;
        }
      }
      if (!found) return false;
    }
    return true;
  }

 private:
  const TargetedAttack& inner_;
  Tracer* tracer_;
  int64_t parent_span_;
  mutable std::mutex mu_;
  mutable std::vector<Call> calls_;
};

struct World {
  GraphData data;
  Split split;
  std::unique_ptr<Gcn> model;
  AttackContext ctx;
  std::vector<PreparedTarget> targets;
};

std::unique_ptr<World> BuildWorld(const Options& o, Tracer* tracer,
                                  Output* out) {
  auto w = std::make_unique<World>();
  Rng rng(kDatasetSeed);
  {
    ScopedSpan s(tracer, "graph.generate");
    w->data = MakeDataset(DatasetId::kCora, o.smoke ? 0.1 : 1.0, &rng);
  }
  w->split = MakeSplit(w->data, 0.1, 0.1, &rng);
  TrainConfig tc;
  if (o.smoke) tc.epochs = 20;
  const bool reset = tracer->enabled() && ResetPeakRss();
  {
    ScopedSpan s(tracer, "nn.train");
    w->model = std::make_unique<Gcn>(TrainNewGcn(w->data, w->split, tc, &rng));
  }
  if (reset) out->Set("nn.train.rss_mb", ProcStatusMb("VmHWM:"));
  {
    ScopedSpan s(tracer, "graph.ctx_build");
    w->ctx = MakeSparseAttackContext(w->data, *w->model);
  }
  const Tensor logits =
      w->model->Logits(w->ctx.clean_norm_csr, w->data.features);
  const std::vector<int64_t> nodes = SelectTargetNodes(
      w->data, logits, w->split.test, TargetSelectionConfig{}, &rng);
  if (tracer->enabled()) {
    // Per node, with the same draws as one batched call (the untargeted
    // FGA probe draws nothing).
    for (const int64_t node : nodes) {
      ScopedSpan s(tracer, "attack.prepare", node);
      for (const PreparedTarget& t :
           PrepareTargets(w->ctx, {node}, &rng, /*sparse=*/true))
        w->targets.push_back(t);
    }
  } else {
    w->targets = PrepareTargets(w->ctx, nodes, &rng, /*sparse=*/true);
  }
  std::stable_sort(w->targets.begin(), w->targets.end(),
                   [](const PreparedTarget& a, const PreparedTarget& b) {
                     return a.budget > b.budget;
                   });
  return w;
}

std::string TargetsDigest(const std::vector<PreparedTarget>& targets) {
  std::string d;
  for (const PreparedTarget& t : targets)
    d += std::to_string(t.node) + ":" + std::to_string(t.target_label) + ":" +
         std::to_string(t.budget) + ";";
  return d;
}

/// Every pick is a new edge at its target, within budget, without repeats.
bool ValidPicks(const World& w, const std::vector<std::vector<Edge>>& picks) {
  for (size_t i = 0; i < picks.size(); ++i) {
    const PreparedTarget& t = w.targets[i];
    if (static_cast<int64_t>(picks[i].size()) > t.budget) return false;
    for (size_t k = 0; k < picks[i].size(); ++k) {
      const Edge& e = picks[i][k];
      if (e.u != t.node && e.v != t.node) return false;
      if (w.data.graph.HasEdge(e.u, e.v)) return false;
      for (size_t j = 0; j < k; ++j)
        if (picks[i][j].u == e.u && picks[i][j].v == e.v) return false;
    }
  }
  return true;
}

}  // namespace

void RunProtocol(const Options& o, Tracer* tracer, Output* out) {
  // ----- Set-up, repeated; the median is setup_s. -----
  const int repeats = o.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_ms;
  std::unique_ptr<World> w;
  std::string digest;
  for (int k = 0; k < repeats; ++k) {
    w.reset();
    const double t0 = NowMs();
    w = BuildWorld(o, tracer, out);
    setup_ms.push_back(NowMs() - t0);
    const std::string d = TargetsDigest(w->targets);
    if (k == 0) digest = d;
    else out->Check("protocol.setup_repeatable", d == digest);
  }
  out->Check("protocol.has_targets", !w->targets.empty());
  if (w->targets.empty()) return;

  GnnExplainerConfig ecfg;
  ecfg.epochs = 50;
  ecfg.seed = o.seed;
  const GnnExplainer explainer(w->model.get(), &w->data.features, ecfg);
  EvalConfig ec;
  ec.sparse = true;
  ec.attack_threads = kAttackThreads;
  ec.defend = true;
  const GeAttack ge;
  const FgaAttack fga(/*targeted=*/true);

  // ----- The timed closed batches (tracing off even in the traced run). --
  const bool traced = tracer->enabled();
  tracer->set_enabled(false);
  const int64_t n = static_cast<int64_t>(w->targets.size());
  const uint64_t eval_seed = o.seed ^ kEvalSalt;
  const uint64_t fga_seed = eval_seed ^ kFgaSalt;
  RecordingAttack rec_fga(fga, tracer);
  Rng fga_rng(fga_seed);
  const double f0 = NowMs();
  const JointAttackOutcome out_fga =
      EvaluateAttack(w->ctx, rec_fga, w->targets, explainer, ec, &fga_rng);
  const double fga_ms = NowMs() - f0;

  // GEAttack batches on one base seed; the first one's picks and outcome
  // are the reference every repeat must match.
  JointAttackOutcome out_ge;
  std::vector<std::vector<Edge>> ge_picks;
  std::vector<double> batch_ms;
  std::vector<double> batch_cpu_ms;    // Process CPU time per batch.
  std::vector<double> batch_steal_ms;  // Host steal time per batch.
  std::map<int64_t, std::vector<double>> node_ms;  // Per target, per batch.
  // First batch: [node, start, end, picks, worker CPU ms].
  std::vector<std::string> calls;
  double driver_span_ms = 0.0;
  int64_t ge_not_ok = 0;
  bool have_picks = true;
  bool repeats_same = true;
  const int min_batches = traced ? 1 : kMinBatches;
  const double window0 = NowMs();
  while (std::ssize(batch_ms) < min_batches ||
         (!traced && NowMs() - window0 < 1000.0 * o.seconds)) {
    RecordingAttack rec_ge(ge, tracer);
    Rng eval_rng(eval_seed);
    const double s0 = HostStealMs();
    const double c0 = ProcessCpuMs();
    const double t0 = NowMs();
    const JointAttackOutcome outcome =
        EvaluateAttack(w->ctx, rec_ge, w->targets, explainer, ec, &eval_rng);
    batch_ms.push_back(NowMs() - t0);
    batch_cpu_ms.push_back(ProcessCpuMs() - c0);
    batch_steal_ms.push_back(HostStealMs() - s0);
    ge_not_ok += n - outcome.num_targets;
    std::vector<std::vector<Edge>> picks;
    have_picks = have_picks && rec_ge.PicksInOrder(w->targets, &picks);
    double first_start = 1e300;
    double last_end = 0.0;
    for (const RecordingAttack::Call& c : rec_ge.calls()) {
      node_ms[c.node].push_back(c.end_ms - c.start_ms);
      first_start = std::min(first_start, c.start_ms);
      last_end = std::max(last_end, c.end_ms);
      if (batch_ms.size() == 1)
        calls.push_back(JsonArray({std::to_string(c.node),
                                   JsonNumber(c.start_ms - t0),
                                   JsonNumber(c.end_ms - t0),
                                   std::to_string(c.edges.size()),
                                   JsonNumber(c.cpu_ms)}));
    }
    if (batch_ms.size() == 1) {
      out_ge = outcome;
      ge_picks.swap(picks);
      driver_span_ms = last_end - first_start;
      continue;
    }
    bool same = SameOutcome(outcome, out_ge) && picks.size() == ge_picks.size();
    for (size_t i = 0; same && i < picks.size(); ++i)
      same = SameEdges(picks[i], ge_picks[i]);
    repeats_same = repeats_same && same;
  }
  const double peak_rss = ProcStatusMb("VmHWM:");
  tracer->set_enabled(traced);

  // Per-target latency is each GEAttack target's attack on its worker,
  // as a median over the batches.  (Completion times from the batch start
  // depend on the stealing order: their median moves by a quarter between
  // identical runs.)
  std::vector<double> target_ms;
  for (const auto& [node, ms] : node_ms) target_ms.push_back(Median(ms));
  const Tail tail = TailOf(target_ms);
  const double batch_p50_ms = Median(batch_ms);

  const int64_t batches = std::ssize(batch_ms);
  out->attempted = n * (1 + batches);
  out->failed_ops = (n - out_fga.num_targets) + ge_not_ok;
  out->Check("protocol.all_targets_ok",
             out_fga.num_targets == n && ge_not_ok == 0);
  out->Check("protocol.geattack_repeats_identical", repeats_same);

  std::vector<std::vector<Edge>> fga_picks;
  have_picks = have_picks && rec_fga.PicksInOrder(w->targets, &fga_picks);
  out->Check("protocol.picks_recorded", have_picks);
  if (!have_picks) return;
  out->Check("protocol.picks_valid",
             ValidPicks(*w, ge_picks) && ValidPicks(*w, fga_picks));

  // ----- Record. -----
  std::vector<std::string> budgets;
  int64_t budget_sum = 0;
  for (const PreparedTarget& t : w->targets) {
    budgets.push_back(std::to_string(t.budget));
    budget_sum += t.budget;
  }
  const auto numbers = [](const std::vector<double>& v) {
    std::vector<std::string> s;
    for (const double x : v) s.push_back(JsonNumber(x));
    return JsonArray(s);
  };
  JsonObject quality;
  quality.Obj("geattack", OutcomeJson(out_ge))
      .Obj("fga_t", OutcomeJson(out_fga))
      .Num("asr_t", out_ge.asr_t)
      .Num("det_f1_gap", out_fga.detection.f1 - out_ge.detection.f1)
      .Num("det_ndcg_gap", out_fga.detection.ndcg - out_ge.detection.ndcg)
      .Bool("claim_f1_holds", out_fga.detection.f1 > out_ge.detection.f1)
      .Bool("claim_ndcg_holds",
            out_fga.detection.ndcg > out_ge.detection.ndcg);
  out->record()
      .Int("nodes", w->data.num_nodes())
      .Int("edges", w->data.graph.num_edges())
      .Int("features", w->data.feature_dim())
      .Int("targets", n)
      .Raw("budgets", JsonArray(budgets))
      .Int("budget_sum", budget_sum)
      .Int("attack_threads", kAttackThreads)
      .Raw("setup_ms", numbers(setup_ms))
      .Raw("geattack_eval_ms", numbers(batch_ms))
      .Raw("geattack_eval_cpu_ms", numbers(batch_cpu_ms))
      .Raw("geattack_eval_steal_ms", numbers(batch_steal_ms))
      .Raw("geattack_calls", JsonArray(calls))
      .Num("fga_t_eval_ms", fga_ms)
      .Num("geattack_driver_span_ms", driver_span_ms)
      .Num("lat_tail_ms", tail.value)
      .Num("lat_tail_percentile", tail.percentile)
      .Int("lat_n", tail.n)
      .Obj("quality", quality);

  if (!o.trace) {
    out->Set("setup_s", Median(setup_ms) / 1000.0);
    out->Set("targets_per_s",
             static_cast<double>(out_ge.num_targets) / (batch_p50_ms / 1000.0));
    out->Set("lat_p50_ms", Median(target_ms));
    out->Set("peak_rss_mb", peak_rss);
    // The exactness gate: the public inspect steps over EvaluateAttack's
    // own picks reproduce its outcome bit for bit.
    out->Check("protocol.geattack_outcome_reproduced",
               SameOutcome(InspectSteps(w->ctx, explainer, ec, w->targets,
                                        ge_picks, tracer),
                           out_ge));
    out->Check("protocol.fga_t_outcome_reproduced",
               SameOutcome(InspectSteps(w->ctx, explainer, ec, w->targets,
                                        fga_picks, tracer),
                           out_fga));
    return;
  }

  // ----- Traced decomposition of EvaluateAttack into its public steps. ----
  out->Set("eval.inspect_phase_ms", batch_ms[0] - driver_span_ms);
  const uint64_t base_ge = Rng(eval_seed).engine()();
  const uint64_t base_fga = Rng(fga_seed).engine()();
  std::vector<AttackRequest> requests;
  for (const PreparedTarget& t : w->targets)
    requests.push_back({t.node, t.target_label, t.budget});

  const auto decompose = [&](const TargetedAttack& attack, uint64_t base,
                             const std::vector<std::vector<Edge>>& ref_picks,
                             const JointAttackOutcome& ref_outcome,
                             const std::string& tag, double* driver_ms,
                             std::vector<double>* pruned) {
    ScopedSpan eval_span(tracer, "eval.evaluate", -1);
    std::vector<AttackResult> results;
    const bool reset = ResetPeakRss();
    {
      ScopedSpan driver_span(tracer, "attack.driver");
      RecordingAttack traced_attack(attack, tracer, driver_span.id());
      AttackDriverConfig cfg;
      cfg.num_threads = kAttackThreads;
      cfg.base_seed = base;
      const double d0 = NowMs();
      results = RunMultiTargetAttack(w->ctx, traced_attack, requests, cfg);
      *driver_ms = NowMs() - d0;
    }
    if (reset && tag == "geattack")
      out->Set("attack.driver.rss_mb", ProcStatusMb("VmHWM:"));
    bool same = results.size() == ref_picks.size();
    std::vector<std::vector<Edge>> picks;
    for (size_t i = 0; i < results.size() && same; ++i) {
      same = results[i].status.ok() &&
             SameEdges(results[i].added_edges, ref_picks[i]);
      picks.push_back(results[i].added_edges);
    }
    out->Check("protocol." + tag + "_driver_picks_match", same);
    if (!same) return;
    out->Check("protocol." + tag + "_decomposition_exact",
               SameOutcome(InspectSteps(w->ctx, explainer, ec, w->targets,
                                        picks, tracer, pruned),
                           ref_outcome));
  };

  double ge_driver_ms = 0.0;
  double fga_driver_ms = 0.0;
  std::vector<double> pruned;
  const double d0 = NowMs();
  decompose(ge, base_ge, ge_picks, out_ge, "geattack", &ge_driver_ms,
            &pruned);
  const double traced_ge_ms = NowMs() - d0;
  decompose(fga, base_fga, fga_picks, out_fga, "fga_t", &fga_driver_ms,
            nullptr);
  out->Set("defense.pruned_edges", Median(pruned));
  out->Set("trace.overhead_share", traced_ge_ms / batch_ms[0] - 1.0);

  // Serial GEAttack replays on each target's own TargetSeed stream, after
  // the threaded run in the same process (call order is recorded).
  std::vector<double> serial_ms;
  bool replay_same = true;
  int64_t edges = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    Rng rng(TargetSeed(base_ge, static_cast<int64_t>(i)));
    const double r0 = NowMs();
    AttackResult r;
    {
      ScopedSpan s(tracer, "core.geattack", static_cast<int64_t>(i));
      r = ge.Attack(w->ctx, requests[i], &rng);
    }
    serial_ms.push_back(NowMs() - r0);
    edges += static_cast<int64_t>(r.added_edges.size());
    replay_same = replay_same && SameEdges(r.added_edges, ge_picks[i]);
  }
  out->Check("protocol.serial_replays_match_driver", replay_same);
  double serial_sum = 0.0;
  double serial_max = 0.0;
  for (const double s : serial_ms) {
    serial_sum += s;
    serial_max = std::max(serial_max, s);
  }
  out->Set("core.geattack_ms_p50", Median(serial_ms));
  out->Set("core.geattack_ms_max", serial_max);
  out->Set("core.geattack_ms_per_edge",
           serial_sum / static_cast<double>(std::max<int64_t>(edges, 1)));
  out->Set("attack.driver_eff",
           serial_sum / (kAttackThreads * ge_driver_ms));
  out->Set("attack.driver_tail_share", serial_max / ge_driver_ms);

  std::vector<AttackRequest> probes(
      requests.begin(),
      requests.begin() + std::min<std::ptrdiff_t>(5, std::ssize(requests)));
  ProbeLayers(w->ctx, probes, kAttackThreads, std::ssize(requests), tracer,
              out);
  out->record()
      .Str("call_order",
           "setup; EvaluateAttack(FGA-T, 4 threads); EvaluateAttack(GEAttack, "
           "4 threads); traced driver + inspect steps (GEAttack, FGA-T); "
           "serial GEAttack replays; layer probes")
      .Num("traced_geattack_eval_ms", traced_ge_ms)
      .Num("traced_geattack_driver_ms", ge_driver_ms)
      .Num("traced_fga_t_driver_ms", fga_driver_ms)
      .Num("serial_geattack_sum_ms", serial_sum);
}

}  // namespace perfbench
