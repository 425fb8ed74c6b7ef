#include "perfbench/common.h"

#include <time.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/attack/driver.h"
#include "src/attack/fga.h"
#include "src/defense/inspector_defense.h"
#include "src/graph/subgraph.h"
#include "src/nn/sparse_forward.h"
#include "src/tensor/autodiff.h"
#include "src/tensor/csr.h"

namespace perfbench {

using namespace geattack;

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"targets_per_s", "1/s"},
      {"lat_p50_ms", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"graph.generate_ms", "ms"},
      {"graph.ctx_build_ms", "ms"},
      {"graph.view_build_ms", "ms"},
      {"graph.view_nnz", "count"},
      {"graph.renorm_ms", "ms"},
      {"tensor.spmm_ms", "ms"},
      {"tensor.spmm_bytes", "bytes"},
      {"tensor.norm_values_ms", "ms"},
      {"tensor.backward_ms", "ms"},
      {"nn.train_ms", "ms"},
      {"nn.forward_ms", "ms"},
      {"nn.perturbed_logits_ms", "ms"},
      {"attack.prepare_ms", "ms"},
      {"attack.fga_t_ms", "ms"},
      {"attack.driver_overhead_ms", "ms"},
      {"attack.driver_eff", "fraction"},
      {"attack.driver_tail_share", "fraction"},
      {"core.geattack_ms_p50", "ms"},
      {"core.geattack_ms_max", "ms"},
      {"core.geattack_ms_per_edge", "ms"},
      {"explain.explain_ms", "ms"},
      {"defense.inspect_ms", "ms"},
      {"defense.pruned_edges", "count"},
      {"eval.inspect_phase_ms", "ms"},
      {"service.submit_ms", "ms"},
      {"service.request_ms_p50", "ms"},
      {"service.queue_wait_ms_p50", "ms"},
      {"service.queue_wait_ms_tail", "ms"},
      {"service.max_queue_depth", "count"},
      {"service.rejected", "count"},
      {"service.shed", "count"},
      {"service.requeued_stale", "count"},
      {"service.gen_late_ms", "ms"},
      {"service.max_rate_per_s", "1/s"},
      {"service.apply_churn_ms", "ms"},
      {"service.epoch_mb", "MiB"},
      {"nn.train.rss_mb", "MiB"},
      {"attack.driver.rss_mb", "MiB"},
      {"service.churn.rss_mb", "MiB"},
      {"graph.self_ms", "ms"},
      {"tensor.self_ms", "ms"},
      {"nn.self_ms", "ms"},
      {"attack.self_ms", "ms"},
      {"core.self_ms", "ms"},
      {"explain.self_ms", "ms"},
      {"defense.self_ms", "ms"},
      {"eval.self_ms", "ms"},
      {"service.self_ms", "ms"},
      {"trace.overhead_share", "fraction"},
  };
  return specs;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

void Output::Set(const std::string& name, double value) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

void Output::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  JsonObject c;
  c.Bool("ok", ok);
  if (!detail.empty()) c.Str("detail", detail);
  checks_.Obj(name, c);
  if (!ok) {
    ++failed_checks_;
    std::fprintf(stderr, "[perfbench] CHECK FAILED %s %s\n", name.c_str(),
                 detail.c_str());
  }
}

std::string Output::ResultLine(const std::vector<MetricSpec>& specs,
                               bool missing_is_zero) {
  JsonObject metrics;
  for (const MetricSpec& spec : specs) {
    double value = 0.0;
    bool found = false;
    for (const auto& [n, v] : values_) {
      if (n == spec.name) {
        value = v;
        found = true;
      }
    }
    if (!found && !missing_is_zero)
      Check(std::string("emitted.") + spec.name, false, "metric not measured");
    if (!std::isfinite(value)) {
      Check(std::string("finite.") + spec.name, false, "non-finite value");
      value = 0.0;
    }
    JsonObject m;
    m.Num("value", value).Str("unit", spec.unit);
    metrics.Obj(spec.name, m);
  }
  JsonObject line;
  line.Bool("correct", correct())
      .Int("attempted", std::max<int64_t>(attempted, 1))
      .Int("failed", failed_ops + failed_checks_)
      .Obj("metrics", metrics);
  return line.str();
}

std::string Output::RecordJson() const {
  JsonObject all;
  for (const auto& [n, v] : values_) all.Num(n, v);
  JsonObject o;
  o.Obj("values", all).Obj("checks", checks_).Obj("record", record_);
  return o.str();
}

// ---------------------------------------------------------------------------
// Process memory and pacing.
// ---------------------------------------------------------------------------

double ProcStatusMb(const char* field) {
  std::ifstream st("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(st, line))
    if (line.compare(0, len, field) == 0)
      return std::atof(line.c_str() + len) / 1024.0;
  return -1.0;
}

bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

namespace {
double ClockMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}
}  // namespace

double ThreadCpuMs() { return ClockMs(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuMs() { return ClockMs(CLOCK_PROCESS_CPUTIME_ID); }

double HostStealMs() {
  std::ifstream st("/proc/stat");
  std::string line;
  if (!std::getline(st, line) || line.compare(0, 4, "cpu ") != 0) return 0.0;
  std::istringstream fields(line.substr(4));
  double v[8] = {};
  for (double& x : v) fields >> x;
  return v[7] * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

void SleepUntil(double due_ms) {
  // Sleep to within 0.1 ms of the due time (the timer's usual overshoot),
  // so the generator spins for microseconds, not for a core's millisecond
  // per request that the service's workers would otherwise lose.
  const double slack = due_ms - NowMs();
  if (slack > 0.2)
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(slack - 0.1));
  while (NowMs() < due_ms) std::this_thread::yield();
}

bool SameEdges(const std::vector<Edge>& a, const std::vector<Edge>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i].u != b[i].u || a[i].v != b[i].v) return false;
  return true;
}

uint64_t CsrDigest(const CsrMatrix& m) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  const auto mix = [&h](uint64_t x) {
    h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  const CsrPattern& p = *m.pattern();
  mix(static_cast<uint64_t>(p.rows));
  for (const int64_t r : p.row_ptr) mix(static_cast<uint64_t>(r));
  for (const int64_t c : p.col_idx) mix(static_cast<uint64_t>(c));
  for (const double v : m.values()) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Layer probes.
// ---------------------------------------------------------------------------

void ProbeLayers(const AttackContext& ctx,
                 const std::vector<AttackRequest>& requests, int wave_threads,
                 int64_t wave_size, Tracer* tracer, Output* out) {
  const Graph& g = ctx.data->graph;
  const Tensor& xw1 = CachedXw1(ctx);
  std::vector<double> nnz;
  for (size_t i = 0; i < requests.size(); ++i) {
    const AttackRequest& req = requests[i];
    const int64_t key = static_cast<int64_t>(i);
    const std::vector<int64_t> cands =
        DirectAddCandidates(g, req.target_node, ctx.data->labels, -1);
    SubgraphView view;
    {
      ScopedSpan s(tracer, "graph.view_build", key);
      view = BuildSubgraphView(g, req.target_node, /*hops=*/-1, cands);
    }
    nnz.push_back(static_cast<double>(view.pattern->nnz()));
    {
      ScopedSpan s(tracer, "tensor.norm_values", key);
      const Tensor values = GcnNormValuesRaw(
          *view.pattern, view.base_values.data(),
          view.out_degree.data().data());
      (void)values;
    }
    const SparseAttackForward sf =
        MakeSparseAttackForward(view, *ctx.model, xw1);
    const Var w = Var::Leaf(Tensor::Zeros(view.num_candidates(), 1),
                            /*requires_grad=*/true, "w");
    const Var loss =
        NllRow(SparseGcnLogitsVar(sf, RawValuesFromCandidates(sf, w)),
               view.target_local, req.target_label);
    {
      ScopedSpan s(tracer, "tensor.backward", key);
      const Var grad = GradOne(loss, w);
      (void)grad;
    }
    {
      ScopedSpan s(tracer, "attack.fga_t", key);
      Rng rng(0);
      const AttackResult r = FgaAttack(true).Attack(ctx, req, &rng);
      (void)r;
    }
  }
  out->Set("graph.view_nnz", Median(nnz));

  const CsrMatrix& a = ctx.clean_norm_csr;
  for (int rep = 0; rep < 3; ++rep) {
    {
      ScopedSpan s(tracer, "tensor.spmm");
      const Tensor y = SpmmRaw(*a.pattern(), a.values(), xw1);
      (void)y;
    }
    {
      ScopedSpan s(tracer, "nn.forward");
      const Tensor logits = ctx.model->Logits(a, ctx.data->features);
      (void)logits;
    }
  }
  // Computed, not measured: values + column indices + row pointers read,
  // one dense row of width h gathered per nonzero, one output row written.
  const double h = static_cast<double>(xw1.cols());
  const double rows = static_cast<double>(a.rows());
  const double nz = static_cast<double>(a.nnz());
  out->Set("tensor.spmm_bytes",
           nz * 16.0 + (rows + 1.0) * 8.0 + nz * h * 8.0 + rows * h * 8.0);

  // Driver overhead: a wave of already-cancelled requests comes back
  // kSkipped without attacking, leaving thread spawn, cache warm-up and
  // queueing.
  CancellationToken cancelled;
  cancelled.Cancel();
  std::vector<AttackRequest> wave;
  for (int64_t i = 0; i < wave_size; ++i) {
    AttackRequest r = requests[static_cast<size_t>(i) % requests.size()];
    r.cancel = &cancelled;
    wave.push_back(r);
  }
  AttackDriverConfig cfg;
  cfg.num_threads = wave_threads;
  const FgaAttack fga(true);
  bool all_skipped = true;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<AttackResult> res;
    {
      ScopedSpan s(tracer, "attack.driver_overhead");
      res = RunMultiTargetAttack(ctx, fga, wave, cfg);
    }
    for (const AttackResult& r : res)
      all_skipped = all_skipped && r.status.code() == StatusCode::kSkipped;
  }
  out->Check("probe.cancelled_wave_skipped", all_skipped);
}

JointAttackOutcome InspectSteps(const AttackContext& ctx,
                                const Explainer& explainer,
                                const EvalConfig& ec,
                                const std::vector<PreparedTarget>& targets,
                                const std::vector<std::vector<Edge>>& picks,
                                Tracer* tracer, std::vector<double>* pruned) {
  const ProtocolContext pctx = MakeProtocolContext(ctx, explainer);
  Graph work = ctx.data->graph;
  RunningStats asr, asr_t, precision, recall, f1, ndcg;
  RunningStats recovery, pruned_count, true_pruned;
  for (size_t i = 0; i < targets.size(); ++i) {
    const PreparedTarget& t = targets[i];
    const int64_t key = static_cast<int64_t>(i);
    AttackResult result;
    result.added_edges = picks[i];
    Tensor logits;
    {
      ScopedSpan s(tracer, "nn.perturbed_logits", key);
      logits = PerturbedLogits(ctx, result, ec.sparse, ec.f32_values);
    }
    if (tracer->enabled()) {
      ScopedSpan s(tracer, "graph.renorm", key);
      const CsrMatrix renorm = GcnRenormalizeAfterFlips(
          ctx.clean_norm_csr, ctx.clean_degp1, result.added_edges, {});
      (void)renorm;
    }
    const int64_t predicted = logits.ArgMaxRow(t.node);
    asr.Add(predicted != t.true_label ? 1.0 : 0.0);
    asr_t.Add(predicted == t.target_label ? 1.0 : 0.0);

    for (const Edge& e : result.added_edges) work.AddEdge(e.u, e.v);
    Explanation explanation;
    {
      ScopedSpan s(tracer, "explain.explain", key);
      explanation = explainer.Explain(work, t.node, predicted);
    }
    DetectionMetrics d;
    {
      ScopedSpan s(tracer, "eval.detection", key);
      d = ComputeDetection(explanation, result.added_edges, ec.subgraph_size,
                           ec.k);
    }
    precision.Add(d.precision);
    recall.Add(d.recall);
    f1.Add(d.f1);
    ndcg.Add(d.ndcg);
    if (ec.defend) {
      DefenseOutcome defense;
      {
        ScopedSpan s(tracer, "defense.inspect", key);
        defense = InspectAndPruneInPlace(pctx, &work, t.node, ec.defense,
                                         &result.added_edges);
      }
      recovery.Add(defense.prediction_after == t.true_label ? 1.0 : 0.0);
      pruned_count.Add(static_cast<double>(defense.pruned_edges.size()));
      true_pruned.Add(static_cast<double>(defense.true_adversarial_pruned));
      if (pruned != nullptr)
        pruned->push_back(static_cast<double>(defense.pruned_edges.size()));
      for (const Edge& e : defense.pruned_edges) work.AddEdge(e.u, e.v);
    }
    for (const Edge& e : result.added_edges) work.RemoveEdge(e.u, e.v);
  }
  JointAttackOutcome o;
  o.asr = asr.mean();
  o.asr_t = asr_t.mean();
  o.detection.precision = precision.mean();
  o.detection.recall = recall.mean();
  o.detection.f1 = f1.mean();
  o.detection.ndcg = ndcg.mean();
  o.num_targets = static_cast<int64_t>(targets.size());
  if (ec.defend) {
    o.defense_recovery = recovery.mean();
    o.mean_pruned_edges = pruned_count.mean();
    o.mean_true_adversarial_pruned = true_pruned.mean();
  }
  return o;
}

bool SameOutcome(const JointAttackOutcome& a, const JointAttackOutcome& b) {
  return a.asr == b.asr && a.asr_t == b.asr_t &&
         a.detection.precision == b.detection.precision &&
         a.detection.recall == b.detection.recall &&
         a.detection.f1 == b.detection.f1 &&
         a.detection.ndcg == b.detection.ndcg &&
         a.num_targets == b.num_targets && a.num_failed == b.num_failed &&
         a.num_timed_out == b.num_timed_out &&
         a.num_skipped == b.num_skipped && a.num_shed == b.num_shed &&
         a.defense_recovery == b.defense_recovery &&
         a.mean_pruned_edges == b.mean_pruned_edges &&
         a.mean_true_adversarial_pruned == b.mean_true_adversarial_pruned;
}

JsonObject OutcomeJson(const JointAttackOutcome& o) {
  JsonObject j;
  j.Num("asr", o.asr)
      .Num("asr_t", o.asr_t)
      .Num("precision", o.detection.precision)
      .Num("recall", o.detection.recall)
      .Num("f1", o.detection.f1)
      .Num("ndcg", o.detection.ndcg)
      .Int("num_targets", o.num_targets)
      .Int("num_failed", o.num_failed)
      .Int("num_timed_out", o.num_timed_out)
      .Int("num_skipped", o.num_skipped)
      .Int("num_shed", o.num_shed)
      .Num("defense_recovery", o.defense_recovery)
      .Num("mean_pruned_edges", o.mean_pruned_edges)
      .Num("mean_true_adversarial_pruned", o.mean_true_adversarial_pruned);
  return j;
}

void SetSpanMetrics(const Tracer& tracer, Output* out) {
  static const char* const kTimedCalls[][2] = {
      {"graph.generate", "graph.generate_ms"},
      {"graph.ctx_build", "graph.ctx_build_ms"},
      {"graph.view_build", "graph.view_build_ms"},
      {"graph.renorm", "graph.renorm_ms"},
      {"tensor.spmm", "tensor.spmm_ms"},
      {"tensor.norm_values", "tensor.norm_values_ms"},
      {"tensor.backward", "tensor.backward_ms"},
      {"nn.train", "nn.train_ms"},
      {"nn.forward", "nn.forward_ms"},
      {"nn.perturbed_logits", "nn.perturbed_logits_ms"},
      {"attack.prepare", "attack.prepare_ms"},
      {"attack.fga_t", "attack.fga_t_ms"},
      {"attack.driver_overhead", "attack.driver_overhead_ms"},
      {"explain.explain", "explain.explain_ms"},
      {"defense.inspect", "defense.inspect_ms"},
      {"service.submit", "service.submit_ms"},
      {"service.apply_churn", "service.apply_churn_ms"},
  };
  for (const auto& [span, metric] : kTimedCalls) {
    const std::vector<double> d = tracer.Durations(span);
    if (!d.empty()) out->Set(metric, Median(d));
  }
  const std::map<std::string, double> self = tracer.LayerSelfMs();
  for (const char* layer : {"graph", "tensor", "nn", "attack", "core",
                            "explain", "defense", "eval", "service"}) {
    const auto it = self.find(layer);
    out->Set(std::string(layer) + ".self_ms",
             it == self.end() ? 0.0 : it->second);
  }
}

}  // namespace perfbench
