// Workload `service`: open-loop FgaAttack(true) requests against
// AttackService (num_threads = 2, wave_size = 4, queue_capacity = 64) on a
// 2,000-node, 128-feature graph.  Requests draw on a pool of 64 prepared test
// nodes of degree >= 3, so every request runs budget 3: with the paper's
// budget = degree capped at 3, the mix of 1-, 2- and 3-edge requests would
// change with the seed and move the latency percentiles with it.
//
// As protocol's Cora, the graph, the trained GCN and the pool are fixed
// (kGraphSeed); --seed draws each request's target uniformly from the
// pool.  With a seed-drawn graph the overload goodput moved from 165 to
// 235 req/s between seeds, and with a seed-shuffled cycle through the pool
// from 163 to 200: a cycle repeats the same waves, so its order fixes how
// evenly each wave's work splits over the two workers.  Independent draws
// average that over every wave of the run.
//
// One generator (the main thread) offers fixed absolute rates, each rung
// against a fresh service whose first seconds are a warm-up that no metric
// reads.  The timed run offers two rungs:
//   - 50 req/s, far enough below the 2-worker knee (140-220 req/s on a
//     4-core host) that its latency measures the per-request path rather
//     than the queue;
//   - 400 req/s as overload, whose goodput is counted over the rung's
//     saturated part only (after the queue has filled, before the drain).
// The traced run adds 100 and 150 req/s between them, the knee probe
// behind max_rate_per_s.  Their waits swing with every small change in
// service time, and on a slower host 150 req/s refuses requests, so they
// stay out of the timed run.
//
// Every request is timed from its due time to its result.  The result's
// instant is the generator's pre-Submit timestamp plus
// ServiceResult::latency_ms (the service stamps admission inside Submit,
// a few microseconds later), so generator lateness is included.

#include <memory>
#include <span>

#include "perfbench/common.h"
#include "src/attack/driver.h"
#include "src/attack/fga.h"
#include "src/explain/gnn_explainer.h"
#include "src/graph/generators.h"
#include "src/nn/trainer.h"
#include "src/service/attack_service.h"

namespace perfbench {

using namespace geattack;

namespace {

constexpr int kServiceThreads = 2;
constexpr int64_t kWaveSize = 4;
constexpr int64_t kQueueCapacity = 64;
constexpr int64_t kPoolSize = 64;
constexpr int64_t kBudget = 3;
constexpr int kSetupRepeats = 3;
constexpr double kNominalRate = 50.0;
constexpr double kOverloadRate = 400.0;
/// Leading share of each rung that no metric reads: caches, allocator and
/// thread start-up on a fresh service, and on overload the queue filling.
constexpr double kWarmupShare = 0.25;
/// Tail-latency limit a sub-knee rung must meet to count toward
/// max_rate_per_s.
constexpr double kTailLimitMs = 50.0;
/// The rungs: rate (req/s) and their shares of --seconds.
constexpr double kTimedLadder[][2] = {{kNominalRate, 2.0},
                                      {kOverloadRate, 3.0}};
constexpr double kTracedLadder[][2] = {
    {kNominalRate, 2.0}, {100.0, 1.0}, {150.0, 1.0}, {kOverloadRate, 1.0}};
constexpr uint64_t kServiceSalt = 0x5e7b1ceull;
constexpr uint64_t kGraphSeed = 1;

struct World {
  GraphData data;
  std::unique_ptr<Gcn> model;
  AttackContext ctx;
  std::vector<AttackRequest> pool;
  std::shared_ptr<const TargetedAttack> attack =
      std::make_shared<FgaAttack>(/*targeted=*/true);
};

std::unique_ptr<World> BuildWorld(const Options& o, Tracer* tracer,
                                  Output* out) {
  auto w = std::make_unique<World>();
  Rng rng(kGraphSeed);
  CitationGraphConfig cfg;
  cfg.num_nodes = o.smoke ? 300 : 2000;
  cfg.num_edges = 3 * cfg.num_nodes;
  cfg.num_classes = 5;
  cfg.feature_dim = o.smoke ? 32 : 128;
  {
    ScopedSpan s(tracer, "graph.generate");
    w->data = KeepLargestConnectedComponent(GenerateCitationGraph(cfg, &rng));
  }
  const Split split = MakeSplit(w->data, 0.1, 0.1, &rng);
  TrainConfig tc;
  if (o.smoke) tc.epochs = 20;
  const bool reset = tracer->enabled() && ResetPeakRss();
  {
    ScopedSpan s(tracer, "nn.train");
    w->model = std::make_unique<Gcn>(TrainNewGcn(w->data, split, tc, &rng));
  }
  if (reset) out->Set("nn.train.rss_mb", ProcStatusMb("VmHWM:"));
  {
    ScopedSpan s(tracer, "graph.ctx_build");
    w->ctx = MakeSparseAttackContext(w->data, *w->model);
  }
  const Tensor logits =
      w->model->Logits(w->ctx.clean_norm_csr, w->data.features);
  for (const int64_t node : split.test) {
    if (std::ssize(w->pool) >= kPoolSize) break;
    if (w->data.graph.Degree(node) < kBudget) continue;
    if (logits.ArgMaxRow(node) != w->data.labels[static_cast<size_t>(node)])
      continue;
    std::vector<PreparedTarget> prepared;
    {
      ScopedSpan s(tracer, "attack.prepare", node);
      prepared = PrepareTargets(w->ctx, {node}, &rng, /*sparse=*/true);
    }
    for (const PreparedTarget& t : prepared)
      w->pool.push_back({t.node, t.target_label, kBudget});
  }
  return w;
}

/// One rung of the ladder against a fresh service.
struct Rung {
  double rate = 0.0;
  int64_t offered = 0;
  int64_t refused = 0;
  int64_t ok = 0;
  int64_t not_ok = 0;  ///< Accepted but finished other than ok.
  double wall_ms = 0.0;
  double goodput = 0.0;  ///< Ok completions per second after the warm-up.
  double max_late_ms = 0.0;
  bool backlog_growing = false;
  /// Due time to result of the ok requests due after the warm-up.
  std::vector<double> lat_ms;
  std::vector<size_t> lat_result;  ///< Index into ok_results per lat_ms.
  std::vector<double> ok_per_s;     ///< Ok completions in each second.
  ServiceStats stats;
  std::vector<AttackRequest> ok_requests;
  std::vector<ServiceResult> ok_results;
};

/// `base_seed` seeds the service; the rung's request targets are drawn
/// from the pool with a stream of the base seed and the rate.
Rung RunRung(const World& w, double rate, double seconds, uint64_t base_seed,
             Tracer* tracer) {
  Rung rung;
  Rng draws(base_seed + static_cast<uint64_t>(rate));
  rung.rate = rate;
  AttackServiceConfig cfg;
  cfg.base_seed = base_seed;
  cfg.num_threads = kServiceThreads;
  cfg.wave_size = kWaveSize;
  cfg.queue_capacity = kQueueCapacity;
  AttackService service(cfg);
  GEA_CHECK(service.RegisterGraph("g", w.data, *w.model, w.attack).ok());

  const int64_t n = std::max<int64_t>(1, std::llround(rate * seconds));
  const double warmup_ms = 1000.0 * seconds * kWarmupShare;
  const double end_ms = 1000.0 * seconds;
  std::vector<int64_t> tickets;
  std::vector<double> submit_at;
  std::vector<double> due_at;
  std::vector<size_t> pool_index;
  std::vector<double> depth;
  const double t0 = NowMs() + 5.0;
  for (int64_t i = 0; i < n; ++i) {
    const double due = t0 + 1000.0 * static_cast<double>(i) / rate;
    SleepUntil(due);
    const double start = NowMs();
    rung.max_late_ms = std::max(rung.max_late_ms, start - due);
    const size_t p =
        static_cast<size_t>(draws.UniformInt(0, std::ssize(w.pool) - 1));
    AttackServiceRequest req;
    req.graph = "g";
    req.target_node = w.pool[p].target_node;
    req.target_label = w.pool[p].target_label;
    req.budget = w.pool[p].budget;
    Admission a;
    {
      ScopedSpan s(tracer, "service.submit", i);
      a = service.Submit(req);
    }
    depth.push_back(static_cast<double>(service.stats().queue_depth));
    ++rung.offered;
    if (!a.status.ok()) {
      ++rung.refused;
      continue;
    }
    tickets.push_back(a.ticket);
    submit_at.push_back(start);
    due_at.push_back(due);
    pool_index.push_back(p);
  }
  service.Drain();
  double last_done = t0;
  int64_t steady_ok = 0;
  for (size_t k = 0; k < tickets.size(); ++k) {
    ServiceResult r = service.Take(tickets[k]);
    if (!r.result.status.ok()) {
      ++rung.not_ok;
      continue;
    }
    ++rung.ok;
    const double done = submit_at[k] + r.latency_ms;
    last_done = std::max(last_done, done);
    if (done - t0 >= warmup_ms && done - t0 < end_ms) ++steady_ok;
    const size_t second = static_cast<size_t>(std::max(0.0, done - t0) / 1e3);
    if (rung.ok_per_s.size() <= second) rung.ok_per_s.resize(second + 1, 0.0);
    rung.ok_per_s[second] += 1.0;
    if (due_at[k] - t0 >= warmup_ms) {
      rung.lat_ms.push_back(done - due_at[k]);
      rung.lat_result.push_back(rung.ok_results.size());
    }
    rung.ok_requests.push_back(w.pool[pool_index[k]]);
    rung.ok_results.push_back(std::move(r));
  }
  rung.stats = service.stats();
  rung.wall_ms = last_done - t0;
  rung.goodput =
      static_cast<double>(steady_ok) / ((end_ms - warmup_ms) / 1000.0);
  // A growing backlog: the queue is deeper over the rung's last quarter
  // than over its first by more than one wave.
  const size_t q = depth.size() / 4;
  if (q > 0) {
    const std::vector<double> first(depth.begin(),
                                    depth.begin() + static_cast<long>(q));
    const std::vector<double> last(depth.end() - static_cast<long>(q),
                                   depth.end());
    rung.backlog_growing =
        Median(last) > Median(first) + static_cast<double>(kWaveSize);
  }
  return rung;
}

/// Every ok completion replays bit-identically offline from its recorded
/// seed and budget (one driver call over the whole rung).
bool ReplaysMatch(const World& w, const Rung& rung) {
  if (rung.ok_results.empty()) return true;
  std::vector<AttackRequest> reqs;
  AttackDriverConfig cfg;
  cfg.num_threads = 4;
  for (size_t k = 0; k < rung.ok_results.size(); ++k) {
    AttackRequest r = rung.ok_requests[k];
    r.budget = rung.ok_results[k].effective_budget;
    reqs.push_back(r);
    cfg.request_seeds.push_back(rung.ok_results[k].seed);
  }
  const std::vector<AttackResult> replay =
      RunMultiTargetAttack(w.ctx, *w.attack, reqs, cfg);
  for (size_t k = 0; k < replay.size(); ++k)
    if (!replay[k].status.ok() ||
        !SameEdges(replay[k].added_edges,
                   rung.ok_results[k].result.added_edges))
      return false;
  return true;
}

JsonObject RungJson(const Rung& r) {
  const Tail tail = TailOf(r.lat_ms);
  JsonObject j;
  j.Num("rate_per_s", r.rate)
      .Int("offered", r.offered)
      .Int("refused", r.refused)
      .Int("ok", r.ok)
      .Int("not_ok", r.not_ok)
      .Int("shed", r.stats.shed)
      .Num("lat_p50_ms", Median(r.lat_ms))
      .Num("lat_tail_ms", tail.value)
      .Num("lat_tail_percentile", tail.percentile)
      .Int("lat_n", tail.n)
      .Num("goodput_per_s", r.goodput)
      .Num("max_late_ms", r.max_late_ms)
      .Int("max_queue_depth", r.stats.max_queue_depth)
      .Bool("backlog_growing", r.backlog_growing)
      .Num("wall_ms", r.wall_ms)
      .Raw("ok_per_s", JsonArray([&] {
             std::vector<std::string> v;
             for (const double c : r.ok_per_s) v.push_back(JsonNumber(c));
             return v;
           }()));
  return j;
}

}  // namespace

void RunService(const Options& o, Tracer* tracer, Output* out) {
  const int repeats = o.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_ms;
  std::unique_ptr<World> w;
  for (int k = 0; k < repeats; ++k) {
    w.reset();
    const double t0 = NowMs();
    w = BuildWorld(o, tracer, out);
    setup_ms.push_back(NowMs() - t0);
  }
  out->Check("service.has_pool", !w->pool.empty());
  if (w->pool.empty()) return;

  const uint64_t base_seed = o.seed ^ kServiceSalt;
  const bool traced = tracer->enabled();
  const std::span<const double[2]> ladder =
      traced ? std::span<const double[2]>(kTracedLadder)
             : std::span<const double[2]>(kTimedLadder);
  double shares = 0.0;
  for (const auto& step : ladder) shares += step[1];

  // In the traced run, the nominal rung first runs untraced: the
  // difference to its traced twin is the tracing overhead.
  double untraced_p50 = 0.0;
  if (traced) {
    tracer->set_enabled(false);
    untraced_p50 = Median(RunRung(*w, kNominalRate,
                                  o.seconds * 2.0 / shares, base_seed, tracer)
                              .lat_ms);
    tracer->set_enabled(true);
  }

  std::vector<Rung> rungs;
  for (const auto& step : ladder)
    rungs.push_back(RunRung(*w, step[0], o.seconds * step[1] / shares,
                            base_seed, tracer));
  const double peak_rss = ProcStatusMb("VmHWM:");

  const Rung* nominal = nullptr;
  const Rung* overload = nullptr;
  double max_rate = 0.0;
  double max_late = 0.0;
  std::vector<std::string> rows;
  for (const Rung& r : rungs) {
    rows.push_back(RungJson(r).str());
    max_late = std::max(max_late, r.max_late_ms);
    out->attempted += r.offered;
    if (r.rate >= kOverloadRate) {
      overload = &r;
      out->failed_ops += r.not_ok - r.stats.shed;  // Shedding is expected.
      continue;
    }
    if (r.rate == kNominalRate) {
      nominal = &r;
      out->failed_ops += r.refused + r.not_ok;
    } else {
      // The knee probe: refusals there are what it looks for.
      out->failed_ops += r.not_ok;
    }
    if (r.refused == 0 && r.not_ok == 0 && !r.backlog_growing &&
        TailOf(r.lat_ms).value <= kTailLimitMs)
      max_rate = std::max(max_rate, r.rate);
  }
  GEA_CHECK(nominal != nullptr && overload != nullptr);

  bool replays = true;
  for (const Rung& r : rungs) replays = replays && ReplaysMatch(*w, r);
  out->Check("service.replays_bit_identical", replays);
  out->Check("service.nominal_has_results", nominal->ok > 0);
  out->Check("service.overload_has_results", overload->ok > 0);

  out->record()
      .Int("nodes", w->data.num_nodes())
      .Int("edges", w->data.graph.num_edges())
      .Int("features", w->data.feature_dim())
      .Int("pool", std::ssize(w->pool))
      .Int("service_threads", kServiceThreads)
      .Int("wave_size", kWaveSize)
      .Int("queue_capacity", kQueueCapacity)
      .Num("tail_limit_ms", kTailLimitMs)
      .Num("max_rate_per_s", max_rate)
      .Raw("ladder", JsonArray(rows));

  if (!o.trace) {
    out->Set("setup_s", Median(setup_ms) / 1000.0);
    out->Set("targets_per_s", overload->goodput);
    out->Set("lat_p50_ms", Median(nominal->lat_ms));
    out->Set("peak_rss_mb", peak_rss);
    return;
  }

  // ----- Traced: per-request queue wait, stats, probes. -----
  // Queue wait = due-to-result latency minus the same request's attack
  // time, replayed serially on one thread.
  std::vector<double> wait_ms;
  for (size_t j = 0; j < nominal->lat_ms.size(); ++j) {
    const size_t k = nominal->lat_result[j];
    AttackDriverConfig cfg;
    cfg.request_seeds = {nominal->ok_results[k].seed};
    const double a0 = NowMs();
    {
      ScopedSpan s(tracer, "attack.fga_t", static_cast<int64_t>(k));
      const std::vector<AttackResult> r = RunMultiTargetAttack(
          w->ctx, *w->attack, {nominal->ok_requests[k]}, cfg);
      (void)r;
    }
    wait_ms.push_back(nominal->lat_ms[j] - (NowMs() - a0));
  }
  const double traced_p50 = Median(nominal->lat_ms);
  out->Set("service.request_ms_p50", traced_p50);
  out->Set("service.queue_wait_ms_p50", Median(wait_ms));
  out->Set("service.queue_wait_ms_tail", TailOf(wait_ms).value);
  out->Set("service.max_queue_depth",
           static_cast<double>(overload->stats.max_queue_depth));
  out->Set("service.rejected",
           static_cast<double>(overload->stats.rejected_queue_full));
  out->Set("service.shed", static_cast<double>(overload->stats.shed));
  out->Set("service.requeued_stale",
           static_cast<double>(overload->stats.requeued_stale));
  out->Set("service.gen_late_ms", max_late);
  out->Set("service.max_rate_per_s", max_rate);
  out->Set("trace.overhead_share", traced_p50 / untraced_p50 - 1.0);

  std::vector<AttackRequest> probes(
      w->pool.begin(),
      w->pool.begin() + std::min<std::ptrdiff_t>(5, std::ssize(w->pool)));
  ProbeLayers(w->ctx, probes, kServiceThreads, kWaveSize, tracer, out);

  // The inspect steps and one churn epoch on this graph, for the layers
  // the request path does not call.
  GnnExplainerConfig ecfg;
  ecfg.epochs = 50;
  const GnnExplainer explainer(w->model.get(), &w->data.features, ecfg);
  EvalConfig ec;
  ec.sparse = true;
  ec.defend = true;
  std::vector<PreparedTarget> targets;
  std::vector<std::vector<Edge>> picks;
  for (size_t k = 0; k < nominal->ok_results.size() && k < 5; ++k) {
    const AttackRequest& r = nominal->ok_requests[k];
    targets.push_back({r.target_node,
                       w->data.labels[static_cast<size_t>(r.target_node)],
                       r.target_label, r.budget});
    picks.push_back(nominal->ok_results[k].result.added_edges);
  }
  std::vector<double> pruned;
  InspectSteps(w->ctx, explainer, ec, targets, picks, tracer, &pruned);
  out->Set("defense.pruned_edges", Median(pruned));
}

}  // namespace perfbench
