// Workload `live`: a ~100k-node graph under churn on a WAL-journaled
// AttackService with 2 workers.
//
// The generator (the main thread) keeps a fixed open-loop schedule of
// UpdateGraph calls — 4 per second, each a 16-edge ChurnBatch (12 adds of
// new edges, 4 removals of original edges) — and, beside them, a closed
// loop of whole-graph FgaAttack(true) reads with budget 2: one read
// outstanding, the next submitted as soon as the last one finished.  The
// first kWarmupS seconds (first-touch of the 100k-node structures, the
// first epochs' allocations) run the same load but feed no metric.
//
// As protocol's Cora, the graph, the trained GCN and the 16 read targets
// are fixed (kGraphSeed); --seed draws the churn plan and the order in
// which the reads cycle their targets.  A whole-graph read's cost depends
// on the drawn graph, which moved the read rate by a fifth between seeds.
//
// Checks: every update and read is ok; every epoch's normalized CSR equals
// a from-scratch MakeSparseAttackContext of the churned graph; every read
// replays bit-identically at its recorded epoch on a freshly built context.

#include <unistd.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <thread>

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
constexpr int kSetupRepeats = 3;
constexpr double kUpdateRate = 4.0;  // UpdateGraph calls per second.
constexpr int64_t kAddsPerBatch = 12;
constexpr int64_t kRemovesPerBatch = 4;
constexpr int64_t kReadPool = 16;
constexpr int64_t kReadBudget = 2;
constexpr int kReplayThreads = 3;
constexpr double kWarmupS = 2.0;
constexpr uint64_t kLiveSalt = 0x11feull;
constexpr uint64_t kGraphSeed = 1;

struct World {
  GraphData data;
  std::unique_ptr<Gcn> model;
  std::vector<AttackRequest> reads;
  std::vector<ChurnBatch> plan;
  std::shared_ptr<const TargetedAttack> attack =
      std::make_shared<FgaAttack>(/*targeted=*/true);
  std::unique_ptr<AttackService> service;  // Destroyed first.
};

/// `batches` valid batches in order: adds are pairs absent from the
/// original graph and never added before; removals are original edges
/// never removed before, so each batch stays valid after its predecessors.
std::vector<ChurnBatch> MakePlan(const Graph& g, int64_t batches, Rng* rng) {
  std::set<std::pair<int64_t, int64_t>> added;
  std::set<std::pair<int64_t, int64_t>> removed;
  const int64_t n = g.num_nodes();
  std::vector<ChurnBatch> plan(static_cast<size_t>(batches));
  for (ChurnBatch& batch : plan) {
    while (std::ssize(batch.added) < kAddsPerBatch) {
      const int64_t u = rng->UniformInt(0, n - 1);
      const int64_t v = rng->UniformInt(0, n - 1);
      if (u == v || g.HasEdge(u, v)) continue;
      if (!added.insert(std::minmax(u, v)).second) continue;
      batch.added.push_back({u, v, 1.0});
    }
    while (std::ssize(batch.removed) < kRemovesPerBatch) {
      const int64_t u = rng->UniformInt(0, n - 1);
      if (g.Degree(u) < 2) continue;
      const std::set<int64_t>& nb = g.Neighbors(u);
      const int64_t v = *std::next(
          nb.begin(),
          static_cast<long>(rng->UniformInt(0, std::ssize(nb) - 1)));
      if (g.Degree(v) < 2) continue;
      if (!removed.insert(std::minmax(u, v)).second) continue;
      batch.removed.push_back({u, v, 1.0});
    }
  }
  return plan;
}

std::unique_ptr<World> BuildWorld(const Options& o, const std::string& wal,
                                  Tracer* tracer, Output* out) {
  auto w = std::make_unique<World>();
  Rng rng(kGraphSeed);
  CitationGraphConfig cfg;
  cfg.num_nodes = o.smoke ? 2000 : 100000;
  cfg.num_edges = 3 * cfg.num_nodes;
  cfg.num_classes = 5;
  cfg.feature_dim = 32;
  {
    ScopedSpan s(tracer, "graph.generate");
    w->data = KeepLargestConnectedComponent(GenerateCitationGraph(cfg, &rng));
  }
  const Split split = MakeSplit(w->data, 0.1, 0.1, &rng);
  TrainConfig tc;
  tc.epochs = 3;
  tc.patience = 0;
  const bool reset = tracer->enabled() && ResetPeakRss();
  {
    ScopedSpan s(tracer, "nn.train");
    w->model = std::make_unique<Gcn>(TrainNewGcn(w->data, split, tc, &rng));
  }
  if (reset) out->Set("nn.train.rss_mb", ProcStatusMb("VmHWM:"));
  for (const int64_t node : split.test) {
    if (std::ssize(w->reads) >= kReadPool) break;
    if (w->data.graph.Degree(node) < 2) continue;
    const int64_t label = w->data.labels[static_cast<size_t>(node)];
    w->reads.push_back({node, (label + 1) % w->data.num_classes, kReadBudget});
  }
  Rng draws(o.seed ^ kLiveSalt);
  draws.Shuffle(&w->reads);
  const int64_t batches =
      static_cast<int64_t>(std::ceil((o.seconds + kWarmupS) * kUpdateRate)) +
      8;
  w->plan = MakePlan(w->data.graph, batches, &draws);

  AttackServiceConfig scfg;
  scfg.base_seed = o.seed ^ kLiveSalt;
  scfg.num_threads = kServiceThreads;
  scfg.journal_path = wal;
  std::remove(wal.c_str());
  w->service = std::make_unique<AttackService>(scfg);
  {
    ScopedSpan s(tracer, "service.register");
    GEA_CHECK(
        w->service->RegisterGraph("live", w->data, *w->model, w->attack).ok());
  }
  GEA_CHECK(w->service->Recover().status.ok());
  return w;
}

struct Read {
  AttackRequest request;
  ServiceResult result;
};

struct Phase {
  std::vector<double> update_ms;  ///< After the warm-up.
  std::vector<double> late_ms;
  std::vector<double> read_ms;  ///< Reads submitted after the warm-up.
  int64_t updates = 0;
  int64_t updates_failed = 0;
  int64_t reads_failed = 0;
  double wall_ms = 0.0;
  std::vector<Read> reads;  ///< Ok reads.
  std::vector<std::pair<int64_t, uint64_t>> epoch_digest;
};

int64_t Finalized(const AttackService& s) {
  const ServiceStats st = s.stats();
  return st.completed_ok + st.failed + st.timed_out + st.skipped + st.shed;
}

Phase RunPhase(World& w, double warmup_s, double seconds, size_t* next_batch,
               size_t* next_read, Tracer* tracer) {
  Phase ph;
  AttackService& svc = *w.service;
  const double period = 1000.0 / kUpdateRate;
  const double t0 = NowMs() + 5.0;
  const double measured = t0 + 1000.0 * warmup_s;
  const double end = measured + 1000.0 * seconds;
  int64_t k = 0;
  int64_t ticket = -1;
  int64_t finalized_before = 0;
  double submitted_at = 0.0;
  AttackRequest current;
  while (true) {
    const double now = NowMs();
    const double due = t0 + static_cast<double>(k) * period;
    if (due <= now && due < end && *next_batch < w.plan.size()) {
      ph.late_ms.push_back(now - due);
      ChurnResult cr;
      {
        ScopedSpan s(tracer, "service.update",
                     static_cast<int64_t>(*next_batch));
        cr = svc.UpdateGraph("live", w.plan[*next_batch]);
      }
      if (due >= measured) ph.update_ms.push_back(NowMs() - now);
      ++*next_batch;
      ++k;
      ++ph.updates;
      if (!cr.status.ok()) {
        ++ph.updates_failed;
        continue;
      }
      ph.epoch_digest.emplace_back(
          cr.epoch, CsrDigest(svc.CurrentSnapshot("live")->ctx.clean_norm_csr));
      continue;
    }
    if (ticket >= 0 && Finalized(svc) > finalized_before) {
      ServiceResult r = svc.Take(ticket);
      ticket = -1;
      if (r.result.status.ok()) {
        if (submitted_at >= measured) ph.read_ms.push_back(r.latency_ms);
        ph.reads.push_back({current, std::move(r)});
      } else {
        ++ph.reads_failed;
      }
    }
    if (ticket < 0) {
      if (now >= end) break;
      current = w.reads[*next_read % w.reads.size()];
      ++*next_read;
      AttackServiceRequest req;
      req.graph = "live";
      req.target_node = current.target_node;
      req.target_label = current.target_label;
      req.budget = current.budget;
      finalized_before = Finalized(svc);
      submitted_at = now;
      Admission a;
      {
        ScopedSpan s(tracer, "service.submit",
                     static_cast<int64_t>(*next_read));
        a = svc.Submit(req);
      }
      if (a.status.ok()) ticket = a.ticket;
      else ++ph.reads_failed;
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  ph.wall_ms = NowMs() - measured;
  return ph;
}

/// Rebuilds every epoch from the plan on a fresh context: its normalized
/// CSR must match the recorded digest, and every read recorded at it must
/// replay with the same picks.  Replays run kReplayThreads at a time, each
/// on its own copy of the epoch's graph.
void CheckEpochs(const World& w, const Phase& all, Tracer* tracer,
                 Output* out) {
  std::map<int64_t, uint64_t> digest(all.epoch_digest.begin(),
                                     all.epoch_digest.end());
  std::map<int64_t, std::vector<const Read*>> reads_at;
  int64_t last = 0;
  for (const Read& r : all.reads) {
    reads_at[r.result.epoch].push_back(&r);
    last = std::max(last, r.result.epoch);
  }
  for (const auto& [e, d] : digest) last = std::max(last, e);

  struct Task {
    std::shared_ptr<const GraphData> data;
    const Read* read;
    bool ok = false;
  };
  std::vector<Task> tasks;
  int64_t replay_failures = 0;
  const auto flush = [&] {
    std::vector<std::thread> threads;
    for (Task& t : tasks) {
      threads.emplace_back([&w, &t] {
        const AttackContext ctx = MakeSparseAttackContext(*t.data, *w.model);
        AttackDriverConfig cfg;
        cfg.request_seeds = {t.read->result.seed};
        AttackRequest req = t.read->request;
        req.budget = t.read->result.effective_budget;
        const std::vector<AttackResult> r =
            RunMultiTargetAttack(ctx, *w.attack, {req}, cfg);
        t.ok = r[0].status.ok() &&
               SameEdges(r[0].added_edges, t.read->result.result.added_edges);
      });
    }
    for (std::thread& th : threads) th.join();
    for (const Task& t : tasks) replay_failures += t.ok ? 0 : 1;
    tasks.clear();
  };

  GraphData work = w.data;
  int64_t digest_failures = 0;
  for (int64_t e = 0; e <= last; ++e) {
    if (e > 0) {
      const ChurnBatch& b = w.plan[static_cast<size_t>(e - 1)];
      for (const ChurnEdge& c : b.added) work.graph.AddEdge(c.u, c.v);
      for (const ChurnEdge& c : b.removed) work.graph.RemoveEdge(c.u, c.v);
    }
    const auto d = digest.find(e);
    if (d != digest.end()) {
      AttackContext ctx;
      {
        ScopedSpan s(tracer, "graph.ctx_build", e);
        ctx = MakeSparseAttackContext(work, *w.model);
      }
      if (CsrDigest(ctx.clean_norm_csr) != d->second) ++digest_failures;
    }
    const auto r = reads_at.find(e);
    if (r == reads_at.end()) continue;
    const auto copy = std::make_shared<const GraphData>(work);
    for (const Read* read : r->second) {
      tasks.push_back({copy, read, false});
      if (std::ssize(tasks) >= kReplayThreads) flush();
    }
  }
  flush();
  out->Check("live.epoch_csr_matches_rebuild", digest_failures == 0,
             std::to_string(digest_failures) + " of " +
                 std::to_string(digest.size()) + " epochs differ");
  out->Check("live.reads_replay_at_epoch", replay_failures == 0,
             std::to_string(replay_failures) + " of " +
                 std::to_string(all.reads.size()) + " reads differ");
}

void Append(Phase* into, Phase&& from) {
  const auto cat = [](auto* a, auto& b) {
    a->insert(a->end(), std::make_move_iterator(b.begin()),
              std::make_move_iterator(b.end()));
  };
  cat(&into->update_ms, from.update_ms);
  cat(&into->late_ms, from.late_ms);
  cat(&into->read_ms, from.read_ms);
  cat(&into->reads, from.reads);
  cat(&into->epoch_digest, from.epoch_digest);
  into->updates += from.updates;
  into->updates_failed += from.updates_failed;
  into->reads_failed += from.reads_failed;
  into->wall_ms += from.wall_ms;
}

}  // namespace

void RunLive(const Options& o, Tracer* tracer, Output* out) {
  const std::string wal =
      o.out_dir + "/live-" + std::to_string(::getpid()) + ".wal";
  const int repeats = o.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_ms;
  std::unique_ptr<World> w;
  for (int k = 0; k < repeats; ++k) {
    w.reset();
    const double t0 = NowMs();
    w = BuildWorld(o, wal, tracer, out);
    setup_ms.push_back(NowMs() - t0);
  }
  out->Check("live.has_reads", !w->reads.empty());
  if (w->reads.empty()) return;

  size_t next_batch = 0;
  size_t next_read = 0;
  Phase all;
  double untraced_p50 = 0.0;
  double traced_p50 = 0.0;
  if (!o.trace) {
    Append(&all, RunPhase(*w, kWarmupS, o.seconds, &next_batch, &next_read,
                          tracer));
  } else {
    // Half the window untraced, half traced: the tracing overhead.
    tracer->set_enabled(false);
    Phase plain = RunPhase(*w, kWarmupS, o.seconds / 2.0, &next_batch,
                           &next_read, tracer);
    untraced_p50 = Median(plain.update_ms);
    Append(&all, std::move(plain));
    tracer->set_enabled(true);
    const bool reset = ResetPeakRss();
    Phase traced = RunPhase(*w, 0.0, o.seconds / 2.0, &next_batch,
                            &next_read, tracer);
    if (reset) out->Set("service.churn.rss_mb", ProcStatusMb("VmHWM:"));
    traced_p50 = Median(traced.update_ms);
    Append(&all, std::move(traced));
  }
  w->service->Drain();
  const double peak_rss = ProcStatusMb("VmHWM:");
  const ServiceStats stats = w->service->stats();

  out->attempted = all.updates + std::ssize(all.reads) + all.reads_failed;
  out->failed_ops = all.updates_failed + all.reads_failed;
  out->Check("live.updates_ok", all.updates_failed == 0 && all.updates > 0);
  out->Check("live.reads_ok", all.reads_failed == 0 && !all.reads.empty());
  CheckEpochs(*w, all, tracer, out);

  const Tail update_tail = TailOf(all.update_ms);
  const Tail read_tail = TailOf(all.read_ms);
  double max_late = 0.0;
  for (const double l : all.late_ms) max_late = std::max(max_late, l);
  out->record()
      .Int("nodes", w->data.num_nodes())
      .Int("edges", w->data.graph.num_edges())
      .Int("features", w->data.feature_dim())
      .Int("service_threads", kServiceThreads)
      .Num("update_rate_per_s", kUpdateRate)
      .Int("batch_edges", kAddsPerBatch + kRemovesPerBatch)
      .Int("updates", all.updates)
      .Num("update_p50_ms", Median(all.update_ms))
      .Num("update_tail_ms", update_tail.value)
      .Num("update_tail_percentile", update_tail.percentile)
      .Int("update_n", update_tail.n)
      .Int("reads", std::ssize(all.reads))
      .Int("reads_measured", std::ssize(all.read_ms))
      .Num("reads_per_wall_s",
           static_cast<double>(all.read_ms.size()) / (all.wall_ms / 1000.0))
      .Num("read_p50_ms", Median(all.read_ms))
      .Num("read_tail_ms", read_tail.value)
      .Num("read_tail_percentile", read_tail.percentile)
      .Num("gen_max_late_ms", max_late)
      .Int("requeued_stale", stats.requeued_stale)
      .Int("max_queue_depth", stats.max_queue_depth);

  if (!o.trace) {
    // One read is outstanding at a time, so the read rate is the
    // reciprocal of the read latency; its median keeps one slow read (or
    // one read more or less in the window) from moving the rate.
    out->Set("setup_s", Median(setup_ms) / 1000.0);
    out->Set("targets_per_s", 1000.0 / Median(all.read_ms));
    out->Set("lat_p50_ms", Median(all.update_ms));
    out->Set("peak_rss_mb", peak_rss);
    std::remove(wal.c_str());
    return;
  }

  out->Set("service.request_ms_p50", Median(all.read_ms));
  out->Set("service.max_queue_depth",
           static_cast<double>(stats.max_queue_depth));
  out->Set("service.rejected", static_cast<double>(stats.rejected_queue_full));
  out->Set("service.shed", static_cast<double>(stats.shed));
  out->Set("service.requeued_stale", static_cast<double>(stats.requeued_stale));
  out->Set("service.gen_late_ms", max_late);
  out->Set("trace.overhead_share", traced_p50 / untraced_p50 - 1.0);

  // Write-path probes on the current snapshot with the plan's next
  // batches: renormalization alone, then whole epochs kept alive to
  // measure what each retained GraphSnapshot costs in RSS.
  const std::shared_ptr<const GraphSnapshot> snap =
      w->service->CurrentSnapshot("live");
  const size_t probes = std::min<size_t>(3, w->plan.size() - next_batch);
  for (size_t j = 0; j < probes; ++j) {
    const ChurnBatch& b = w->plan[next_batch + j];
    ScopedSpan s(tracer, "graph.renorm", static_cast<int64_t>(j));
    const CsrMatrix renorm = GcnRenormalizeAfterFlips(
        snap->ctx.clean_norm_csr, snap->ctx.clean_degp1,
        ChurnEdgesOf(b.added), ChurnEdgesOf(b.removed));
    (void)renorm;
  }
  std::vector<std::shared_ptr<const GraphSnapshot>> kept = {snap};
  const double rss0 = ProcStatusMb("VmRSS:");
  for (size_t j = 0; j < probes; ++j) {
    ScopedSpan s(tracer, "service.apply_churn", static_cast<int64_t>(j));
    kept.push_back(ApplyChurn(kept.back(), w->plan[next_batch + j]));
  }
  if (probes > 0)
    out->Set("service.epoch_mb", (ProcStatusMb("VmRSS:") - rss0) /
                                     static_cast<double>(probes));
  kept.resize(1);

  std::vector<AttackRequest> reqs(
      w->reads.begin(),
      w->reads.begin() + std::min<std::ptrdiff_t>(2, std::ssize(w->reads)));
  ProbeLayers(snap->ctx, reqs, kServiceThreads, 8, tracer, out);
  GnnExplainerConfig ecfg;
  ecfg.epochs = 50;
  const GnnExplainer explainer(snap->model.get(), &snap->data.features, ecfg);
  EvalConfig ec;
  ec.sparse = true;
  ec.defend = true;
  std::vector<PreparedTarget> targets;
  std::vector<std::vector<Edge>> picks;
  for (const AttackRequest& r : reqs) {
    Rng rng(0);
    targets.push_back({r.target_node,
                       snap->data.labels[static_cast<size_t>(r.target_node)],
                       r.target_label, r.budget});
    picks.push_back(w->attack->Attack(snap->ctx, r, &rng).added_edges);
  }
  std::vector<double> pruned;
  InspectSteps(snap->ctx, explainer, ec, targets, picks, tracer, &pruned);
  out->Set("defense.pruned_edges", Median(pruned));
  std::remove(wal.c_str());
}

}  // namespace perfbench
