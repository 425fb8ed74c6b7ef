// Live-graph churn tests, pinning the tentpole contracts of the
// epoch-versioned service (src/service/graph_snapshot.h,
// src/service/attack_service.h):
//
//   * churn admission is all-or-nothing — one malformed entry rejects the
//     whole batch with kInvalidArgument and ZERO mutation;
//   * ApplyChurn's incrementally maintained snapshot is bit-identical,
//     field by field, to a context built from scratch on the churned graph
//     (and GcnRenormalizeAfterFlips to a fresh GcnNormalizeCsr directly);
//   * an in-flight wave finishes on its dispatch snapshot — picks equal an
//     offline driver replay against the OLD epoch, while post-churn work
//     matches the NEW epoch;
//   * ball-overlap invalidation: churn outside a queued target's augmented
//     ball keeps its pin AND its picks (old == new epoch, verified by
//     replaying on both), churn inside the ball re-pins it;
//   * WAL recovery is byte-identical: a fresh service replaying the journal
//     serves every completed result bit-for-bit, and a torn tail — or a
//     complete record failing its CRC, reported as kDataLoss — turns
//     exactly the lost ticket back into pending work that recomputes to the
//     same bits.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/attack/driver.h"
#include "src/attack/fault_injection.h"
#include "src/attack/fga.h"
#include "src/core/geattack.h"
#include "src/eval/pipeline.h"
#include "src/eval/protocol.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/nn/trainer.h"
#include "src/service/attack_service.h"
#include "src/service/graph_snapshot.h"
#include "src/tensor/csr.h"
#include "src/tensor/random.h"

namespace geattack {
namespace {

struct Fixture {
  GraphData data;
  std::unique_ptr<Gcn> model;
  AttackContext ctx;
  std::vector<PreparedTarget> targets;
  std::vector<AttackRequest> requests;
};

Fixture* SharedFixture() {
  static Fixture* fixture = [] {
    auto* f = new Fixture();
    Rng rng(913);
    CitationGraphConfig cfg;
    cfg.num_nodes = 90;
    cfg.num_edges = 240;
    cfg.num_classes = 3;
    cfg.feature_dim = 32;
    f->data = KeepLargestConnectedComponent(GenerateCitationGraph(cfg, &rng));
    Split split = MakeSplit(f->data, 0.1, 0.1, &rng);
    TrainConfig tc;
    tc.epochs = 40;
    f->model = std::make_unique<Gcn>(TrainNewGcn(f->data, split, tc, &rng));
    f->ctx = MakeAttackContext(f->data, *f->model);
    const Tensor logits =
        f->model->LogitsFromRaw(f->ctx.clean_adjacency, f->data.features);
    auto nodes = SelectTargetNodes(
        f->data, logits, split.test,
        {.top_margin = 4, .bottom_margin = 4, .random = 4}, &rng);
    f->targets = PrepareTargets(f->ctx, nodes, &rng);
    for (const PreparedTarget& t : f->targets)
      f->requests.push_back(
          {t.node, t.target_label, std::min<int64_t>(t.budget, 2)});
    return f;
  }();
  return fixture;
}

/// Non-owning shared_ptr over a test-scoped attack.
std::shared_ptr<const TargetedAttack> NoOwn(const TargetedAttack* attack) {
  return std::shared_ptr<const TargetedAttack>(
      std::shared_ptr<const TargetedAttack>(), attack);
}

void ExpectSameEdges(const AttackResult& got, const AttackResult& want,
                     const std::string& where) {
  ASSERT_EQ(got.added_edges.size(), want.added_edges.size()) << where;
  for (size_t e = 0; e < want.added_edges.size(); ++e)
    EXPECT_EQ(got.added_edges[e], want.added_edges[e]) << where << " edge "
                                                       << e;
}

/// Bitwise CSR equality: pattern vectors and value doubles must be the
/// exact same bits, not merely close.
void ExpectSameCsr(const CsrMatrix& got, const CsrMatrix& want,
                   const std::string& where) {
  ASSERT_FALSE(got.empty()) << where;
  ASSERT_FALSE(want.empty()) << where;
  EXPECT_EQ(got.pattern()->rows, want.pattern()->rows) << where;
  EXPECT_EQ(got.pattern()->cols, want.pattern()->cols) << where;
  EXPECT_EQ(got.pattern()->row_ptr, want.pattern()->row_ptr) << where;
  EXPECT_EQ(got.pattern()->col_idx, want.pattern()->col_idx) << where;
  EXPECT_EQ(got.values(), want.values()) << where;
}

/// Replays one completed ServiceResult offline from its recorded seed and
/// effective budget against an explicit context — the reconciliation path
/// that lets a caller check WHICH epoch a result was computed at.
AttackResult ReplayOne(const AttackContext& ctx, const TargetedAttack& attack,
                       int64_t target_node, int64_t target_label,
                       const ServiceResult& r) {
  AttackRequest request;
  request.target_node = target_node;
  request.target_label = target_label;
  request.budget = r.effective_budget;
  AttackDriverConfig cfg;
  cfg.request_seeds = {r.seed};
  const std::vector<AttackResult> out =
      RunMultiTargetAttack(ctx, attack, {request}, cfg);
  EXPECT_EQ(out.size(), 1u);
  return out.empty() ? AttackResult{} : out[0];
}

/// Blocks until the dispatcher has picked up the parked slow wave.
void WaitUntilWaveInFlight(const AttackService& service) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const ServiceStats st = service.stats();
    if (st.in_flight > 0 && st.queue_depth == 0) return;
    if (std::chrono::steady_clock::now() > give_up) {
      ADD_FAILURE() << "dispatcher never picked up the parked wave";
      return;
    }
    std::this_thread::yield();
  }
}

/// First `count` absent (u, v) pairs — valid churn additions.
std::vector<Edge> AbsentEdges(const Graph& g, size_t count) {
  std::vector<Edge> out;
  for (int64_t u = 0; u < g.num_nodes() && out.size() < count; ++u)
    for (int64_t v = u + 1; v < g.num_nodes() && out.size() < count; ++v)
      if (!g.HasEdge(u, v)) out.emplace_back(u, v);
  return out;
}

/// `count` present edges with pairwise-disjoint endpoints of degree >= 2,
/// so removing all of them never strands a node.
std::vector<Edge> RemovableEdges(const Graph& g, size_t count) {
  std::vector<Edge> out;
  std::vector<char> used(static_cast<size_t>(g.num_nodes()), 0);
  for (int64_t u = 0; u < g.num_nodes() && out.size() < count; ++u) {
    if (used[static_cast<size_t>(u)] != 0 || g.Degree(u) < 2) continue;
    for (int64_t v = u + 1; v < g.num_nodes(); ++v) {
      if (used[static_cast<size_t>(v)] == 0 && g.HasEdge(u, v) &&
          g.Degree(v) >= 2) {
        out.emplace_back(u, v);
        used[static_cast<size_t>(u)] = 1;
        used[static_cast<size_t>(v)] = 1;
        break;
      }
    }
  }
  return out;
}

ChurnBatch BatchOf(const std::vector<Edge>& adds,
                   const std::vector<Edge>& rems) {
  ChurnBatch batch;
  for (const Edge& e : adds) batch.added.push_back({e.u, e.v, 1.0});
  for (const Edge& e : rems) batch.removed.push_back({e.u, e.v, 1.0});
  return batch;
}

/// `next` = ApplyChurn(`prev`, adds/rems): every derived field must be the
/// exact bits a from-scratch context build on `churned` produces, the Graph
/// mirror must have advanced, and `prev` must not have moved.
void ExpectMatchesFreshContext(const GraphSnapshot& prev,
                               const GraphSnapshot& next,
                               const GraphData& churned, const Gcn& model,
                               const std::vector<Edge>& adds,
                               const std::vector<Edge>& rems) {
  const AttackContext fresh = MakeSparseAttackContext(churned, model);
  ExpectSameCsr(next.ctx.clean_csr, fresh.clean_csr, "clean_csr");
  ExpectSameCsr(next.ctx.clean_norm_csr, fresh.clean_norm_csr,
                "clean_norm_csr");
  EXPECT_EQ(next.ctx.clean_degp1.data(), fresh.clean_degp1.data())
      << "clean_degp1";
  EXPECT_EQ(next.ctx.clean_adjacency.rows(), 0);

  for (const Edge& e : adds) {
    EXPECT_TRUE(next.data.graph.HasEdge(e.u, e.v));
    EXPECT_FALSE(prev.data.graph.HasEdge(e.u, e.v));
  }
  for (const Edge& e : rems) {
    EXPECT_FALSE(next.data.graph.HasEdge(e.u, e.v));
    EXPECT_TRUE(prev.data.graph.HasEdge(e.u, e.v));
  }
}

// ---------------------------------------------------------------------------
// All-or-nothing churn admission.
// ---------------------------------------------------------------------------

TEST(ChurnValidationTest, MalformedBatchesRejectAtomicallyWithZeroMutation) {
  Fixture* f = SharedFixture();
  const FgaAttack inner(/*targeted=*/true);
  AttackServiceConfig cfg;
  cfg.base_seed = 11;
  AttackService service(cfg);
  ASSERT_TRUE(service.RegisterGraph("g", f->data, *f->model,
                                    NoOwn(&inner)).ok());
  const auto before = service.CurrentSnapshot("g");
  ASSERT_NE(before, nullptr);
  const int64_t n = f->data.num_nodes();
  const std::vector<Edge> absent = AbsentEdges(f->data.graph, 2);
  const std::vector<Edge> present = RemovableEdges(f->data.graph, 1);
  ASSERT_EQ(absent.size(), 2u);
  ASSERT_EQ(present.size(), 1u);
  const Edge ok_add = absent[0];
  const Edge other_add = absent[1];
  const Edge ok_rem = present[0];

  ChurnBatch valid;
  valid.added = {{ok_add.u, ok_add.v, 1.0}};
  EXPECT_EQ(service.UpdateGraph("missing", valid).status.code(),
            StatusCode::kNotFound);

  const auto expect_rejected = [&service](const std::string& what,
                                          const ChurnBatch& batch) {
    const ChurnResult cr = service.UpdateGraph("g", batch);
    EXPECT_EQ(cr.status.code(), StatusCode::kInvalidArgument) << what;
    EXPECT_EQ(cr.epoch, -1) << what;
    EXPECT_EQ(cr.requeued, 0) << what;
  };
  expect_rejected("empty batch", ChurnBatch{});
  {
    ChurnBatch b;
    b.added = {{n, 0, 1.0}};
    expect_rejected("endpoint out of range", b);
  }
  {
    ChurnBatch b;
    b.added = {{-1, 3, 1.0}};
    expect_rejected("negative endpoint", b);
  }
  {
    ChurnBatch b;
    b.added = {{4, 4, 1.0}};
    expect_rejected("self loop", b);
  }
  {
    ChurnBatch b;  // Same undirected pair twice (flipped orientation).
    b.added = {{ok_add.u, ok_add.v, 1.0}, {ok_add.v, ok_add.u, 1.0}};
    expect_rejected("duplicate pair", b);
  }
  {
    ChurnBatch b;
    b.added = {{ok_add.u, ok_add.v, 1.0}};
    b.removed = {{ok_add.u, ok_add.v, 1.0}};
    expect_rejected("pair both added and removed", b);
  }
  {
    ChurnBatch b;
    b.added = {{ok_rem.u, ok_rem.v, 1.0}};
    expect_rejected("add of a present edge", b);
  }
  {
    ChurnBatch b;
    b.removed = {{ok_add.u, ok_add.v, 1.0}};
    expect_rejected("remove of an absent edge", b);
  }
  {
    ChurnBatch b;
    b.added = {{ok_add.u, ok_add.v, 0.5}};
    expect_rejected("non-unit weight", b);
  }
  {
    ChurnBatch b;
    b.added = {{ok_add.u, ok_add.v, std::nan("")}};
    expect_rejected("non-finite weight", b);
  }
  {
    // The atomicity pin: perfectly valid entries FOLLOWED by one malformed
    // one — nothing from the valid prefix may leak into the graph.
    ChurnBatch b;
    b.added = {{ok_add.u, ok_add.v, 1.0},
               {other_add.u, other_add.v, 1.0},
               {7, 7, 1.0}};
    b.removed = {{ok_rem.u, ok_rem.v, 1.0}};
    expect_rejected("valid prefix then malformed", b);
  }

  // Zero mutation: still epoch 0, still the very same snapshot object, no
  // half-applied entries.
  EXPECT_EQ(service.CurrentEpoch("g"), 0);
  EXPECT_EQ(service.CurrentSnapshot("g").get(), before.get());
  EXPECT_FALSE(before->data.graph.HasEdge(ok_add.u, ok_add.v));
  EXPECT_TRUE(before->data.graph.HasEdge(ok_rem.u, ok_rem.v));
  EXPECT_EQ(service.stats().churn_batches, 0);

  // A well-formed batch sails through and publishes epoch 1.
  const ChurnResult okr = service.UpdateGraph("g", valid);
  ASSERT_TRUE(okr.status.ok()) << okr.status.ToString();
  EXPECT_EQ(okr.epoch, 1);
  EXPECT_EQ(service.CurrentEpoch("g"), 1);
  EXPECT_TRUE(service.CurrentSnapshot("g")->data.graph.HasEdge(ok_add.u,
                                                               ok_add.v));
  EXPECT_EQ(service.stats().churn_batches, 1);

  service.Stop();
  ChurnBatch after_stop;
  after_stop.added = {{other_add.u, other_add.v, 1.0}};
  EXPECT_EQ(service.UpdateGraph("g", after_stop).status.code(),
            StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Incremental maintenance == fresh rebuild, to the bit.
// ---------------------------------------------------------------------------

TEST(RenormalizeTest, FlipBatchBitIdenticalToFreshNormalize) {
  Fixture* f = SharedFixture();
  const std::vector<Edge> adds = AbsentEdges(f->data.graph, 3);
  const std::vector<Edge> rems = RemovableEdges(f->data.graph, 2);
  ASSERT_EQ(adds.size(), 3u);
  ASSERT_EQ(rems.size(), 2u);

  Graph churned = f->data.graph;
  for (const Edge& e : adds) ASSERT_TRUE(churned.AddEdge(e.u, e.v));
  for (const Edge& e : rems) ASSERT_TRUE(churned.RemoveEdge(e.u, e.v));

  const CsrMatrix fresh = GcnNormalizeCsr(churned.CsrAdjacency());
  const CsrMatrix incremental = GcnRenormalizeAfterFlips(
      f->ctx.clean_norm_csr, f->ctx.clean_degp1, adds, rems);
  ExpectSameCsr(incremental, fresh, "renormalize-after-flips");

  // Adds only, sharing endpoint 0 (degree delta 3 there): the batch shape
  // the eval pipeline's perturbed logits and Nettack's commits renormalize.
  const Graph& g = f->data.graph;
  std::vector<Edge> star;
  for (int64_t j = 1; j < g.num_nodes() && star.size() < 3; ++j)
    if (!g.HasEdge(0, j)) star.emplace_back(0, j);
  ASSERT_EQ(star.size(), 3u);
  ExpectSameCsr(GcnRenormalizeAfterFlips(f->ctx.clean_norm_csr,
                                         f->ctx.clean_degp1, star, {}),
                GcnNormalizeCsr(ApplyEdgeFlips(g.CsrAdjacency(), star, {})),
                "renormalize-after-adds");
}

TEST(SnapshotTest, ApplyChurnMatchesFreshContextBitIdentical) {
  Fixture* f = SharedFixture();
  const FgaAttack inner(/*targeted=*/true);
  const std::vector<Edge> adds = AbsentEdges(f->data.graph, 3);
  const std::vector<Edge> rems = RemovableEdges(f->data.graph, 2);
  ASSERT_EQ(adds.size(), 3u);
  ASSERT_EQ(rems.size(), 2u);
  const ChurnBatch batch = BatchOf(adds, rems);

  GraphData churned = f->data;
  for (const Edge& e : adds) ASSERT_TRUE(churned.graph.AddEdge(e.u, e.v));
  for (const Edge& e : rems) ASSERT_TRUE(churned.graph.RemoveEdge(e.u, e.v));

  const auto prev =
      MakeGraphSnapshot("v", f->data, *f->model, NoOwn(&inner));
  ASSERT_TRUE(ValidateChurnBatch(prev->data.graph, batch).ok());
  const auto next = ApplyChurn(prev, batch);
  EXPECT_EQ(next->epoch, 1);
  EXPECT_EQ(next->version, "v");
  EXPECT_EQ(next->model.get(), prev->model.get());
  EXPECT_EQ(next->attack.get(), prev->attack.get());
  EXPECT_EQ(next->ctx.scratch.get(), prev->ctx.scratch.get());

  ExpectMatchesFreshContext(*prev, *next, churned, *f->model, adds, rems);
  EXPECT_EQ(prev->epoch, 0);
}

TEST(SnapshotTest, ApplyChurnSharesUntouchedRows) {
  Fixture* f = SharedFixture();
  const FgaAttack inner(/*targeted=*/true);
  const std::vector<Edge> adds = AbsentEdges(f->data.graph, 3);
  const std::vector<Edge> rems = RemovableEdges(f->data.graph, 2);
  ASSERT_EQ(adds.size(), 3u);
  ASSERT_EQ(rems.size(), 2u);
  GraphData churned = f->data;
  for (const Edge& e : adds) ASSERT_TRUE(churned.graph.AddEdge(e.u, e.v));
  for (const Edge& e : rems) ASSERT_TRUE(churned.graph.RemoveEdge(e.u, e.v));

  const auto prev =
      MakeGraphSnapshot("v", f->data, *f->model, NoOwn(&inner));
  const auto next = ApplyChurn(prev, BatchOf(adds, rems));

  const Graph& before = prev->data.graph;
  const Graph& after = next->data.graph;
  std::vector<char> endpoint(static_cast<size_t>(before.num_nodes()), 0);
  for (const std::vector<Edge>* edges : {&adds, &rems}) {
    for (const Edge& e : *edges) {
      endpoint[static_cast<size_t>(e.u)] = 1;
      endpoint[static_cast<size_t>(e.v)] = 1;
    }
  }
  for (int64_t u = 0; u < before.num_nodes(); ++u) {
    if (endpoint[static_cast<size_t>(u)] != 0)
      EXPECT_NE(&after.Neighbors(u), &before.Neighbors(u)) << u;
    else
      EXPECT_EQ(&after.Neighbors(u), &before.Neighbors(u)) << u;
  }
  ExpectMatchesFreshContext(*prev, *next, churned, *f->model, adds, rems);
}

// ---------------------------------------------------------------------------
// Epoch pinning: in-flight waves finish on their dispatch snapshot.
// ---------------------------------------------------------------------------

TEST(LiveEpochTest, InFlightWaveFinishesOnItsDispatchSnapshot) {
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 2u);
  const FgaAttack inner(/*targeted=*/true);
  FaultInjectingAttack attack(&inner);
  attack.InjectAt(f->requests[0].target_node,
                  {FaultKind::kDelay, /*delay_ms=*/250.0});

  AttackServiceConfig cfg;
  cfg.base_seed = 7001;
  cfg.num_threads = 1;
  cfg.wave_size = 1;
  cfg.queue_capacity = 8;
  AttackService service(cfg);
  ASSERT_TRUE(service.RegisterGraph("g", f->data, *f->model,
                                    NoOwn(&attack)).ok());

  AttackServiceRequest parked;
  parked.graph = "g";
  parked.target_node = f->requests[0].target_node;
  parked.target_label = f->requests[0].target_label;
  parked.budget = f->requests[0].budget;
  const Admission a0 = service.Submit(parked);
  ASSERT_TRUE(a0.status.ok()) << a0.status.ToString();
  WaitUntilWaveInFlight(service);

  AttackServiceRequest queued = parked;
  queued.target_node = f->requests[1].target_node;
  queued.target_label = f->requests[1].target_label;
  queued.budget = f->requests[1].budget;
  const Admission a1 = service.Submit(queued);
  ASSERT_TRUE(a1.status.ok()) << a1.status.ToString();

  // Churn lands while the parked wave is mid-flight.  The default
  // churn_ball_hops = -1 is the conservative whole-graph ball, so the one
  // QUEUED request re-pins; the RUNNING one must not.
  const std::vector<Edge> adds = AbsentEdges(f->data.graph, 2);
  ASSERT_EQ(adds.size(), 2u);
  const ChurnResult cr = service.UpdateGraph("g", BatchOf(adds, {}));
  ASSERT_TRUE(cr.status.ok()) << cr.status.ToString();
  EXPECT_EQ(cr.epoch, 1);
  EXPECT_EQ(cr.requeued, 1);
  service.Drain();

  GraphData churned = f->data;
  for (const Edge& e : adds) ASSERT_TRUE(churned.graph.AddEdge(e.u, e.v));
  const AttackContext fresh = MakeAttackContext(churned, *f->model);

  // The parked target ran on its dispatch snapshot: epoch 0 bits.
  const ServiceResult r0 = service.Take(a0.ticket);
  ASSERT_TRUE(r0.result.status.ok()) << r0.result.status.ToString();
  EXPECT_EQ(r0.epoch, 0);
  EXPECT_EQ(r0.attempts, 1);
  EXPECT_EQ(r0.seed, TargetSeed(cfg.base_seed, 0));
  ExpectSameEdges(r0.result,
                  ReplayOne(f->ctx, inner, parked.target_node,
                            parked.target_label, r0),
                  "parked wave on epoch 0");

  // The bumped queued target ran on the churned snapshot: epoch 1 bits.
  const ServiceResult r1 = service.Take(a1.ticket);
  ASSERT_TRUE(r1.result.status.ok()) << r1.result.status.ToString();
  EXPECT_EQ(r1.epoch, 1);
  EXPECT_EQ(r1.seed, TargetSeed(cfg.base_seed, 1));
  ExpectSameEdges(r1.result,
                  ReplayOne(fresh, inner, queued.target_node,
                            queued.target_label, r1),
                  "bumped target on epoch 1");

  EXPECT_EQ(service.CurrentEpoch("g"), 1);
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.churn_batches, 1);
  EXPECT_EQ(st.requeued_stale, 1);
}

// ---------------------------------------------------------------------------
// Ball-overlap invalidation (churn_ball_hops >= 0).
// ---------------------------------------------------------------------------

// Two disjoint 20-node rings.  Component A (nodes 0..19) carries labels 0
// and 1; component B (nodes 20..39) is all label 2.  A target in A with
// target_label 1 has every candidate inside A, so its 2-hop augmented ball
// never reaches B — B-side churn provably cannot move its picks.
struct TwoComponentScenario {
  GraphData data;
  std::unique_ptr<Gcn> model;
  AttackContext ctx;  // Sparse epoch-0 reference context.
};

TwoComponentScenario MakeTwoComponentScenario() {
  TwoComponentScenario s;
  const int64_t n = 40;
  s.data.graph = Graph(n);
  for (int64_t i = 0; i < 20; ++i)
    s.data.graph.AddEdge(i, (i + 1) % 20);
  for (int64_t i = 20; i < 40; ++i)
    s.data.graph.AddEdge(i, i == 39 ? 20 : i + 1);
  Rng rng(4242);
  s.data.features = rng.NormalTensor(n, 8, 0.0, 1.0);
  s.data.labels.assign(static_cast<size_t>(n), 0);
  for (int64_t i = 10; i < 20; ++i) s.data.labels[static_cast<size_t>(i)] = 1;
  for (int64_t i = 20; i < 40; ++i) s.data.labels[static_cast<size_t>(i)] = 2;
  s.data.num_classes = 3;
  GcnConfig gc;
  gc.in_dim = 8;
  gc.hidden_dim = 16;
  gc.num_classes = 3;
  s.model = std::make_unique<Gcn>(gc, &rng);
  s.ctx = MakeSparseAttackContext(s.data, *s.model);
  return s;
}

/// Runs the parked-wave + queued-target + churn script against the
/// two-ring scenario with churn_ball_hops = 2 and a hops-2 GEAttack, and
/// returns (ChurnResult, queued target's ServiceResult).  The queued
/// target is node 0 (label 0) attacking toward label 1, accepted at
/// index 1.
std::pair<ChurnResult, ServiceResult> RunBallScript(
    const TwoComponentScenario& s, const GeAttack& geattack,
    const ChurnBatch& churn, uint64_t base_seed) {
  FaultInjectingAttack attack(&geattack);
  const int64_t parked_node = 2;
  attack.InjectAt(parked_node, {FaultKind::kDelay, /*delay_ms=*/250.0});

  AttackServiceConfig cfg;
  cfg.base_seed = base_seed;
  cfg.num_threads = 1;
  cfg.wave_size = 1;
  cfg.queue_capacity = 8;
  cfg.churn_ball_hops = 2;  // == GeAttackConfig::hops, the proof's floor.
  AttackService service(cfg);
  GEA_CHECK(service.RegisterGraph("g", s.data, *s.model, NoOwn(&attack)).ok());

  AttackServiceRequest parked;
  parked.graph = "g";
  parked.target_node = parked_node;
  parked.target_label = 1;
  parked.budget = 1;
  const Admission a0 = service.Submit(parked);
  EXPECT_TRUE(a0.status.ok()) << a0.status.ToString();
  WaitUntilWaveInFlight(service);

  AttackServiceRequest queued = parked;
  queued.target_node = 0;
  const Admission a1 = service.Submit(queued);
  EXPECT_TRUE(a1.status.ok()) << a1.status.ToString();

  const ChurnResult cr = service.UpdateGraph("g", churn);
  EXPECT_TRUE(cr.status.ok()) << cr.status.ToString();
  service.Drain();
  const ServiceResult parked_result = service.Take(a0.ticket);
  EXPECT_EQ(parked_result.epoch, 0);  // In-flight wave: dispatch snapshot.
  ServiceResult queued_result = service.Take(a1.ticket);
  EXPECT_EQ(service.stats().requeued_stale, cr.requeued);
  return {cr, std::move(queued_result)};
}

TEST(BallInvalidationTest, ChurnOutsideBallKeepsPinAndPicks) {
  const TwoComponentScenario s = MakeTwoComponentScenario();
  GeAttackConfig gcfg;
  gcfg.hops = 2;
  const GeAttack geattack(gcfg);

  // A chord inside component B: both endpoints carry label 2 and sit
  // outside node 0's 2-hop augmented ball (which is confined to A).
  ChurnBatch far;
  far.added = {{20, 22, 1.0}};
  const auto [cr, rq] = RunBallScript(s, geattack, far, /*base_seed=*/6101);
  EXPECT_EQ(cr.epoch, 1);
  EXPECT_EQ(cr.requeued, 0);  // Provably unaffected: pin kept.
  ASSERT_TRUE(rq.result.status.ok()) << rq.result.status.ToString();
  EXPECT_EQ(rq.epoch, 0);
  EXPECT_EQ(rq.seed, TargetSeed(6101, 1));

  // The picks equal an offline replay on the epoch-0 context...
  ExpectSameEdges(rq.result, ReplayOne(s.ctx, geattack, 0, 1, rq),
                  "unbumped target vs epoch-0 replay");
  // ...AND on a fresh context of the churned graph — the invalidation
  // proof made bits: outside the ball, old and new epochs agree exactly.
  GraphData churned = s.data;
  ASSERT_TRUE(churned.graph.AddEdge(20, 22));
  const AttackContext fresh = MakeSparseAttackContext(churned, *s.model);
  ExpectSameEdges(rq.result, ReplayOne(fresh, geattack, 0, 1, rq),
                  "unbumped target vs churned-epoch replay");
}

TEST(BallInvalidationTest, ChurnInsideBallRequeuesOntoNewEpoch) {
  const TwoComponentScenario s = MakeTwoComponentScenario();
  GeAttackConfig gcfg;
  gcfg.hops = 2;
  const GeAttack geattack(gcfg);

  // Node 15 is one of node 0's label-1 candidates — distance 1 in the
  // augmented graph, squarely inside the ball — so this churn MUST bump.
  ChurnBatch near;
  near.added = {{5, 15, 1.0}};
  const auto [cr, rq] = RunBallScript(s, geattack, near, /*base_seed=*/6113);
  EXPECT_EQ(cr.epoch, 1);
  EXPECT_EQ(cr.requeued, 1);
  ASSERT_TRUE(rq.result.status.ok()) << rq.result.status.ToString();
  EXPECT_EQ(rq.epoch, 1);
  EXPECT_EQ(rq.seed, TargetSeed(6113, 1));

  GraphData churned = s.data;
  ASSERT_TRUE(churned.graph.AddEdge(5, 15));
  const AttackContext fresh = MakeSparseAttackContext(churned, *s.model);
  ExpectSameEdges(rq.result, ReplayOne(fresh, geattack, 0, 1, rq),
                  "bumped target vs churned-epoch replay");
}

// ---------------------------------------------------------------------------
// WAL recovery: byte-identical replay, exactly-once, torn-tail re-run.
// ---------------------------------------------------------------------------

void ExpectSameServiceResult(const ServiceResult& got,
                             const ServiceResult& want,
                             const std::string& where, bool replayed) {
  EXPECT_EQ(got.result.status.code(), want.result.status.code()) << where;
  ExpectSameEdges(got.result, want.result, where);
  EXPECT_EQ(got.accepted_index, want.accepted_index) << where;
  EXPECT_EQ(got.attempts, want.attempts) << where;
  EXPECT_EQ(got.seed, want.seed) << where;
  EXPECT_EQ(got.effective_budget, want.effective_budget) << where;
  EXPECT_EQ(got.epoch, want.epoch) << where;
  // No clock bits in recovery state: replayed results report zero latency.
  if (replayed) {
    EXPECT_EQ(got.latency_ms, 0.0) << where;
  }
}

AttackServiceConfig WalConfig(const std::string& path) {
  AttackServiceConfig cfg;
  cfg.base_seed = 9103;
  cfg.num_threads = 2;
  cfg.wave_size = 4;
  cfg.queue_capacity = 64;
  cfg.journal_path = path;
  return cfg;
}

/// The WAL tests' original run on a fresh journal: 3 targets on epoch 0, a
/// churn, 3 on epoch 1.  Returns the six results in ticket order.
std::vector<ServiceResult> RunWalScript(const AttackServiceConfig& cfg,
                                        const TargetedAttack& inner) {
  Fixture* f = SharedFixture();
  std::remove(cfg.journal_path.c_str());
  const std::vector<Edge> adds = AbsentEdges(f->data.graph, 2);
  EXPECT_EQ(adds.size(), 2u);
  const ChurnBatch batch = BatchOf(adds, {});

  const auto submit = [&f](AttackService* service, size_t i) {
    AttackServiceRequest req;
    req.graph = "g";
    req.target_node = f->requests[i].target_node;
    req.target_label = f->requests[i].target_label;
    req.budget = f->requests[i].budget;
    const Admission a = service->Submit(req);
    EXPECT_TRUE(a.status.ok()) << a.status.ToString();
    EXPECT_EQ(a.ticket, static_cast<int64_t>(i));
  };

  std::vector<ServiceResult> original(6);
  AttackService service(cfg);
  EXPECT_TRUE(
      service.RegisterGraph("g", f->data, *f->model, NoOwn(&inner)).ok());
  const RecoveryReport blank = service.Recover();
  EXPECT_TRUE(blank.status.ok()) << blank.status.ToString();
  EXPECT_EQ(blank.churn_batches, 0);
  EXPECT_EQ(blank.replayed_results, 0);
  EXPECT_EQ(blank.pending, 0);

  for (size_t i = 0; i < 3; ++i) submit(&service, i);
  service.Drain();
  const ChurnResult cr = service.UpdateGraph("g", batch);
  EXPECT_TRUE(cr.status.ok()) << cr.status.ToString();
  EXPECT_EQ(cr.epoch, 1);
  for (size_t i = 3; i < 6; ++i) submit(&service, i);
  service.Drain();
  for (size_t i = 0; i < 6; ++i) {
    original[i] = service.Take(static_cast<int64_t>(i));
    EXPECT_EQ(original[i].epoch, i < 3 ? 0 : 1) << "ticket " << i;
  }
  return original;
}

std::string ReadWal(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteWal(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

TEST(WalRecoveryTest, ReplayIsByteIdenticalAndTornTailRecomputes) {
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 6u);
  const FgaAttack inner(/*targeted=*/true);
  const std::string path = testing::TempDir() + "geattack_service_wal.txt";
  const AttackServiceConfig cfg = WalConfig(path);
  const std::vector<ServiceResult> original = RunWalScript(cfg, inner);

  // --- Crash + recover: everything must come back from records alone. ---
  {
    AttackService service(cfg);
    ASSERT_TRUE(service.RegisterGraph("g", f->data, *f->model,
                                      NoOwn(&inner)).ok());
    const RecoveryReport rec = service.Recover();
    ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
    EXPECT_EQ(rec.churn_batches, 1);
    EXPECT_EQ(rec.replayed_results, 6);
    EXPECT_EQ(rec.pending, 0);
    EXPECT_EQ(service.CurrentEpoch("g"), 1);
    for (size_t i = 0; i < 6; ++i)
      ExpectSameServiceResult(service.Take(static_cast<int64_t>(i)),
                              original[i],
                              "replayed ticket " + std::to_string(i),
                              /*replayed=*/true);
    const ServiceStats st = service.stats();
    EXPECT_EQ(st.replayed_results, 6);
    EXPECT_EQ(st.accepted, 6);
    EXPECT_EQ(st.accepted, st.completed_ok + st.failed + st.timed_out +
                               st.skipped + st.shed + st.queue_depth +
                               st.in_flight);
  }

  // --- Torn tail: chop the LAST completion record mid-line.  Exactly that
  // ticket must come back as pending and recompute to the same bits. ---
  const std::string text = ReadWal(path);
  const size_t cut = text.rfind("\nt ");
  ASSERT_NE(cut, std::string::npos);
  WriteWal(path, text.substr(0, cut + 4));
  {
    AttackService service(cfg);
    ASSERT_TRUE(service.RegisterGraph("g", f->data, *f->model,
                                      NoOwn(&inner)).ok());
    const RecoveryReport rec = service.Recover();
    ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
    EXPECT_EQ(rec.replayed_results, 5);
    ASSERT_EQ(rec.pending, 1);
    const int64_t lost = rec.pending_tickets[0];
    service.Drain();  // Re-runs only the lost ticket, on its recorded seed.
    for (int64_t i = 0; i < 6; ++i)
      ExpectSameServiceResult(service.Take(i),
                              original[static_cast<size_t>(i)],
                              "post-torn-tail ticket " + std::to_string(i),
                              /*replayed=*/i != lost);
    EXPECT_EQ(service.stats().replayed_results, 5);
  }
  std::remove(path.c_str());
}

TEST(WalRecoveryTest, CorruptCompletionIsDataLossAndRecomputes) {
  // A torn tail truncates silently; a *complete* `t` record whose bytes
  // changed after its fsync fails its CRC.  Recover() reports kDataLoss,
  // replays everything before it, and re-runs exactly that ticket on its
  // recorded seed stream, to the same bits.
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 6u);
  const FgaAttack inner(/*targeted=*/true);
  const std::string path = testing::TempDir() + "geattack_service_wal_crc.txt";
  const AttackServiceConfig cfg = WalConfig(path);
  const std::vector<ServiceResult> original = RunWalScript(cfg, inner);

  // Flip the ticket digit of the last record, a complete `t`: the record
  // still parses, so only the CRC can tell it was tampered with.
  std::string text = ReadWal(path);
  const size_t last = text.rfind("\nt ");
  ASSERT_NE(last, std::string::npos);
  char& ticket_digit = text[last + 3];
  ticket_digit = ticket_digit == '0' ? '1' : '0';
  WriteWal(path, text);

  // The first recovery surfaces the loss and recomputes the ticket (which
  // truncates the corrupt record and journals the result again); the second
  // finds a whole WAL and replays all six.
  for (const bool corrupt : {true, false}) {
    const std::string where = corrupt ? "corrupt WAL" : "repaired WAL";
    AttackService service(cfg);
    ASSERT_TRUE(service.RegisterGraph("g", f->data, *f->model,
                                      NoOwn(&inner)).ok());
    const RecoveryReport rec = service.Recover();
    EXPECT_EQ(rec.status.code(),
              corrupt ? StatusCode::kDataLoss : StatusCode::kOk)
        << where << ": " << rec.status.ToString();
    EXPECT_EQ(rec.churn_batches, 1) << where;
    EXPECT_EQ(rec.replayed_results, corrupt ? 5 : 6) << where;
    ASSERT_EQ(rec.pending, corrupt ? 1 : 0) << where;
    const int64_t lost = corrupt ? rec.pending_tickets[0] : -1;
    service.Drain();
    for (int64_t i = 0; i < 6; ++i)
      ExpectSameServiceResult(service.Take(i),
                              original[static_cast<size_t>(i)],
                              where + " ticket " + std::to_string(i),
                              /*replayed=*/i != lost);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace geattack
