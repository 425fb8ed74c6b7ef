// Bit-exactness tests for the batched multi-target path: the stacked-RHS
// forward over a BatchedSubgraphView's shared union pattern must reproduce
// k independent per-target SparseAttackForward runs bit for bit — values,
// first-order candidate gradients, and the second-order hypergradient —
// because the greedy attack picks (and the bench/CI equivalence gates)
// compare at exact-argmin granularity.

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "src/attack/attack.h"
#include "src/eval/pipeline.h"
#include "src/graph/generators.h"
#include "src/graph/subgraph.h"
#include "src/nn/sparse_forward.h"
#include "src/nn/trainer.h"
#include "tests/test_util.h"

namespace geattack {
namespace {

struct Fixture {
  GraphData data;
  std::unique_ptr<Gcn> model;
  Tensor xw1;
  std::vector<int64_t> targets;
  std::vector<std::vector<int64_t>> candidates;
};

Fixture* SharedFixture() {
  static Fixture* fixture = [] {
    auto* f = new Fixture();
    Rng rng(777);
    CitationGraphConfig cfg;
    cfg.num_nodes = 70;
    cfg.num_edges = 180;
    cfg.num_classes = 3;
    cfg.feature_dim = 24;
    f->data = KeepLargestConnectedComponent(GenerateCitationGraph(cfg, &rng));
    Split split = MakeSplit(f->data, 0.1, 0.1, &rng);
    TrainConfig tc;
    tc.epochs = 30;
    f->model = std::make_unique<Gcn>(TrainNewGcn(f->data, split, tc, &rng));
    f->xw1 = f->data.features.MatMul(f->model->w1());
    // Three targets of degree >= 2, each with a few direct-add candidates.
    for (int64_t v = 0; v < f->data.num_nodes() && f->targets.size() < 3;
         ++v) {
      if (f->data.graph.Degree(v) < 2) continue;
      std::vector<int64_t> cands;
      for (int64_t j = 0; j < f->data.num_nodes() && cands.size() < 5; ++j)
        if (j != v && !f->data.graph.HasEdge(v, j)) cands.push_back(j);
      f->targets.push_back(v);
      f->candidates.push_back(std::move(cands));
    }
    return f;
  }();
  return fixture;
}

/// Per-target reference: standalone view + forward at candidate values `w`,
/// returning (logits, gradient of NllRow at the target w.r.t. w).
struct Reference {
  SubgraphView view;
  Tensor logits;
  Tensor grad;
};

Reference StandaloneRun(const Fixture* f, size_t t, int hops,
                        const Tensor& w_tensor, int64_t label) {
  Reference ref;
  ref.view = BuildSubgraphView(f->data.graph, f->targets[t], hops,
                               f->candidates[t]);
  const SparseAttackForward sf =
      MakeSparseAttackForward(ref.view, *f->model, f->xw1);
  Var w = Var::Leaf(w_tensor, /*requires_grad=*/true, "w");
  Var logits = SparseGcnLogitsVar(sf, RawValuesFromCandidates(sf, w));
  Var loss = NllRow(logits, ref.view.target_local, label);
  ref.logits = logits.value();
  ref.grad = GradOne(loss, w).value();
  return ref;
}

void ExpectStackedMatchesStandalone(int hops, const Tensor& w_pattern) {
  Fixture* f = SharedFixture();
  const size_t k = f->targets.size();
  ASSERT_GE(k, 3u);

  const BatchedSubgraphView bview = BuildBatchedSubgraphView(
      *f->data.graph.CsrAdjacency().pattern(), f->targets, hops,
      f->candidates);
  const StackedAttackForward ssf =
      MakeStackedAttackForward(bview, *f->model, f->xw1);

  // Per-target candidate values: the shared pattern scaled per target so
  // the columns differ.
  std::vector<Tensor> w_tensors;
  std::vector<int64_t> labels;
  for (size_t t = 0; t < k; ++t) {
    Tensor w(f->candidates[t].size() ? static_cast<int64_t>(
                                           f->candidates[t].size())
                                     : 0,
             1);
    for (int64_t i = 0; i < w.rows(); ++i)
      w.at(i, 0) = w_pattern.at(i % w_pattern.rows(), 0) *
                   (1.0 + 0.25 * static_cast<double>(t));
    w_tensors.push_back(w);
    labels.push_back(static_cast<int64_t>(t) % 3);
  }

  // Stacked run: one wide forward, one backward over the summed losses.
  std::vector<Var> ws, columns, losses;
  for (size_t t = 0; t < k; ++t) {
    ws.push_back(Var::Leaf(w_tensors[t], /*requires_grad=*/true, "w"));
    columns.push_back(RawValuesFromCandidates(ssf.per_target[t], ws[t]));
  }
  Var stacked = StackedGcnLogitsVar(ssf, columns);
  Var total;
  for (size_t t = 0; t < k; ++t) {
    Var loss = NllRow(StackedLogitsBlock(ssf, stacked, static_cast<int64_t>(t)),
                      ssf.per_target[t].view->target_local, labels[t]);
    losses.push_back(loss);
    total = t == 0 ? loss : Add(total, loss);
  }
  const std::vector<Var> grads = Grad(total, ws);

  // The fused assembly (StackedRawValues, the production batched path) must
  // agree bit for bit with the per-column composition.
  std::vector<Var> ws2;
  for (size_t t = 0; t < k; ++t)
    ws2.push_back(Var::Leaf(w_tensors[t], /*requires_grad=*/true, "w"));
  Var stacked2 =
      StackedGcnLogitsVarFromValues(ssf, StackedRawValues(ssf, ws2));
  {
    const Tensor& a = stacked.value();
    const Tensor& b = stacked2.value();
    ASSERT_EQ(a.rows(), b.rows());
    for (int64_t i = 0; i < a.rows(); ++i)
      for (int64_t j = 0; j < a.cols(); ++j)
        EXPECT_EQ(a.at(i, j), b.at(i, j)) << "fused " << i << "," << j;
  }
  Var total2;
  for (size_t t = 0; t < k; ++t) {
    Var loss =
        NllRow(StackedLogitsBlock(ssf, stacked2, static_cast<int64_t>(t)),
               ssf.per_target[t].view->target_local, labels[t]);
    total2 = t == 0 ? loss : Add(total2, loss);
  }
  const std::vector<Var> grads2 = Grad(total2, ws2);
  for (size_t t = 0; t < k; ++t) {
    const Tensor& ga = grads[t].value();
    const Tensor& gb = grads2[t].value();
    for (int64_t i = 0; i < ga.rows(); ++i)
      EXPECT_EQ(ga.at(i, 0), gb.at(i, 0)) << "fused grad " << t << "," << i;
  }

  for (size_t t = 0; t < k; ++t) {
    const Reference ref = StandaloneRun(f, t, hops, w_tensors[t], labels[t]);
    const SubgraphView& pt = *ssf.per_target[t].view;
    const Tensor block =
        StackedLogitsBlock(ssf, stacked, static_cast<int64_t>(t)).value();
    // Compare every row of the standalone ball through the two local maps;
    // bitwise (EXPECT_EQ on doubles), not approximate.
    for (int64_t l = 0; l < ref.view.num_nodes(); ++l) {
      const int64_t g = ref.view.nodes[static_cast<size_t>(l)];
      const int64_t ul = bview.global_to_local[static_cast<size_t>(g)];
      ASSERT_GE(ul, 0);
      for (int64_t c = 0; c < block.cols(); ++c)
        EXPECT_EQ(block.at(ul, c), ref.logits.at(l, c))
            << "target " << t << " node " << g << " col " << c;
    }
    EXPECT_EQ(pt.target_local,
              bview.global_to_local[static_cast<size_t>(f->targets[t])]);
    const Tensor& gw = grads[t].value();
    ASSERT_EQ(gw.rows(), ref.grad.rows());
    for (int64_t i = 0; i < gw.rows(); ++i)
      EXPECT_EQ(gw.at(i, 0), ref.grad.at(i, 0))
          << "target " << t << " candidate " << i;
  }
}

TEST(BatchedForwardTest, FullViewStackedForwardBitEqual) {
  Rng rng(31);
  const Tensor w_pattern = rng.UniformTensor(5, 1, 0.1, 0.9);
  ExpectStackedMatchesStandalone(/*hops=*/-1, w_pattern);
}

TEST(BatchedForwardTest, TwoHopStackedForwardBitEqual) {
  // hops = 2 (the GCN depth): per-target balls differ, the union is larger
  // than each, and the out-of-ball zero rows must not perturb any in-ball
  // bit.
  Rng rng(32);
  const Tensor w_pattern = rng.UniformTensor(5, 1, 0.1, 0.9);
  ExpectStackedMatchesStandalone(/*hops=*/2, w_pattern);
}

TEST(BatchedForwardTest, ZeroCandidateValuesBitEqual) {
  // w = 0 — the state every greedy outer iteration scores from.
  ExpectStackedMatchesStandalone(/*hops=*/-1, Tensor::Zeros(5, 1));
}

TEST(BatchedForwardTest, CommittedCandidatesStayBitEqual) {
  // Committing a pick mutates only the per-target base values; the stacked
  // forward must track the standalone one through commits.
  Fixture* f = SharedFixture();
  const BatchedSubgraphView bview = BuildBatchedSubgraphView(
      *f->data.graph.CsrAdjacency().pattern(), f->targets, /*hops=*/-1,
      f->candidates);
  StackedAttackForward ssf =
      MakeStackedAttackForward(bview, *f->model, f->xw1);

  SubgraphView view0 = BuildSubgraphView(f->data.graph, f->targets[0],
                                         /*hops=*/-1, f->candidates[0]);
  SparseAttackForward sf0 =
      MakeSparseAttackForward(view0, *f->model, f->xw1);
  CommitCandidate(&sf0, 1);
  CommitCandidate(&ssf.per_target[0], 1);

  const int64_t m0 = static_cast<int64_t>(f->candidates[0].size());
  std::vector<Var> columns;
  for (size_t t = 0; t < f->targets.size(); ++t) {
    const int64_t m = static_cast<int64_t>(f->candidates[t].size());
    columns.push_back(RawValuesFromCandidates(
        ssf.per_target[t], Constant(Tensor::Zeros(m, 1), "w0")));
  }
  Var stacked = StackedGcnLogitsVar(ssf, columns);
  Var ref = SparseGcnLogitsVar(
      sf0, RawValuesFromCandidates(sf0, Constant(Tensor::Zeros(m0, 1), "w0")));
  const Tensor block = StackedLogitsBlock(ssf, stacked, 0).value();
  for (int64_t l = 0; l < ref.rows(); ++l)
    for (int64_t c = 0; c < ref.cols(); ++c)
      EXPECT_EQ(block.at(l, c), ref.value().at(l, c)) << l << "," << c;
}

TEST(BatchedForwardTest, StackedHypergradientMatchesFiniteDifferences) {
  // The bilevel GEAttack path through the stacked forward: an inner
  // mask-descent step under create_graph, then d(outer)/dw — exercising
  // second-order gradients of GcnNormValuesStacked / SpMMValuesStacked.
  Fixture* f = SharedFixture();
  const BatchedSubgraphView bview = BuildBatchedSubgraphView(
      *f->data.graph.CsrAdjacency().pattern(), f->targets, /*hops=*/2,
      f->candidates);
  const StackedAttackForward ssf =
      MakeStackedAttackForward(bview, *f->model, f->xw1);
  const int64_t m0 = static_cast<int64_t>(f->candidates[0].size());
  const int64_t m1 = static_cast<int64_t>(f->candidates[1].size());
  Rng rng(17);
  const Tensor mask0_a = rng.NormalTensor(
      ssf.per_target[0].view->num_slots(), 1, 0.0, 0.05);
  const Tensor mask0_b = rng.NormalTensor(
      ssf.per_target[1].view->num_slots(), 1, 0.0, 0.05);
  const Tensor w1_fixed = rng.UniformTensor(m1, 1, 0.2, 0.8);

  auto fn = [&](const Var& w) -> Var {
    // Two targets stacked; the gradcheck differentiates target 0's w while
    // target 1 rides along with constant candidate values.
    Var w_b = Constant(w1_fixed, "w1");
    Var mu_a = Var::Leaf(mask0_a, /*requires_grad=*/true, "M0a");
    Var mu_b = Var::Leaf(mask0_b, /*requires_grad=*/true, "M0b");
    for (int step = 0; step < 2; ++step) {
      std::vector<Var> columns;
      Var masked_a =
          Mul(UndirectedValuesFromCandidates(ssf.per_target[0], w),
              Sigmoid(mu_a));
      Var masked_b =
          Mul(UndirectedValuesFromCandidates(ssf.per_target[1], w_b),
              Sigmoid(mu_b));
      columns.push_back(DirectedFromUndirected(ssf.per_target[0], masked_a));
      columns.push_back(DirectedFromUndirected(ssf.per_target[1], masked_b));
      columns.resize(ssf.per_target.size(),
                     Constant(ssf.per_target.back().base_values, "base"));
      Var stacked = StackedGcnLogitsVar(ssf, columns);
      Var inner =
          Add(NllRow(StackedLogitsBlock(ssf, stacked, 0),
                     ssf.per_target[0].view->target_local, 0),
              NllRow(StackedLogitsBlock(ssf, stacked, 1),
                     ssf.per_target[1].view->target_local, 1));
      const std::vector<Var> p =
          Grad(inner, {mu_a, mu_b}, {.create_graph = true});
      mu_a = Sub(mu_a, MulScalar(p[0], 0.15));
      mu_b = Sub(mu_b, MulScalar(p[1], 0.15));
    }
    std::vector<Var> columns;
    columns.push_back(
        RawValuesFromCandidates(ssf.per_target[0], w));
    columns.push_back(RawValuesFromCandidates(ssf.per_target[1], w_b));
    columns.resize(ssf.per_target.size(),
                   Constant(ssf.per_target.back().base_values, "base"));
    Var stacked = StackedGcnLogitsVar(ssf, columns);
    Var attack = NllRow(StackedLogitsBlock(ssf, stacked, 0),
                        ssf.per_target[0].view->target_local, 0);
    Var mu_cand = SpMM(ssf.per_target[0].view->cand_slot_take, mu_a);
    return Add(attack, MulScalar(Sum(mu_cand), 2.0));
  };
  Rng wr(13);
  const Tensor w0 = wr.UniformTensor(m0, 1, 0.2, 0.8);
  geattack::testing::ExpectGradientsMatch(fn, w0, 5e-5);
}

TEST(BatchedSubgraphTest, GroupingPartitionsTargets) {
  Fixture* f = SharedFixture();
  std::vector<int64_t> nodes;
  for (int64_t v = 0; v < f->data.num_nodes() && nodes.size() < 10; v += 3)
    nodes.push_back(v);
  for (int64_t max_group : {1, 2, 4}) {
    const auto groups =
        GroupTargetsBySharedNeighbors(f->data.graph, nodes, max_group);
    std::set<int64_t> seen;
    for (const auto& g : groups) {
      EXPECT_GE(static_cast<int64_t>(g.size()), 1);
      EXPECT_LE(static_cast<int64_t>(g.size()), max_group);
      for (int64_t i : g) EXPECT_TRUE(seen.insert(i).second);
    }
    EXPECT_EQ(seen.size(), nodes.size());
    // Deterministic: a second call returns the same grouping.
    EXPECT_EQ(groups,
              GroupTargetsBySharedNeighbors(f->data.graph, nodes, max_group));
  }
}

TEST(BatchedSubgraphTest, SharedCandidatePairsCollapse) {
  // Two targets proposing the same edge (each is the other's candidate)
  // must share one slot pair without corrupting either per-target view.
  Fixture* f = SharedFixture();
  const Graph& g = f->data.graph;
  int64_t a = -1, b = -1;
  for (int64_t u = 0; u < g.num_nodes() && a < 0; ++u)
    for (int64_t v = u + 1; v < g.num_nodes() && a < 0; ++v)
      if (!g.HasEdge(u, v) && g.Degree(u) >= 1 && g.Degree(v) >= 1) {
        a = u;
        b = v;
      }
  ASSERT_GE(a, 0);
  const BatchedSubgraphView bview = BuildBatchedSubgraphView(
      *g.CsrAdjacency().pattern(), {a, b}, /*hops=*/-1, {{b}, {a}});
  ASSERT_TRUE(bview.pattern->CheckInvariants());
  const auto& va = bview.per_target[0];
  const auto& vb = bview.per_target[1];
  // Both views address the same two directed nnz slots.
  EXPECT_EQ(va.slot_nnz[static_cast<size_t>(va.num_edges())],
            vb.slot_nnz[static_cast<size_t>(vb.num_edges())]);
}

}  // namespace
}  // namespace geattack
