// Tests for GNNExplainer and PGExplainer: the explanations must be
// deterministic, confined to the computation subgraph, and must surface
// influential (adversarial) edges — the paper's §3 premise.

#include <algorithm>

#include "gtest/gtest.h"
#include "src/attack/attack.h"
#include "src/attack/fga.h"
#include "src/eval/metrics.h"
#include "src/eval/pipeline.h"
#include "src/explain/gnn_explainer.h"
#include "src/explain/pg_explainer.h"
#include "src/graph/generators.h"
#include "src/nn/trainer.h"

namespace geattack {
namespace {

struct Fixture {
  GraphData data;
  Split split;
  Gcn model;
  Tensor adjacency;
  Tensor logits;
};

Fixture MakeFixture(uint64_t seed) {
  Rng rng(seed);
  CitationGraphConfig cfg;
  cfg.num_nodes = 120;
  cfg.num_edges = 320;
  cfg.num_classes = 3;
  cfg.feature_dim = 48;
  GraphData data =
      KeepLargestConnectedComponent(GenerateCitationGraph(cfg, &rng));
  Split split = MakeSplit(data, 0.1, 0.1, &rng);
  TrainConfig tc;
  tc.hidden_dim = 16;
  Gcn model = TrainNewGcn(data, split, tc, &rng);
  Tensor adjacency = data.graph.DenseAdjacency();
  Tensor logits = model.LogitsFromRaw(adjacency, data.features);
  return {std::move(data), std::move(split), std::move(model),
          std::move(adjacency), std::move(logits)};
}

GnnExplainerConfig FastExplainerConfig() {
  GnnExplainerConfig cfg;
  cfg.epochs = 60;
  return cfg;
}

TEST(GnnExplainerTest, RankedEdgesWithinComputationSubgraph) {
  // The graph-native explainer ranks exactly the computation-subgraph
  // edges (edges outside the receptive field have zero influence).
  Fixture f = MakeFixture(1);
  GnnExplainer explainer(&f.model, &f.data.features, FastExplainerConfig());
  const int64_t node = f.split.test[0];
  Explanation e =
      explainer.Explain(f.adjacency, node, f.logits.ArgMaxRow(node));
  ASSERT_FALSE(e.ranked_edges.empty());
  const auto subgraph = f.data.graph.KHopNeighborhood(node, 2);
  for (const ScoredEdge& se : e.ranked_edges) {
    EXPECT_TRUE(std::binary_search(subgraph.begin(), subgraph.end(),
                                   se.edge.u));
    EXPECT_TRUE(std::binary_search(subgraph.begin(), subgraph.end(),
                                   se.edge.v));
    EXPECT_GE(se.weight, 0.0);
    EXPECT_LE(se.weight, 1.0);
  }
  // Ranking is sorted descending.
  for (size_t i = 1; i < e.ranked_edges.size(); ++i)
    EXPECT_GE(e.ranked_edges[i - 1].weight, e.ranked_edges[i].weight);
}

TEST(GnnExplainerTest, DeterministicGivenSeed) {
  Fixture f = MakeFixture(2);
  GnnExplainer a(&f.model, &f.data.features, FastExplainerConfig());
  GnnExplainer b(&f.model, &f.data.features, FastExplainerConfig());
  const int64_t node = f.split.test[1];
  const int64_t label = f.logits.ArgMaxRow(node);
  Explanation ea = a.Explain(f.adjacency, node, label);
  Explanation eb = b.Explain(f.adjacency, node, label);
  ASSERT_EQ(ea.ranked_edges.size(), eb.ranked_edges.size());
  for (size_t i = 0; i < ea.ranked_edges.size(); ++i) {
    EXPECT_EQ(ea.ranked_edges[i].edge, eb.ranked_edges[i].edge);
    EXPECT_DOUBLE_EQ(ea.ranked_edges[i].weight, eb.ranked_edges[i].weight);
  }
}

TEST(GnnExplainerTest, DetectsFgaAdversarialEdges) {
  // §3 premise: attack a node with FGA-T, then the explainer should rank
  // the adversarial edges highly.
  Fixture f = MakeFixture(3);
  Rng rng(33);
  AttackContext ctx = MakeAttackContext(f.data, f.model);
  auto targets = SelectTargetNodes(f.data, f.logits, f.split.test,
                                   {.top_margin = 3, .bottom_margin = 3,
                                    .random = 4},
                                   &rng);
  auto prepared = PrepareTargets(ctx, targets, &rng);
  ASSERT_GE(prepared.size(), 3u);

  GnnExplainer explainer(&f.model, &f.data.features, FastExplainerConfig());
  const FgaAttack fga(/*targeted=*/true);
  double total_ndcg = 0.0;
  int64_t evaluated = 0;
  for (const auto& t : prepared) {
    AttackRequest req{t.node, t.target_label, t.budget};
    AttackResult result = fga.Attack(ctx, req, &rng);
    if (result.added_edges.empty()) continue;
    const Tensor attacked = DensePerturbedAdjacency(ctx, result.added_edges);
    const Tensor logits = f.model.LogitsFromRaw(attacked, f.data.features);
    Explanation e =
        explainer.Explain(attacked, t.node, logits.ArgMaxRow(t.node));
    DetectionMetrics d = ComputeDetection(e, result.added_edges, 20, 15);
    total_ndcg += d.ndcg;
    ++evaluated;
  }
  ASSERT_GT(evaluated, 0);
  // On average the gradient attack's edges must be clearly visible.
  EXPECT_GT(total_ndcg / static_cast<double>(evaluated), 0.25);
}

TEST(GnnExplainerTest, SparseEdgeListPathDetectsAdversarialEdges) {
  // The O(|E_sub|·h) graph-native path must behave like an inspector: its
  // mask ranks FGA-T's adversarial edges highly, within the k-hop subgraph.
  Fixture f = MakeFixture(3);
  Rng rng(34);
  AttackContext ctx = MakeAttackContext(f.data, f.model);
  auto targets = SelectTargetNodes(f.data, f.logits, f.split.test,
                                   {.top_margin = 3, .bottom_margin = 3,
                                    .random = 4},
                                   &rng);
  auto prepared = PrepareTargets(ctx, targets, &rng);
  ASSERT_GE(prepared.size(), 1u);
  if (prepared.size() > 4) prepared.resize(4);

  GnnExplainer explainer(&f.model, &f.data.features, FastExplainerConfig());
  const FgaAttack fga(/*targeted=*/true);
  double total_ndcg = 0.0;
  int64_t evaluated = 0;
  for (const auto& t : prepared) {
    AttackRequest req{t.node, t.target_label, t.budget};
    AttackResult result = fga.Attack(ctx, req, &rng);
    if (result.added_edges.empty()) continue;
    const Graph perturbed =
        Graph::FromDense(DensePerturbedAdjacency(ctx, result.added_edges));
    const Tensor logits =
        f.model.LogitsFromGraph(perturbed, f.data.features);
    Explanation e = explainer.Explain(perturbed, t.node,
                                      logits.ArgMaxRow(t.node));
    // Subgraph-restricted ranking: every ranked edge is a real edge of the
    // target's 2-hop neighborhood.
    for (const ScoredEdge& se : e.ranked_edges)
      EXPECT_TRUE(perturbed.HasEdge(se.edge.u, se.edge.v));
    DetectionMetrics d = ComputeDetection(e, result.added_edges, 20, 15);
    total_ndcg += d.ndcg;
    ++evaluated;
  }
  ASSERT_GT(evaluated, 0);
  EXPECT_GT(total_ndcg / static_cast<double>(evaluated), 0.25);
}

TEST(PgExplainerTest, DenseTrainAdapterMatchesGraphTrain) {
  // The dense Train overload is a reference adapter (one implementation,
  // two surfaces), so the learned ψ — and hence the explanations — are
  // bit-identical to the graph-native Train.
  Fixture f = MakeFixture(4);
  std::vector<int64_t> instances(f.split.train.begin(),
                                 f.split.train.begin() + 5);
  const std::vector<int64_t> labels = PredictLabels(f.logits);

  PgExplainerConfig cfg;
  cfg.epochs = 10;
  PgExplainer dense(&f.model, &f.data.features, cfg);
  dense.Train(f.adjacency, instances, labels);
  PgExplainer sparse(&f.model, &f.data.features, cfg);
  sparse.Train(f.data.graph, instances, labels);

  EXPECT_EQ(dense.params().w1.MaxAbsDiff(sparse.params().w1), 0.0);
  EXPECT_EQ(dense.params().w2.MaxAbsDiff(sparse.params().w2), 0.0);

  const int64_t node = f.split.test[0];
  const int64_t label = f.logits.ArgMaxRow(node);
  Explanation de = dense.Explain(f.adjacency, node, label);
  Explanation se = sparse.Explain(f.data.graph, node, label);
  ASSERT_EQ(de.ranked_edges.size(), se.ranked_edges.size());
  for (size_t i = 0; i < de.ranked_edges.size(); ++i) {
    EXPECT_EQ(de.ranked_edges[i].edge, se.ranked_edges[i].edge);
    EXPECT_EQ(de.ranked_edges[i].weight, se.ranked_edges[i].weight);
  }
}

TEST(PgExplainerTest, TrainsAndExplains) {
  Fixture f = MakeFixture(4);
  PgExplainerConfig cfg;
  cfg.epochs = 20;
  PgExplainer explainer(&f.model, &f.data.features, cfg);
  std::vector<int64_t> instances(f.split.train.begin(),
                                 f.split.train.begin() + 8);
  std::vector<int64_t> labels = PredictLabels(f.logits);
  explainer.Train(f.adjacency, instances, labels);
  EXPECT_TRUE(explainer.trained());

  const int64_t node = f.split.test[0];
  Explanation e = explainer.Explain(f.adjacency, node,
                                    f.logits.ArgMaxRow(node));
  ASSERT_FALSE(e.ranked_edges.empty());
  for (const ScoredEdge& se : e.ranked_edges) {
    EXPECT_GE(se.weight, 0.0);
    EXPECT_LE(se.weight, 1.0);
  }
}

TEST(PgExplainerTest, InductiveAcrossNodesWithoutRetraining) {
  Fixture f = MakeFixture(5);
  PgExplainerConfig cfg;
  cfg.epochs = 15;
  PgExplainer explainer(&f.model, &f.data.features, cfg);
  std::vector<int64_t> instances(f.split.train.begin(),
                                 f.split.train.begin() + 6);
  explainer.Train(f.adjacency, instances, PredictLabels(f.logits));
  // Explaining several unseen nodes must work with the same parameters.
  for (int64_t node : {f.split.test[0], f.split.test[3], f.split.test[6]}) {
    Explanation e =
        explainer.Explain(f.adjacency, node, f.logits.ArgMaxRow(node));
    EXPECT_EQ(e.node, node);
  }
}

TEST(PgEdgeLogitsTest, ShapeAndGradientFlow) {
  Rng rng(6);
  Var hidden = Var::Leaf(rng.NormalTensor(10, 4, 0, 1), true, "H");
  std::vector<IndexPair> pairs = {{0, 1}, {1, 2}, {3, 4}};
  Var w1 = Var::Leaf(rng.GlorotTensor(12, 8), true);
  Var b1 = Var::Leaf(Tensor(1, 8), true);
  Var w2 = Var::Leaf(rng.GlorotTensor(8, 1), true);
  Var omega = PgEdgeLogits(hidden, pairs, 5, w1, b1, w2);
  EXPECT_EQ(omega.rows(), 3);
  EXPECT_EQ(omega.cols(), 1);
  auto grads = Grad(Sum(omega), {hidden, w1, w2});
  EXPECT_GT(grads[0].value().Norm(), 0.0);
  EXPECT_GT(grads[1].value().Norm(), 0.0);
  EXPECT_GT(grads[2].value().Norm(), 0.0);
}

TEST(ExplanationTest, TopEdgesAndRankOf) {
  Explanation e;
  e.ranked_edges = {{Edge(0, 1), 0.9}, {Edge(1, 2), 0.5}, {Edge(2, 3), 0.1}};
  auto top2 = e.TopEdges(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0], Edge(0, 1));
  EXPECT_EQ(e.RankOf(Edge(2, 3)), 2);
  EXPECT_EQ(e.RankOf(Edge(5, 6)), -1);
  EXPECT_EQ(e.TopEdges(10).size(), 3u);
}

TEST(ExplanationTest, RankIndexMatchesLinearRankOf) {
  Explanation e;
  e.ranked_edges = {{Edge(4, 7), 0.9}, {Edge(1, 2), 0.5}, {Edge(0, 9), 0.5},
                    {Edge(2, 3), 0.1}};
  const RankIndex index(e);
  EXPECT_EQ(index.size(), 4);
  for (const ScoredEdge& se : e.ranked_edges)
    EXPECT_EQ(index.RankOf(se.edge), e.RankOf(se.edge));
  EXPECT_EQ(index.RankOf(Edge(5, 6)), -1);
  EXPECT_EQ(index.RankOf(Edge(0, 1)), -1);
}

TEST(ExplanationTest, SortStableDeterministicTies) {
  std::vector<ScoredEdge> edges = {{Edge(3, 4), 0.5}, {Edge(0, 1), 0.5},
                                   {Edge(1, 2), 0.7}};
  SortScoredEdges(&edges);
  EXPECT_EQ(edges[0].edge, Edge(1, 2));
  EXPECT_EQ(edges[1].edge, Edge(0, 1));  // Tie broken by canonical order.
  EXPECT_EQ(edges[2].edge, Edge(3, 4));
}

}  // namespace
}  // namespace geattack
