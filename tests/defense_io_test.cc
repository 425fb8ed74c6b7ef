// Tests for the GradExplainer, the inspector defense loop, and the
// serialization module.

#include <memory>
#include <sstream>

#include "gtest/gtest.h"
#include "src/attack/fga.h"
#include "src/core/geattack.h"
#include "src/defense/inspector_defense.h"
#include "src/eval/pipeline.h"
#include "src/explain/grad_explainer.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/nn/trainer.h"

namespace geattack {
namespace {

struct Fixture {
  GraphData data;
  Split split;
  std::unique_ptr<Gcn> model;
  AttackContext ctx;
  std::vector<PreparedTarget> targets;
};

Fixture* SharedFixture() {
  static Fixture* f = [] {
    auto* fx = new Fixture();
    Rng rng(31);
    CitationGraphConfig cfg;
    cfg.num_nodes = 150;
    cfg.num_edges = 400;
    cfg.num_classes = 3;
    cfg.feature_dim = 48;
    fx->data = KeepLargestConnectedComponent(GenerateCitationGraph(cfg, &rng));
    fx->split = MakeSplit(fx->data, 0.1, 0.1, &rng);
    fx->model = std::make_unique<Gcn>(
        TrainNewGcn(fx->data, fx->split, TrainConfig{}, &rng));
    fx->ctx = MakeAttackContext(fx->data, *fx->model);
    Tensor logits = fx->model->LogitsFromRaw(fx->ctx.clean_adjacency,
                                             fx->data.features);
    auto nodes = SelectTargetNodes(
        fx->data, logits, fx->split.test,
        {.top_margin = 3, .bottom_margin = 3, .random = 3}, &rng);
    fx->targets = PrepareTargets(fx->ctx, nodes, &rng);
    return fx;
  }();
  return f;
}

TEST(GradExplainerTest, RanksLoadBearingAdversarialEdgeHighly) {
  Fixture* f = SharedFixture();
  ASSERT_FALSE(f->targets.empty());
  Rng rng(1);
  const auto& t = f->targets[0];
  AttackRequest req{t.node, t.target_label, t.budget};
  const AttackResult result =
      FgaAttack(/*targeted=*/true).Attack(f->ctx, req, &rng);
  ASSERT_FALSE(result.added_edges.empty());

  GradExplainer explainer(f->model.get(), &f->data.features);
  const Tensor attacked = DensePerturbedAdjacency(f->ctx, result.added_edges);
  const Tensor logits = f->model->LogitsFromRaw(attacked, f->data.features);
  const Explanation e =
      explainer.Explain(attacked, t.node, logits.ArgMaxRow(t.node));
  // At least one adversarial edge within the top-10 saliency ranking.
  bool found = false;
  for (const Edge& edge : result.added_edges)
    if (e.RankOf(edge) >= 0 && e.RankOf(edge) < 10) found = true;
  EXPECT_TRUE(found);
}

TEST(GradExplainerTest, ZeroGradientOutsideReceptiveField) {
  Fixture* f = SharedFixture();
  GradExplainer explainer(f->model.get(), &f->data.features);
  const int64_t node = f->targets[0].node;
  const Explanation e =
      explainer.Explain(f->ctx.clean_adjacency, node,
                        f->data.labels[ZU(node)]);
  // All ranked edges lie within the 2-hop subgraph by construction.
  const auto subgraph = f->data.graph.KHopNeighborhood(node, 2);
  for (const ScoredEdge& se : e.ranked_edges) {
    EXPECT_TRUE(std::binary_search(subgraph.begin(), subgraph.end(),
                                   se.edge.u));
    EXPECT_TRUE(std::binary_search(subgraph.begin(), subgraph.end(),
                                   se.edge.v));
  }
}

TEST(InspectorDefenseTest, RecoversFromGradientAttack) {
  Fixture* f = SharedFixture();
  GradExplainer inspector(f->model.get(), &f->data.features);
  Rng rng(2);
  int64_t recovered = 0, attacked = 0;
  for (const auto& t : f->targets) {
    AttackRequest req{t.node, t.target_label, t.budget};
    const AttackResult result =
        FgaAttack(/*targeted=*/true).Attack(f->ctx, req, &rng);
    const Tensor perturbed =
        DensePerturbedAdjacency(f->ctx, result.added_edges);
    const Tensor logits = f->model->LogitsFromRaw(perturbed, f->data.features);
    if (logits.ArgMaxRow(t.node) != t.target_label) continue;
    ++attacked;
    InspectorDefenseConfig cfg;
    cfg.prune_top = 2 * t.budget;  // Analyst budget: up to all incident edges.
    const DefenseOutcome d = InspectAndPrune(
        *f->model, f->data.features, inspector, perturbed, t.node, cfg,
        &result.added_edges);
    if (d.prediction_after == t.true_label) ++recovered;
  }
  ASSERT_GT(attacked, 0);
  // The paper's premise: pruning the top-ranked edges usually restores the
  // prediction when the attack is explainer-oblivious.
  EXPECT_GE(static_cast<double>(recovered) / static_cast<double>(attacked),
            0.5);
}

TEST(InspectorDefenseTest, PrunesOnlyIncidentEdgesWithinLimit) {
  Fixture* f = SharedFixture();
  GradExplainer inspector(f->model.get(), &f->data.features);
  const auto& t = f->targets[0];
  InspectorDefenseConfig cfg;
  cfg.prune_top = 2;
  const DefenseOutcome d =
      InspectAndPrune(*f->model, f->data.features, inspector,
                      f->ctx.clean_adjacency, t.node, cfg);
  EXPECT_LE(d.pruned_edges.size(), 2u);
  for (const Edge& e : d.pruned_edges)
    EXPECT_TRUE(e.u == t.node || e.v == t.node);
  // Pruned adjacency stays symmetric with edges actually removed.
  for (const Edge& e : d.pruned_edges) {
    EXPECT_DOUBLE_EQ(d.pruned_adjacency.at(e.u, e.v), 0.0);
    EXPECT_DOUBLE_EQ(d.pruned_adjacency.at(e.v, e.u), 0.0);
  }
}

TEST(IoTest, GraphDataRoundTrip) {
  Fixture* f = SharedFixture();
  std::stringstream ss;
  ASSERT_TRUE(SaveGraphData(f->data, ss));
  GraphData loaded;
  ASSERT_TRUE(LoadGraphData(ss, &loaded));
  EXPECT_EQ(loaded.num_nodes(), f->data.num_nodes());
  EXPECT_EQ(loaded.graph.num_edges(), f->data.graph.num_edges());
  EXPECT_EQ(loaded.labels, f->data.labels);
  EXPECT_EQ(loaded.num_classes, f->data.num_classes);
  EXPECT_LE(loaded.features.MaxAbsDiff(f->data.features), 0.0);
  EXPECT_EQ(loaded.graph.Edges(), f->data.graph.Edges());
}

TEST(IoTest, GraphDataRejectsCorruptStreams) {
  GraphData loaded;
  std::stringstream bad_magic("not a dataset\n1 2 3\n");
  EXPECT_FALSE(LoadGraphData(bad_magic, &loaded));
  std::stringstream truncated("geadata v1\n5 1 2 4\nlabels 0 1");
  EXPECT_FALSE(LoadGraphData(truncated, &loaded));
  std::stringstream bad_label("geadata v1\n2 0 2 4\nlabels 0 7\nend\n");
  EXPECT_FALSE(LoadGraphData(bad_label, &loaded));
}

TEST(IoTest, GcnRoundTripPreservesLogits) {
  Fixture* f = SharedFixture();
  std::stringstream ss;
  ASSERT_TRUE(SaveGcn(*f->model, ss));
  Rng rng(77);
  Gcn loaded(f->model->config(), &rng);  // Different random init.
  ASSERT_TRUE(LoadGcn(ss, &loaded));
  const Tensor a = f->model->LogitsFromRaw(f->ctx.clean_adjacency,
                                           f->data.features);
  const Tensor b =
      loaded.LogitsFromRaw(f->ctx.clean_adjacency, f->data.features);
  EXPECT_LE(a.MaxAbsDiff(b), 1e-12);
}

TEST(IoTest, GcnRejectsArchitectureMismatch) {
  Fixture* f = SharedFixture();
  std::stringstream ss;
  ASSERT_TRUE(SaveGcn(*f->model, ss));
  Rng rng(78);
  GcnConfig other = f->model->config();
  other.hidden_dim += 1;
  Gcn wrong(other, &rng);
  EXPECT_FALSE(LoadGcn(ss, &wrong));
}

TEST(IoTest, FileRoundTrip) {
  Fixture* f = SharedFixture();
  const std::string path = ::testing::TempDir() + "/geattack_data.txt";
  ASSERT_TRUE(SaveGraphDataToFile(f->data, path));
  GraphData loaded;
  ASSERT_TRUE(LoadGraphDataFromFile(path, &loaded));
  EXPECT_EQ(loaded.graph.Edges(), f->data.graph.Edges());
  EXPECT_FALSE(LoadGraphDataFromFile(path + ".missing", &loaded));
}

}  // namespace
}  // namespace geattack
