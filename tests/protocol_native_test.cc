// Bit-identity suites for the graph-native protocol surfaces.
//
// Every dense overload in the explain/defend protocol is a reference
// adapter (`Graph::FromDense` + delegate) over the graph-native primary.
// These tests pin that contract: explainer rankings (weights AND tie-break
// order) and DefenseOutcomes must be exactly identical — not close — across
// the two surfaces, for all three explainers and both defense modes, on
// clean and attacked graphs.  If someone ever re-introduces a second dense
// implementation, the drift fails here first.

#include <algorithm>

#include "gtest/gtest.h"
#include "src/attack/fga.h"
#include "src/defense/inspector_defense.h"
#include "src/eval/pipeline.h"
#include "src/eval/protocol.h"
#include "src/explain/gnn_explainer.h"
#include "src/explain/grad_explainer.h"
#include "src/explain/pg_explainer.h"
#include "src/graph/generators.h"
#include "src/nn/trainer.h"

namespace geattack {
namespace {

struct Fixture {
  GraphData data;
  Split split;
  Gcn model;
  AttackContext ctx;          // Dense + sparse.
  PreparedTarget target;      // One FGA-flippable victim.
  AttackResult attacked;      // FGA-T result at `target`.
  Tensor attacked_dense;      // DensePerturbedAdjacency of its edges.
  Graph perturbed;            // Clean graph + attacked.added_edges.
  int64_t predicted = -1;     // Post-attack prediction at the target.
};

Fixture* SharedFixture() {
  static Fixture* f = [] {
    Rng rng(11);
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
    auto* fx = new Fixture{std::move(data),     std::move(split),
                           std::move(model),    AttackContext{},
                           PreparedTarget{},    AttackResult{},
                           Tensor(),            Graph(0),
                           -1};
    fx->ctx = MakeAttackContext(fx->data, fx->model);

    const auto prepared = PrepareTargets(fx->ctx, fx->split.test, &rng);
    GEA_CHECK(!prepared.empty());
    fx->target = prepared.front();

    const FgaAttack fga(/*targeted=*/true);
    AttackRequest req{fx->target.node, fx->target.target_label,
                      fx->target.budget};
    Rng attack_rng(21);
    fx->attacked = fga.Attack(fx->ctx, req, &attack_rng);
    fx->attacked_dense =
        DensePerturbedAdjacency(fx->ctx, fx->attacked.added_edges);
    fx->perturbed = fx->data.graph;
    for (const Edge& e : fx->attacked.added_edges)
      fx->perturbed.AddEdge(e.u, e.v);
    fx->predicted = fx->model
                        .LogitsFromRaw(fx->attacked_dense, fx->data.features)
                        .ArgMaxRow(fx->target.node);
    return fx;
  }();
  return f;
}

/// Exact ranking equality: same edges in the same order with bitwise-equal
/// weights (ties included — the adapters must not even reorder ties).
void ExpectIdenticalRanking(const Explanation& a, const Explanation& b) {
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.label, b.label);
  ASSERT_EQ(a.ranked_edges.size(), b.ranked_edges.size());
  for (size_t i = 0; i < a.ranked_edges.size(); ++i) {
    EXPECT_EQ(a.ranked_edges[i].edge, b.ranked_edges[i].edge) << "rank " << i;
    EXPECT_EQ(a.ranked_edges[i].weight, b.ranked_edges[i].weight)
        << "rank " << i;
  }
}

void CheckExplainerBitIdentity(const Explainer& explainer) {
  Fixture* f = SharedFixture();
  // Clean graph, true label.
  ExpectIdenticalRanking(
      explainer.Explain(f->ctx.clean_adjacency, f->target.node,
                        f->target.true_label),
      explainer.Explain(f->data.graph, f->target.node, f->target.true_label));
  // Attacked graph, post-attack prediction (the §5.1 inspect step).
  ExpectIdenticalRanking(
      explainer.Explain(f->attacked_dense, f->target.node, f->predicted),
      explainer.Explain(f->perturbed, f->target.node, f->predicted));
}

TEST(ProtocolNativeTest, GnnExplainerDenseAdapterBitIdentical) {
  Fixture* f = SharedFixture();
  GnnExplainerConfig cfg;
  cfg.epochs = 60;
  CheckExplainerBitIdentity(GnnExplainer(&f->model, &f->data.features, cfg));
}

TEST(ProtocolNativeTest, PgExplainerDenseAdapterBitIdentical) {
  Fixture* f = SharedFixture();
  PgExplainerConfig cfg;
  cfg.epochs = 20;
  PgExplainer explainer(&f->model, &f->data.features, cfg);
  const Tensor logits =
      f->model.LogitsFromRaw(f->ctx.clean_adjacency, f->data.features);
  std::vector<int64_t> instances(
      f->split.train.begin(),
      f->split.train.begin() +
          std::min<ptrdiff_t>(12,
                              static_cast<ptrdiff_t>(f->split.train.size())));
  explainer.Train(f->data.graph, instances, PredictLabels(logits));
  CheckExplainerBitIdentity(explainer);
}

TEST(ProtocolNativeTest, GradExplainerDenseAdapterBitIdentical) {
  Fixture* f = SharedFixture();
  CheckExplainerBitIdentity(GradExplainer(&f->model, &f->data.features));
}

/// DefenseOutcome equality across the dense adapter and the graph-native
/// primary, on the attacked graph with the true adversarial edges known.
void CheckDefenseBitIdentity(const Explainer& explainer, bool iterative) {
  Fixture* f = SharedFixture();
  InspectorDefenseConfig cfg;
  cfg.prune_top = 3;
  cfg.iterative = iterative;

  const DefenseOutcome dense = InspectAndPrune(
      f->model, f->data.features, explainer, f->attacked_dense,
      f->target.node, cfg, &f->attacked.added_edges);
  const ProtocolContext pctx = MakeProtocolContext(f->ctx, explainer);
  const DefenseOutcome native =
      InspectAndPrune(pctx, f->perturbed, f->target.node, cfg,
                      &f->attacked.added_edges);

  EXPECT_EQ(dense.pruned_edges, native.pruned_edges);
  EXPECT_EQ(dense.prediction_before, native.prediction_before);
  EXPECT_EQ(dense.prediction_after, native.prediction_after);
  EXPECT_EQ(dense.true_adversarial_pruned, native.true_adversarial_pruned);
  // The dense adapter materializes the pruned adjacency; the graph-native
  // path never builds anything n x n.
  EXPECT_TRUE(native.pruned_adjacency.empty());
  ASSERT_FALSE(dense.pruned_adjacency.empty());
  for (const Edge& e : dense.pruned_edges) {
    EXPECT_EQ(dense.pruned_adjacency.at(e.u, e.v), 0.0);
    EXPECT_EQ(dense.pruned_adjacency.at(e.v, e.u), 0.0);
  }
}

TEST(ProtocolNativeTest, DefenseBitIdenticalGnnIterative) {
  Fixture* f = SharedFixture();
  GnnExplainerConfig cfg;
  cfg.epochs = 40;
  CheckDefenseBitIdentity(GnnExplainer(&f->model, &f->data.features, cfg),
                          /*iterative=*/true);
}

TEST(ProtocolNativeTest, DefenseBitIdenticalGnnOneShot) {
  Fixture* f = SharedFixture();
  GnnExplainerConfig cfg;
  cfg.epochs = 40;
  CheckDefenseBitIdentity(GnnExplainer(&f->model, &f->data.features, cfg),
                          /*iterative=*/false);
}

TEST(ProtocolNativeTest, DefenseBitIdenticalPgBothModes) {
  Fixture* f = SharedFixture();
  PgExplainerConfig cfg;
  cfg.epochs = 20;
  PgExplainer explainer(&f->model, &f->data.features, cfg);
  const Tensor logits =
      f->model.LogitsFromRaw(f->ctx.clean_adjacency, f->data.features);
  std::vector<int64_t> instances(
      f->split.train.begin(),
      f->split.train.begin() +
          std::min<ptrdiff_t>(12,
                              static_cast<ptrdiff_t>(f->split.train.size())));
  explainer.Train(f->data.graph, instances, PredictLabels(logits));
  CheckDefenseBitIdentity(explainer, /*iterative=*/true);
  CheckDefenseBitIdentity(explainer, /*iterative=*/false);
}

TEST(ProtocolNativeTest, DefenseBitIdenticalGradBothModes) {
  Fixture* f = SharedFixture();
  const GradExplainer explainer(&f->model, &f->data.features);
  CheckDefenseBitIdentity(explainer, /*iterative=*/true);
  CheckDefenseBitIdentity(explainer, /*iterative=*/false);
}

TEST(ProtocolNativeTest, PredictAtNodeMatchesFullForward) {
  Fixture* f = SharedFixture();
  const GradExplainer explainer(&f->model, &f->data.features);
  const ProtocolContext pctx = MakeProtocolContext(f->ctx, explainer);
  const Tensor full =
      f->model.LogitsFromGraph(f->data.graph, f->data.features);
  for (size_t i = 0; i < f->split.test.size() && i < 12; ++i) {
    const int64_t node = f->split.test[i];
    EXPECT_EQ(PredictAtNode(pctx, f->data.graph, node), full.ArgMaxRow(node))
        << "node " << node;
  }
  // And on the perturbed graph at the target.
  const Tensor perturbed_full =
      f->model.LogitsFromRaw(f->attacked_dense, f->data.features);
  EXPECT_EQ(PredictAtNode(pctx, f->perturbed, f->target.node),
            perturbed_full.ArgMaxRow(f->target.node));
}

TEST(ProtocolNativeTest, ProtocolContextSharesXw1Fold) {
  Fixture* f = SharedFixture();
  const GradExplainer explainer(&f->model, &f->data.features);
  const ProtocolContext pctx = MakeProtocolContext(f->ctx, explainer);
  const Tensor expected = f->data.features.MatMul(f->model.w1());
  EXPECT_EQ(pctx.xw1().MaxAbsDiff(expected), 0.0);
  // Copies share the cached fold (same underlying state).
  const ProtocolContext copy = pctx;
  EXPECT_EQ(&copy.xw1(), &pctx.xw1());
}

TEST(ProtocolNativeTest, EvaluateAttackDefendAggregates) {
  Fixture* f = SharedFixture();
  GnnExplainerConfig ecfg;
  ecfg.epochs = 40;
  const GnnExplainer explainer(&f->model, &f->data.features, ecfg);
  const FgaAttack fga(/*targeted=*/true);
  const auto targets =
      std::vector<PreparedTarget>{f->target};

  EvalConfig cfg;
  cfg.defend = true;
  cfg.defense.prune_top = 3;
  Rng rng(31);
  const JointAttackOutcome outcome =
      EvaluateAttack(f->ctx, fga, targets, explainer, cfg, &rng);
  EXPECT_EQ(outcome.num_targets, 1);
  EXPECT_GE(outcome.mean_pruned_edges, 0.0);
  EXPECT_LE(outcome.mean_true_adversarial_pruned, outcome.mean_pruned_edges);
  EXPECT_GE(outcome.defense_recovery, 0.0);
  EXPECT_LE(outcome.defense_recovery, 1.0);

  // The defend phase must not perturb the attack/detection numbers: same
  // seeds without defending give identical asr/detection.
  EvalConfig no_defend = cfg;
  no_defend.defend = false;
  Rng rng2(31);
  const JointAttackOutcome plain =
      EvaluateAttack(f->ctx, fga, targets, explainer, no_defend, &rng2);
  EXPECT_EQ(outcome.asr, plain.asr);
  EXPECT_EQ(outcome.asr_t, plain.asr_t);
  EXPECT_EQ(outcome.detection.ndcg, plain.detection.ndcg);
}

}  // namespace
}  // namespace geattack
