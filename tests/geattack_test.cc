// Tests of the paper's core claims on the GEAttack implementation:
//   1. GEAttack attacks as successfully as the strongest baselines (ASR-T);
//   2. its adversarial edges are ranked lower by GNNExplainer than FGA-T's
//      (the joint-attack headline, Table 1);
//   3. λ = 0 degrades GEAttack to the pure graph attack of Eq. (4);
//   4. the hypergradient machinery matches the algorithmic spec.

#include "src/core/geattack.h"

#include <memory>

#include "gtest/gtest.h"
#include "src/attack/fga.h"
#include "src/core/geattack_pg.h"
#include "src/eval/pipeline.h"
#include "src/explain/gnn_explainer.h"
#include "src/explain/pg_explainer.h"
#include "src/graph/generators.h"
#include "src/nn/trainer.h"

namespace geattack {
namespace {

struct JointFixture {
  GraphData data;
  Split split;
  std::unique_ptr<Gcn> model;
  AttackContext ctx;
  std::vector<PreparedTarget> targets;
  Tensor clean_logits;
};

JointFixture* SharedFixture() {
  static JointFixture* fixture = [] {
    auto* f = new JointFixture();
    Rng rng(1234);
    CitationGraphConfig cfg;
    cfg.num_nodes = 160;
    cfg.num_edges = 420;
    cfg.num_classes = 3;
    cfg.feature_dim = 64;
    f->data = KeepLargestConnectedComponent(GenerateCitationGraph(cfg, &rng));
    f->split = MakeSplit(f->data, 0.1, 0.1, &rng);
    f->model = std::make_unique<Gcn>(
        TrainNewGcn(f->data, f->split, TrainConfig{}, &rng));
    f->ctx = MakeAttackContext(f->data, *f->model);
    f->clean_logits = f->model->LogitsFromRaw(f->ctx.clean_adjacency,
                                              f->data.features);
    auto nodes = SelectTargetNodes(
        f->data, f->clean_logits, f->split.test,
        {.top_margin = 4, .bottom_margin = 4, .random = 4}, &rng);
    f->targets = PrepareTargets(f->ctx, nodes, &rng);
    return f;
  }();
  return fixture;
}

GnnExplainerConfig InspectorConfig() {
  GnnExplainerConfig cfg;
  cfg.epochs = 60;
  return cfg;
}

TEST(GeAttackTest, HighTargetedSuccessRate) {
  JointFixture* f = SharedFixture();
  ASSERT_GE(f->targets.size(), 5u);
  GeAttack attack;
  Rng rng(1);
  int64_t success = 0;
  for (const auto& t : f->targets) {
    AttackRequest req{t.node, t.target_label, t.budget};
    AttackResult result = attack.Attack(f->ctx, req, &rng);
    if (PredictsLabel(*f->model,
                      DensePerturbedAdjacency(f->ctx, result.added_edges),
                      f->data.features, t.node, t.target_label))
      ++success;
  }
  EXPECT_GE(static_cast<double>(success) /
                static_cast<double>(f->targets.size()),
            0.8);
}

TEST(GeAttackTest, LessDetectableThanFgaT) {
  // The headline joint-attack claim (Table 1): GEAttack's NDCG/F1 under the
  // GNNExplainer inspector is lower than FGA-T's.
  JointFixture* f = SharedFixture();
  GnnExplainer inspector(f->model.get(), &f->data.features,
                         InspectorConfig());
  EvalConfig eval;
  Rng rng(2);
  const JointAttackOutcome ge =
      EvaluateAttack(f->ctx, GeAttack(), f->targets, inspector, eval, &rng);
  Rng rng2(2);
  const JointAttackOutcome fga = EvaluateAttack(
      f->ctx, FgaAttack(/*targeted=*/true), f->targets, inspector, eval,
      &rng2);
  // Both attack well...
  EXPECT_GE(ge.asr_t, 0.8);
  EXPECT_GE(fga.asr_t, 0.8);
  // ...but GEAttack's edges are substantially harder to spot.
  EXPECT_LT(ge.detection.ndcg, fga.detection.ndcg);
  EXPECT_LT(ge.detection.f1, fga.detection.f1 + 1e-9);
}

TEST(GeAttackTest, LambdaZeroMatchesPureGraphAttackSelection) {
  // With λ = 0 the objective collapses to Eq. (4); edge choices should be
  // gradient-driven only and give the same ASR-T as FGA-T.
  JointFixture* f = SharedFixture();
  GeAttackConfig cfg;
  cfg.lambda = 0.0;
  GeAttack attack(cfg);
  Rng rng(3);
  int64_t success = 0;
  for (const auto& t : f->targets) {
    AttackRequest req{t.node, t.target_label, t.budget};
    AttackResult result = attack.Attack(f->ctx, req, &rng);
    if (PredictsLabel(*f->model,
                      DensePerturbedAdjacency(f->ctx, result.added_edges),
                      f->data.features, t.node, t.target_label))
      ++success;
  }
  EXPECT_GE(static_cast<double>(success) /
                static_cast<double>(f->targets.size()),
            0.8);
}

TEST(GeAttackTest, LargeLambdaReducesDetectionFurther) {
  // Fig. 4 trend: larger λ pushes detection down (possibly at some ASR
  // cost).  Compare a small-λ and a large-λ run on the same targets.
  JointFixture* f = SharedFixture();
  GnnExplainer inspector(f->model.get(), &f->data.features,
                         InspectorConfig());
  EvalConfig eval;
  GeAttackConfig small;
  small.lambda = 0.001;
  GeAttackConfig large;
  large.lambda = 200.0;
  Rng rng1(4), rng2(4);
  const auto lo =
      EvaluateAttack(f->ctx, GeAttack(small), f->targets, inspector, eval,
                     &rng1);
  const auto hi =
      EvaluateAttack(f->ctx, GeAttack(large), f->targets, inspector, eval,
                     &rng2);
  EXPECT_LE(hi.detection.ndcg, lo.detection.ndcg + 0.05);
}

TEST(GeAttackTest, BudgetZeroIsNoop) {
  JointFixture* f = SharedFixture();
  GeAttack attack;
  Rng rng(5);
  const auto& t = f->targets[0];
  AttackRequest req{t.node, t.target_label, /*budget=*/0};
  AttackResult result = attack.Attack(f->ctx, req, &rng);
  EXPECT_TRUE(result.added_edges.empty());
}

TEST(GeAttackPgTest, AttacksAndEvadesPgExplainer) {
  // Table 2: the same bilevel scheme applies to PGExplainer.
  JointFixture* f = SharedFixture();
  PgExplainerConfig pg_cfg;
  pg_cfg.epochs = 15;
  PgExplainer pg(f->model.get(), &f->data.features, pg_cfg);
  std::vector<int64_t> instances(f->split.train.begin(),
                                 f->split.train.begin() + 8);
  pg.Train(f->ctx.clean_adjacency, instances,
           PredictLabels(f->clean_logits));

  EvalConfig eval;
  Rng rng1(6), rng2(6);
  const auto ge = EvaluateAttack(f->ctx, GeAttackPg(&pg), f->targets, pg,
                                 eval, &rng1);
  const auto fga = EvaluateAttack(f->ctx, FgaAttack(/*targeted=*/true),
                                  f->targets, pg, eval, &rng2);
  EXPECT_GE(ge.asr_t, 0.7);
  // GEAttack-PG should not be easier to catch than the explainer-oblivious
  // FGA-T under the PGExplainer inspector.
  EXPECT_LE(ge.detection.ndcg, fga.detection.ndcg + 0.05);
}

TEST(DetectionMetricsTest, PerfectAndEmptyCases) {
  Explanation e;
  e.ranked_edges = {{Edge(0, 1), 0.9}, {Edge(1, 2), 0.8}, {Edge(2, 3), 0.7}};
  // All adversarial edges at the top: recall 1, ndcg 1.
  DetectionMetrics d = ComputeDetection(e, {Edge(0, 1), Edge(1, 2)}, 20, 15);
  EXPECT_NEAR(d.recall, 1.0, 1e-12);
  EXPECT_NEAR(d.ndcg, 1.0, 1e-12);
  EXPECT_NEAR(d.precision, 2.0 / 15.0, 1e-12);
  // No adversarial edges: all zeros.
  DetectionMetrics zero = ComputeDetection(e, {}, 20, 15);
  EXPECT_EQ(zero.f1, 0.0);
  // Adversarial edge below the top-L cut is not detected.
  Explanation long_e;
  for (int i = 0; i < 30; ++i)
    long_e.ranked_edges.push_back({Edge(i, i + 1), 1.0 - 0.01 * i});
  DetectionMetrics cut = ComputeDetection(long_e, {Edge(29, 30)}, 20, 15);
  EXPECT_EQ(cut.recall, 0.0);
}

TEST(DetectionMetricsTest, RankPositionAffectsNdcgOnly) {
  Explanation top, bottom;
  for (int i = 0; i < 15; ++i) {
    top.ranked_edges.push_back({Edge(i, i + 1), 1.0 - 0.01 * i});
    bottom.ranked_edges.push_back({Edge(i, i + 1), 1.0 - 0.01 * i});
  }
  // Adversarial edge ranked 1st vs ranked 15th.
  DetectionMetrics d_top = ComputeDetection(top, {Edge(0, 1)}, 20, 15);
  DetectionMetrics d_bot = ComputeDetection(bottom, {Edge(14, 15)}, 20, 15);
  EXPECT_DOUBLE_EQ(d_top.precision, d_bot.precision);
  EXPECT_DOUBLE_EQ(d_top.recall, d_bot.recall);
  EXPECT_GT(d_top.ndcg, d_bot.ndcg);
}

TEST(RunningStatsTest, MeanAndStd) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  EXPECT_NEAR(s.stddev(), 2.138089935299395, 1e-9);  // Sample stddev.
}

TEST(SelectTargetNodesTest, OnlyCorrectlyClassified) {
  JointFixture* f = SharedFixture();
  Rng rng(8);
  auto nodes = SelectTargetNodes(f->data, f->clean_logits, f->split.test,
                                 {.top_margin = 5, .bottom_margin = 5,
                                  .random = 5},
                                 &rng);
  EXPECT_LE(nodes.size(), 15u);
  for (int64_t node : nodes)
    EXPECT_EQ(f->clean_logits.ArgMaxRow(node), f->data.labels[ZU(node)]);
}

}  // namespace
}  // namespace geattack
