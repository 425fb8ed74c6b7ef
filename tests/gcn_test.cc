// Tests for the GCN model, trainer, Adam, and linearized surrogate.

#include "src/nn/gcn.h"

#include <cmath>

#include "gtest/gtest.h"
#include "src/eval/pipeline.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/nn/adam.h"
#include "src/nn/linearized_gcn.h"
#include "src/nn/trainer.h"
#include "tests/test_util.h"

namespace geattack {
namespace {

GraphData TestData(uint64_t seed = 1) {
  Rng rng(seed);
  CitationGraphConfig cfg;
  cfg.num_nodes = 150;
  cfg.num_edges = 400;
  cfg.num_classes = 3;
  cfg.feature_dim = 48;
  return KeepLargestConnectedComponent(GenerateCitationGraph(cfg, &rng));
}

TEST(GcnTest, ShapesAndDeterminism) {
  GraphData data = TestData();
  Rng rng(2);
  Gcn model({data.feature_dim(), 8, data.num_classes}, &rng);
  Tensor norm = NormalizeAdjacency(data.graph.DenseAdjacency());
  Tensor logits = model.Logits(norm, data.features);
  EXPECT_EQ(logits.rows(), data.num_nodes());
  EXPECT_EQ(logits.cols(), data.num_classes);
  EXPECT_TRUE(logits.AllFinite());
  EXPECT_LE(logits.MaxAbsDiff(model.Logits(norm, data.features)), 0.0);
}

TEST(GcnTest, LogitsVarMatchesTensorPath) {
  GraphData data = TestData();
  Rng rng(3);
  Gcn model({data.feature_dim(), 8, data.num_classes}, &rng);
  Tensor adj = data.graph.DenseAdjacency();
  Tensor direct = model.LogitsFromRaw(adj, data.features);
  GcnForwardContext ctx = MakeForwardContext(model, data.features);
  Var logits = GcnLogitsVar(ctx, Constant(adj));
  EXPECT_LE(logits.value().MaxAbsDiff(direct), 1e-9);
}

TEST(GcnTest, CrossEntropyRowsMatchesManualNll) {
  GraphData data = TestData();
  Rng rng(4);
  Gcn model({data.feature_dim(), 8, data.num_classes}, &rng);
  Tensor norm = NormalizeAdjacency(data.graph.DenseAdjacency());
  Var logits = Constant(model.Logits(norm, data.features));
  std::vector<int64_t> nodes = {0, 5, 9};
  Var ce = CrossEntropyRows(logits, nodes, data.labels);
  double manual = 0.0;
  for (int64_t node : nodes)
    manual += NllRow(logits, node, data.labels[ZU(node)]).value().scalar();
  manual /= static_cast<double>(nodes.size());
  EXPECT_NEAR(ce.value().scalar(), manual, 1e-10);
}

TEST(GcnTest, MarginSignMatchesCorrectness) {
  GraphData data = TestData();
  Rng rng(5);
  Gcn model({data.feature_dim(), 8, data.num_classes}, &rng);
  Tensor norm = NormalizeAdjacency(data.graph.DenseAdjacency());
  Tensor logits = model.Logits(norm, data.features);
  for (int64_t node : {0, 1, 2, 3, 4}) {
    const int64_t pred = logits.ArgMaxRow(node);
    const double margin_pred = ClassificationMargin(logits, node, pred);
    EXPECT_GE(margin_pred, 0.0);
    const int64_t other = (pred + 1) % data.num_classes;
    EXPECT_LE(ClassificationMargin(logits, node, other), 0.0);
  }
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize (x - 3)^2 + (y + 1)^2.
  Tensor param(1, 2, {10.0, -10.0});
  Adam adam({.lr = 0.2});
  adam.Register(&param);
  for (int i = 0; i < 300; ++i) {
    Tensor grad(1, 2,
                {2.0 * (param.at(0, 0) - 3.0), 2.0 * (param.at(0, 1) + 1.0)});
    adam.Step({grad});
  }
  EXPECT_NEAR(param.at(0, 0), 3.0, 1e-2);
  EXPECT_NEAR(param.at(0, 1), -1.0, 1e-2);
}

TEST(AdamTest, WeightDecayShrinksWeights) {
  Tensor param(1, 1, {5.0});
  Adam adam({.lr = 0.1, .weight_decay = 1.0});
  adam.Register(&param);
  for (int i = 0; i < 200; ++i) adam.Step({Tensor(1, 1, {0.0})});
  EXPECT_NEAR(param.scalar(), 0.0, 0.05);
}

TEST(TrainerTest, ReachesHighAccuracyOnSyntheticCitation) {
  GraphData data = TestData(11);
  Rng rng(12);
  Split split = MakeSplit(data, 0.1, 0.1, &rng);
  TrainResult result;
  Gcn model = TrainNewGcn(data, split, TrainConfig{}, &rng, &result);
  // Homophilous informative-feature graph: a GCN should classify well, as
  // it does on the paper's real citation datasets.
  EXPECT_GT(result.test_accuracy, 0.75) << "epochs=" << result.epochs_run;
  EXPECT_GT(result.train_accuracy, 0.85);
}

TEST(TrainerTest, TrainingImprovesOverInit) {
  GraphData data = TestData(13);
  Rng rng(14);
  Split split = MakeSplit(data, 0.1, 0.1, &rng);
  GcnConfig cfg{data.feature_dim(), 16, data.num_classes};
  Gcn model(cfg, &rng);
  Tensor norm = NormalizeAdjacency(data.graph.DenseAdjacency());
  const double before =
      Accuracy(model.Logits(norm, data.features), data.labels, split.test);
  TrainResult result = TrainGcn(data, split, TrainConfig{}, &model);
  EXPECT_GT(result.test_accuracy, before + 0.2);
}

TEST(TrainerTest, EarlyStoppingBoundsEpochs) {
  GraphData data = TestData(15);
  Rng rng(16);
  Split split = MakeSplit(data, 0.1, 0.1, &rng);
  TrainConfig cfg;
  cfg.epochs = 1000;
  cfg.patience = 10;
  TrainResult result;
  TrainNewGcn(data, split, cfg, &rng, &result);
  EXPECT_LT(result.epochs_run, 1000);
}

TEST(LinearizedGcnTest, LogitsRowMatchesFullLogits) {
  GraphData data = TestData(17);
  Rng rng(18);
  Gcn model({data.feature_dim(), 8, data.num_classes}, &rng);
  LinearizedGcn lin(model, data.features);
  Tensor adj = data.graph.DenseAdjacency();
  Tensor full = lin.Logits(adj);
  for (int64_t node : {0, 3, 7}) {
    Tensor row = lin.LogitsRow(adj, node);
    for (int64_t c = 0; c < data.num_classes; ++c)
      EXPECT_NEAR(row.at(0, c), full.at(node, c), 1e-9);
  }
}

TEST(LinearizedGcnTest, CorrelatesWithNonlinearModel) {
  GraphData data = TestData(19);
  Rng rng(20);
  Split split = MakeSplit(data, 0.1, 0.1, &rng);
  Gcn model = TrainNewGcn(data, split, TrainConfig{}, &rng);
  LinearizedGcn lin(model, data.features);
  Tensor adj = data.graph.DenseAdjacency();
  Tensor full = model.LogitsFromRaw(adj, data.features);
  Tensor sur = lin.Logits(adj);
  // The surrogate should agree with the trained GCN on most predictions.
  int64_t agree = 0;
  for (int64_t i = 0; i < data.num_nodes(); ++i)
    if (full.ArgMaxRow(i) == sur.ArgMaxRow(i)) ++agree;
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(data.num_nodes()),
            0.7);
}

TEST(DegreeTestTest, TypicalAdditionAccepted) {
  Rng rng(21);
  GraphData data = TestData(21);
  DegreeDistributionTest test(data.graph);
  // Adding one edge between two medium-degree nodes barely moves the
  // power-law fit: must be unnoticeable.
  int64_t u = -1, v = -1;
  for (int64_t i = 0; i < data.num_nodes() && (u < 0 || v < 0); ++i) {
    if (data.graph.Degree(i) >= 2 && data.graph.Degree(i) <= 4) {
      (u < 0 ? u : v) = i;
    }
  }
  ASSERT_GE(u, 0);
  ASSERT_GE(v, 0);
  EXPECT_TRUE(test.EdgeAdditionUnnoticeable(data.graph, u, v));
}

// ----- Sparse (CSR) forward path. -------------------------------------------

TEST(SparseGcnTest, SparseLogitsMatchDense) {
  GraphData data = TestData(40);
  Rng rng(41);
  Gcn model({data.feature_dim(), 8, data.num_classes}, &rng);
  Tensor dense = model.Logits(NormalizeAdjacency(data.graph.DenseAdjacency()),
                              data.features);
  Tensor sparse =
      model.Logits(NormalizeAdjacencyCsr(data.graph), data.features);
  EXPECT_LE(sparse.MaxAbsDiff(dense), 1e-5);
  EXPECT_LE(model.LogitsFromGraph(data.graph, data.features)
                .MaxAbsDiff(dense),
            1e-5);
}

TEST(SparseGcnTest, SparseHiddenMatchesDense) {
  GraphData data = TestData(42);
  Rng rng(43);
  Gcn model({data.feature_dim(), 8, data.num_classes}, &rng);
  Tensor norm_dense = NormalizeAdjacency(data.graph.DenseAdjacency());
  EXPECT_LE(model.Hidden(NormalizeAdjacencyCsr(data.graph), data.features)
                .MaxAbsDiff(model.Hidden(norm_dense, data.features)),
            1e-9);
}

TEST(SparseGcnTest, SparseTrainerMatchesDenseTrainer) {
  GraphData data = TestData(44);
  Rng rng(45);
  Split split = MakeSplit(data, 0.1, 0.1, &rng);

  TrainConfig cfg;
  cfg.epochs = 30;
  cfg.patience = 0;  // Deterministic epoch count on both paths.

  Rng rng_sparse(46), rng_dense(46);
  cfg.use_sparse = true;
  TrainResult sparse_result;
  Gcn sparse_model =
      TrainNewGcn(data, split, cfg, &rng_sparse, &sparse_result);
  cfg.use_sparse = false;
  TrainResult dense_result;
  Gcn dense_model = TrainNewGcn(data, split, cfg, &rng_dense, &dense_result);

  // Same math, same seeds: weights and logits agree to accumulated roundoff.
  EXPECT_LE(sparse_model.w1().MaxAbsDiff(dense_model.w1()), 1e-6);
  EXPECT_LE(sparse_model.w2().MaxAbsDiff(dense_model.w2()), 1e-6);
  EXPECT_LE(sparse_result.final_logits.MaxAbsDiff(dense_result.final_logits),
            1e-5);
  EXPECT_NEAR(sparse_result.test_accuracy, dense_result.test_accuracy, 1e-9);
}

TEST(SparseGcnTest, PerturbedLogitsSparseMatchesDense) {
  GraphData data = TestData(49);
  Rng rng(50);
  Split split = MakeSplit(data, 0.1, 0.1, &rng);
  TrainConfig cfg;
  cfg.epochs = 20;
  Gcn model = TrainNewGcn(data, split, cfg, &rng);
  AttackContext ctx = MakeAttackContext(data, model);

  // A hand-built "attack result": three added edges around node 0.
  AttackResult result;
  for (int64_t v = 1; v < data.num_nodes() && result.added_edges.size() < 3;
       ++v) {
    if (!data.graph.HasEdge(0, v)) result.added_edges.emplace_back(0, v);
  }
  ASSERT_EQ(result.added_edges.size(), 3u);

  Tensor dense = PerturbedLogits(ctx, result, /*sparse=*/false);
  Tensor sparse = PerturbedLogits(ctx, result, /*sparse=*/true);
  EXPECT_LE(sparse.MaxAbsDiff(dense), 1e-5);

  // The float32 value-storage eval variant only carries the ~1e-7 relative
  // storage rounding on top of the double path — and predictions agree.
  Tensor f32 = PerturbedLogits(ctx, result, /*sparse=*/true,
                               /*f32_values=*/true);
  EXPECT_LE(f32.MaxAbsDiff(sparse), 1e-4);
  for (int64_t i = 0; i < sparse.rows(); ++i)
    EXPECT_EQ(f32.ArgMaxRow(i), sparse.ArgMaxRow(i));
}

TEST(SparseGcnTest, LinearizedSparseLogitsMatchDense) {
  GraphData data = TestData(47);
  Rng rng(48);
  Gcn model({data.feature_dim(), 8, data.num_classes}, &rng);
  LinearizedGcn lin(model, data.features);
  Tensor adj = data.graph.DenseAdjacency();
  CsrMatrix norm = NormalizeAdjacencyCsr(data.graph);
  EXPECT_LE(lin.LogitsFromNormalized(norm).MaxAbsDiff(lin.Logits(adj)), 1e-9);
  for (int64_t node : {int64_t{0}, data.num_nodes() / 2}) {
    EXPECT_LE(lin.LogitsRowFromNormalized(norm, node)
                  .MaxAbsDiff(lin.LogitsRow(adj, node)),
              1e-9);
  }
}

}  // namespace
}  // namespace geattack
