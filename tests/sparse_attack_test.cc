// Dense-vs-sparse agreement tests for the attack loops: every attacker's
// candidate-edge body must pick the same adversarial edges (or reach the
// same attack loss within 1e-6) as the paper's dense n x n relaxation, kept
// below as the oracle, and the second-order candidate-value hypergradient
// must match finite differences.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "gtest/gtest.h"
#include "src/attack/driver.h"
#include "src/attack/fga.h"
#include "src/attack/ig_attack.h"
#include "src/attack/nettack.h"
#include "src/attack/rna.h"
#include "src/core/geattack.h"
#include "src/core/geattack_pg.h"
#include "src/eval/pipeline.h"
#include "src/explain/gnn_explainer.h"
#include "src/explain/pg_explainer.h"
#include "src/graph/generators.h"
#include "src/graph/subgraph.h"
#include "src/nn/linearized_gcn.h"
#include "src/nn/sparse_forward.h"
#include "src/nn/trainer.h"
#include "tests/test_util.h"

namespace geattack {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the attack loops on the dense n x n relaxation Â, as the paper
// states them (Eq. 4 for FGA-T, Eq. 7 and Algorithm 1 for GEAttack).  Every
// pick is an argmin/argmax over the full row v of an n x n gradient or
// surrogate; the library's attackers compute the same scores on a target's
// candidate-edge values.  The oracle takes no deadlines.
// ---------------------------------------------------------------------------

/// Nodes j with Â[target, j] = 0 and j != target, ascending (carrying
/// `required_label` when that is >= 0).
std::vector<int64_t> DenseCandidates(const Tensor& adjacency, int64_t target,
                                     const std::vector<int64_t>& labels,
                                     int64_t required_label) {
  std::vector<int64_t> candidates;
  for (int64_t j = 0; j < adjacency.rows(); ++j) {
    if (j == target) continue;
    if (adjacency.at(target, j) > 0.5) continue;
    if (required_label >= 0 && labels[ZU(j)] != required_label) continue;
    candidates.push_back(j);
  }
  return candidates;
}

/// The candidate j whose symmetric score Q[target,j] + Q[j,target] of the
/// gradient Q = ∇_Â L of a loss to minimize is most negative, or -1.
int64_t BestCandidateByGradient(const Tensor& gradient, int64_t target,
                                const std::vector<int64_t>& candidates) {
  int64_t best = -1;
  double best_score = std::numeric_limits<double>::infinity();
  for (int64_t j : candidates) {
    const double score = CheckFiniteScore(
        gradient.at(target, j) + gradient.at(j, target), "gradient score");
    if (score < best_score) {
      best_score = score;
      best = j;
    }
  }
  return best;
}

/// Row v of the penalty support B = 11ᵀ − I − A of the clean graph.
Tensor PenaltyRow(const AttackContext& ctx, int64_t v) {
  const int64_t n = ctx.clean_adjacency.rows();
  return (Tensor::Ones(n, n) - Tensor::Identity(n) - ctx.clean_adjacency)
      .Row(v);
}

AttackResult DenseRandomAttack(const AttackContext& ctx,
                               const AttackRequest& request, Rng* rng) {
  AttackResult result;
  Tensor adjacency = ctx.clean_adjacency;
  for (int64_t step = 0; step < request.budget; ++step) {
    const auto candidates =
        DenseCandidates(adjacency, request.target_node, ctx.data->labels,
                        request.target_label);
    if (candidates.empty()) break;
    const int64_t pick = candidates[ZU(rng->UniformInt(
        0, static_cast<int64_t>(candidates.size()) - 1))];
    AddEdgeDense(&adjacency, request.target_node, pick);
    result.added_edges.emplace_back(request.target_node, pick);
  }
  return result;
}

AttackResult DenseFga(const AttackContext& ctx, const AttackRequest& request,
                      bool targeted) {
  AttackResult result;
  Tensor adjacency = ctx.clean_adjacency;
  const GcnForwardContext& fwd = CachedForward(ctx);
  const int64_t v = request.target_node;
  for (int64_t step = 0; step < request.budget; ++step) {
    Var adj = Var::Leaf(adjacency, /*requires_grad=*/true, "A_hat");
    Var loss;
    if (targeted) {
      loss = TargetedAttackLoss(fwd, adj, v, request.target_label);
    } else {
      // Untargeted: maximize the loss of the current prediction.
      const Tensor logits =
          ctx.model->LogitsFromRaw(adjacency, ctx.data->features);
      loss = Neg(TargetedAttackLoss(fwd, adj, v, logits.ArgMaxRow(v)));
    }
    const Tensor gradient = GradOne(loss, adj).value();
    const int64_t pick = BestCandidateByGradient(
        gradient, v, DenseCandidates(adjacency, v, ctx.data->labels, -1));
    if (pick < 0) break;
    AddEdgeDense(&adjacency, v, pick);
    result.added_edges.emplace_back(v, pick);
  }
  return result;
}

AttackResult DenseIgAttack(const AttackContext& ctx,
                           const AttackRequest& request,
                           const IgAttackConfig& config) {
  AttackResult result;
  Tensor adjacency = ctx.clean_adjacency;
  const GcnForwardContext& fwd = CachedForward(ctx);
  const int64_t v = request.target_node;
  for (int64_t step = 0; step < request.budget; ++step) {
    auto candidates = DenseCandidates(adjacency, v, ctx.data->labels, -1);
    if (candidates.empty()) break;
    // Gradient shortlist: the `shortlist` most loss-decreasing candidates.
    if (config.shortlist > 0 &&
        static_cast<int64_t>(candidates.size()) > config.shortlist) {
      Var adj = Var::Leaf(adjacency, true, "A_hat");
      Var loss = TargetedAttackLoss(fwd, adj, v, request.target_label);
      const Tensor g = GradOne(loss, adj).value();
      std::sort(candidates.begin(), candidates.end(),
                [&](int64_t a, int64_t b) {
                  return g.at(v, a) + g.at(a, v) < g.at(v, b) + g.at(b, v);
                });
      candidates.resize(static_cast<size_t>(config.shortlist));
    }
    // Exact integrated gradients along each candidate's single-entry path.
    int64_t best = -1;
    double best_ig = std::numeric_limits<double>::infinity();
    for (int64_t j : candidates) {
      double ig = 0.0;
      for (int64_t k = 1; k <= config.steps; ++k) {
        const double alpha =
            static_cast<double>(k) / static_cast<double>(config.steps);
        Tensor interp = adjacency;
        interp.at(v, j) = alpha;
        interp.at(j, v) = alpha;
        Var adj = Var::Leaf(interp, true, "A_alpha");
        Var loss = TargetedAttackLoss(fwd, adj, v, request.target_label);
        const Tensor g = GradOne(loss, adj).value();
        ig += g.at(v, j) + g.at(j, v);
      }
      ig = CheckFiniteScore(ig / static_cast<double>(config.steps),
                            "integrated-gradient score");
      if (ig < best_ig) {
        best_ig = ig;
        best = j;
      }
    }
    if (best < 0) break;
    AddEdgeDense(&adjacency, v, best);
    result.added_edges.emplace_back(v, best);
  }
  return result;
}

/// Target-label margin of a surrogate logits row: Z[ŷ] − max_{c != ŷ} Z[c].
double TargetMargin(const Tensor& logits_row, int64_t target_label) {
  double other = -std::numeric_limits<double>::infinity();
  for (int64_t c = 0; c < logits_row.cols(); ++c)
    if (c != target_label) other = std::max(other, logits_row.at(0, c));
  return logits_row.at(0, target_label) - other;
}

AttackResult DenseNettack(const AttackContext& ctx,
                          const AttackRequest& request,
                          const NettackConfig& config) {
  AttackResult result;
  Tensor adjacency = ctx.clean_adjacency;
  const int64_t v = request.target_node;
  const LinearizedGcn surrogate(*ctx.model, ctx.data->features);
  const DegreeDistributionTest degree_test(
      Graph::FromDense(ctx.clean_adjacency), config.degree_test_d_min,
      config.degree_test_threshold);
  Graph current = Graph::FromDense(ctx.clean_adjacency);
  for (int64_t step = 0; step < request.budget; ++step) {
    // Each candidate is scored by the surrogate margin after adding it.
    int64_t best = -1;
    double best_margin = -std::numeric_limits<double>::infinity();
    for (int64_t j : DenseCandidates(adjacency, v, ctx.data->labels, -1)) {
      if (config.enforce_degree_test &&
          !degree_test.EdgeAdditionUnnoticeable(current, v, j)) {
        continue;
      }
      Tensor trial = adjacency;
      AddEdgeDense(&trial, v, j);
      const double margin = CheckFiniteScore(
          TargetMargin(surrogate.LogitsRow(trial, v), request.target_label),
          "surrogate margin");
      if (margin > best_margin) {
        best_margin = margin;
        best = j;
      }
    }
    if (best < 0) break;
    AddEdgeDense(&adjacency, v, best);
    current.AddEdge(v, best);
    result.added_edges.emplace_back(v, best);
  }
  return result;
}

AttackResult DenseGeAttack(const AttackContext& ctx,
                           const AttackRequest& request,
                           const GeAttackConfig& config, Rng* rng) {
  AttackResult result;
  Tensor adjacency = ctx.clean_adjacency;
  const int64_t n = adjacency.rows();
  const int64_t v = request.target_node;
  const int64_t label = request.target_label;
  const GcnForwardContext& fwd = CachedForward(ctx);
  Tensor b_row = PenaltyRow(ctx, v);
  // M⁰ is drawn once (line 3) and restarts every inner loop.
  const Tensor mask_init =
      config.mask_init_scale > 0.0
          ? rng->NormalTensor(n, n, 0.0, config.mask_init_scale)
          : Tensor::Zeros(n, n);
  for (int64_t outer = 0; outer < request.budget; ++outer) {
    Var adj = Var::Leaf(adjacency, /*requires_grad=*/true, "A_hat");
    // Inner loop (lines 5-8): differentiable explainer mimicry.
    Var mask = Var::Leaf(mask_init, /*requires_grad=*/true, "M0");
    for (int64_t t = 0; t < config.inner_steps; ++t) {
      Var inner_loss = GnnExplainer::ExplainerLoss(fwd, adj, mask, v, label);
      Var p = GradOne(inner_loss, mask, {.create_graph = true});
      mask = Sub(mask, MulScalar(p, config.eta));
    }
    // Outer objective (Eq. 7) and greedy pick (lines 9-10).
    Var attack_loss = TargetedAttackLoss(fwd, adj, v, label);
    Var penalty = Sum(Mul(SelectRow(mask, v), Constant(b_row, "B_row")));
    Var total = Add(attack_loss, MulScalar(penalty, config.lambda));
    const Tensor q = GradOne(total, adj).value();
    const int64_t pick = BestCandidateByGradient(
        q, v, DenseCandidates(adjacency, v, ctx.data->labels, -1));
    if (pick < 0) break;
    AddEdgeDense(&adjacency, v, pick);
    result.added_edges.emplace_back(v, pick);
    if (!config.keep_penalty_on_added) b_row.at(0, pick) = 0.0;
  }
  return result;
}

AttackResult DenseGeAttackPg(const AttackContext& ctx,
                             const AttackRequest& request,
                             const PgExplainer& explainer,
                             const GeAttackPgConfig& config) {
  AttackResult result;
  Tensor adjacency = ctx.clean_adjacency;
  const int64_t n = adjacency.rows();
  const int64_t v = request.target_node;
  const int64_t label = request.target_label;
  const GcnForwardContext& fwd = CachedForward(ctx);
  const int hops = explainer.config().hops;
  Tensor b_row = PenaltyRow(ctx, v);
  for (int64_t outer = 0; outer < request.budget; ++outer) {
    Var adj = Var::Leaf(adjacency, /*requires_grad=*/true, "A_hat");
    // Embeddings depend on Â differentiably: H = ReLU(norm(Â)·XW₁).
    Var hidden = Relu(MatMul(NormalizeAdjacencyVar(adj), fwd.xw1));
    const auto pairs =
        ComputationSubgraphPairs(Graph::FromDense(adjacency), v, hops);
    // Inner loop: differentiable ψ updates on the current Â, instance v.
    Var w1 = Var::Leaf(explainer.params().w1, true, "pg_w1");
    Var b1 = Var::Leaf(explainer.params().b1, true, "pg_b1");
    Var w2 = Var::Leaf(explainer.params().w2, true, "pg_w2");
    if (!pairs.empty()) {
      for (int64_t t = 0; t < config.inner_steps; ++t) {
        Var gate = Sigmoid(PgEdgeLogits(hidden, pairs, v, w1, b1, w2));
        Var masked = Add(adj, ScatterEdges(AddScalar(gate, -1.0), pairs, n));
        Var inner_loss = NllRow(GcnLogitsVar(fwd, masked), v, label);
        auto grads = Grad(inner_loss, {w1, b1, w2}, {.create_graph = true});
        w1 = Sub(w1, MulScalar(grads[0], config.eta));
        b1 = Sub(b1, MulScalar(grads[1], config.eta));
        w2 = Sub(w2, MulScalar(grads[2], config.eta));
      }
    }
    // Outer objective: attack loss + λ · mean_j ω(v, j)·B[v,j].
    const auto candidates =
        DenseCandidates(adjacency, v, ctx.data->labels, -1);
    if (candidates.empty()) break;
    std::vector<IndexPair> candidate_pairs;
    Tensor b_vec(static_cast<int64_t>(candidates.size()), 1);
    for (size_t k = 0; k < candidates.size(); ++k) {
      candidate_pairs.push_back({v, candidates[k]});
      b_vec.at(static_cast<int64_t>(k), 0) = b_row.at(0, candidates[k]);
    }
    Var omega_cand = PgEdgeLogits(hidden, candidate_pairs, v, w1, b1, w2);
    Var penalty = MulScalar(Sum(Mul(omega_cand, Constant(b_vec, "B_cand"))),
                            1.0 / static_cast<double>(candidates.size()));
    Var total = Add(TargetedAttackLoss(fwd, adj, v, label),
                    MulScalar(penalty, config.lambda));
    const Tensor q = GradOne(total, adj).value();
    const int64_t pick = BestCandidateByGradient(q, v, candidates);
    if (pick < 0) break;
    AddEdgeDense(&adjacency, v, pick);
    result.added_edges.emplace_back(v, pick);
    if (!config.keep_penalty_on_added) b_row.at(0, pick) = 0.0;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Fixtures and comparisons.
// ---------------------------------------------------------------------------

struct Fixture {
  GraphData data;
  std::unique_ptr<Gcn> model;
  AttackContext ctx;
  std::vector<PreparedTarget> targets;
};

Fixture* SharedFixture() {
  static Fixture* fixture = [] {
    auto* f = new Fixture();
    Rng rng(321);
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
    Tensor logits = f->model->LogitsFromRaw(f->ctx.clean_adjacency,
                                            f->data.features);
    auto nodes = SelectTargetNodes(
        f->data, logits, split.test,
        {.top_margin = 2, .bottom_margin = 2, .random = 2}, &rng);
    f->targets = PrepareTargets(f->ctx, nodes, &rng);
    return f;
  }();
  return fixture;
}

/// The smallest `bench_attack --quick` scenario (its MakeScenario recipe
/// and draw order): n = 300 with 3n edges, 64 features, 5 classes, and its
/// first flippable target (degree >= 2, correctly classified) with
/// budget <= 2.
struct QuickScenario {
  GraphData data;
  std::unique_ptr<Gcn> model;
  AttackContext ctx;
  PreparedTarget target;
};

QuickScenario* SharedQuickScenario() {
  static QuickScenario* scenario = [] {
    auto* s = new QuickScenario();
    const int64_t n = 300;
    Rng rng(9000 + static_cast<uint64_t>(n));
    CitationGraphConfig cfg;
    cfg.num_nodes = n;
    cfg.num_edges = 3 * n;
    cfg.num_classes = 5;
    cfg.feature_dim = 64;
    s->data = KeepLargestConnectedComponent(GenerateCitationGraph(cfg, &rng));
    const Gcn untrained({64, 16, 5}, &rng);  // The bench's draw order.
    Split split = MakeSplit(s->data, 0.1, 0.1, &rng);
    TrainConfig tc;
    tc.epochs = 20;
    tc.patience = 0;
    s->model = std::make_unique<Gcn>(TrainNewGcn(s->data, split, tc, &rng));
    s->ctx = MakeAttackContext(s->data, *s->model);
    const Tensor logits =
        s->model->LogitsFromGraph(s->data.graph, s->data.features);
    for (int64_t node : split.test) {
      if (s->data.graph.Degree(node) < 2) continue;
      if (logits.ArgMaxRow(node) != s->data.labels[ZU(node)]) continue;
      auto prepared = PrepareTargets(s->ctx, {node}, &rng, /*sparse=*/true);
      if (prepared.empty()) continue;
      s->target = prepared[0];
      s->target.budget = std::min<int64_t>(s->target.budget, 2);
      break;
    }
    return s;
  }();
  return scenario;
}

void ExpectSameEdges(const AttackResult& a, const AttackResult& b,
                     const char* what) {
  ASSERT_EQ(a.added_edges.size(), b.added_edges.size()) << what;
  for (size_t i = 0; i < a.added_edges.size(); ++i)
    EXPECT_EQ(a.added_edges[i], b.added_edges[i]) << what << " edge " << i;
}

/// -log softmax(logits)[node, label] of the post-attack victim — the attack
/// loss both paths minimize; used as the agreement fallback metric.
double AttackLoss(const AttackContext& ctx, const AttackResult& result,
                  int64_t node, int64_t label) {
  const Tensor logits = PerturbedLogits(ctx, result, /*sparse=*/true);
  double maxv = logits.at(node, 0);
  for (int64_t c = 1; c < logits.cols(); ++c)
    maxv = std::max(maxv, logits.at(node, c));
  double denom = 0.0;
  for (int64_t c = 0; c < logits.cols(); ++c)
    denom += std::exp(logits.at(node, c) - maxv);
  return -(logits.at(node, label) - maxv - std::log(denom));
}

/// Identical picks, or the same final attack loss within 1e-6 (the loss
/// fallback tolerates compiler-dependent roundoff flipping a near-tied
/// argmin).
void ExpectSamePicksOrLoss(const AttackContext& ctx, const AttackResult& a,
                           const AttackResult& b, const PreparedTarget& t,
                           const char* what) {
  if (a.added_edges == b.added_edges) return;
  EXPECT_NEAR(AttackLoss(ctx, a, t.node, t.target_label),
              AttackLoss(ctx, b, t.node, t.target_label), 1e-6)
      << what << ": different picks and attack loss";
}

TEST(SparseAttackEquivalenceTest, RandomAttackPicksIdenticalEdges) {
  // Same candidate order and draws: the picks match for any seed, with and
  // without a required label.
  Fixture* f = SharedFixture();
  const RandomAttack rna;
  for (size_t i = 0; i < 3; ++i) {
    const PreparedTarget& t = f->targets[i];
    for (const int64_t label : {t.target_label, int64_t{-1}}) {
      AttackRequest req{t.node, label, t.budget + 2};
      Rng r1(8 + i), r2(8 + i);
      ExpectSameEdges(DenseRandomAttack(f->ctx, req, &r1),
                      rna.Attack(f->ctx, req, &r2), "RNA");
    }
  }
}

TEST(SparseAttackEquivalenceTest, FgaTargetedPicksIdenticalEdges) {
  Fixture* f = SharedFixture();
  ASSERT_GE(f->targets.size(), 3u);
  const FgaAttack sparse(/*targeted=*/true);
  for (size_t i = 0; i < 3; ++i) {
    const PreparedTarget& t = f->targets[i];
    AttackRequest req{t.node, t.target_label, t.budget};
    Rng rng(1);
    const AttackResult a = DenseFga(f->ctx, req, /*targeted=*/true);
    const AttackResult b = sparse.Attack(f->ctx, req, &rng);
    ExpectSameEdges(a, b, "FGA-T");
    EXPECT_NEAR(AttackLoss(f->ctx, a, t.node, t.target_label),
                AttackLoss(f->ctx, b, t.node, t.target_label), 1e-6);
  }
}

TEST(SparseAttackEquivalenceTest, FgaUntargetedPicksIdenticalEdges) {
  Fixture* f = SharedFixture();
  const FgaAttack sparse(/*targeted=*/false);
  const PreparedTarget& t = f->targets[0];
  AttackRequest req{t.node, /*target_label=*/-1, t.budget};
  Rng rng(2);
  ExpectSameEdges(DenseFga(f->ctx, req, /*targeted=*/false),
                  sparse.Attack(f->ctx, req, &rng), "FGA");
}

TEST(SparseAttackEquivalenceTest, IgAttackPicksIdenticalEdges) {
  Fixture* f = SharedFixture();
  IgAttackConfig cfg;
  cfg.steps = 3;
  cfg.shortlist = 12;
  const IgAttack sparse(cfg);
  for (size_t i = 0; i < 2; ++i) {
    const PreparedTarget& t = f->targets[i];
    AttackRequest req{t.node, t.target_label, t.budget};
    Rng rng(3);
    ExpectSameEdges(DenseIgAttack(f->ctx, req, cfg),
                    sparse.Attack(f->ctx, req, &rng), "IG-Attack");
  }
}

TEST(SparseAttackEquivalenceTest, NettackPicksIdenticalEdges) {
  Fixture* f = SharedFixture();
  const NettackConfig cfg;
  const Nettack sparse(cfg);
  for (size_t i = 0; i < 3; ++i) {
    const PreparedTarget& t = f->targets[i];
    AttackRequest req{t.node, t.target_label, t.budget};
    Rng rng(4);
    ExpectSameEdges(DenseNettack(f->ctx, req, cfg),
                    sparse.Attack(f->ctx, req, &rng), "Nettack");
  }
}

TEST(SparseAttackEquivalenceTest, GeAttackPicksIdenticalEdges) {
  // With mask_init_scale = 0 both loops are deterministic and the sparse
  // bilevel loop (per-edge mask, η/2 step, candidate penalty vector) is a
  // faithful re-parameterization of the dense one — identical greedy picks
  // and final attack loss.
  Fixture* f = SharedFixture();
  GeAttackConfig cfg;
  cfg.mask_init_scale = 0.0;
  cfg.inner_steps = 3;
  const GeAttack sparse(cfg);
  for (size_t i = 0; i < 2; ++i) {
    const PreparedTarget& t = f->targets[i];
    AttackRequest req{t.node, t.target_label, t.budget};
    Rng r1(5), r2(5);
    const AttackResult a = DenseGeAttack(f->ctx, req, cfg, &r1);
    const AttackResult b = sparse.Attack(f->ctx, req, &r2);
    ExpectSameEdges(a, b, "GEAttack");
    EXPECT_NEAR(AttackLoss(f->ctx, a, t.node, t.target_label),
                AttackLoss(f->ctx, b, t.node, t.target_label), 1e-6);
  }
}

TEST(SparseAttackEquivalenceTest, GeAttackPgPicksIdenticalEdges) {
  Fixture* f = SharedFixture();
  PgExplainerConfig pg_cfg;
  pg_cfg.epochs = 8;
  PgExplainer pg(f->model.get(), &f->data.features, pg_cfg);
  std::vector<int64_t> instances;
  for (int64_t v = 0; v < 6; ++v) instances.push_back(v);
  const Tensor logits = f->model->LogitsFromRaw(f->ctx.clean_adjacency,
                                                f->data.features);
  pg.Train(f->ctx.clean_adjacency, instances, PredictLabels(logits));

  const GeAttackPgConfig cfg;
  const GeAttackPg sparse(&pg, cfg);
  const PreparedTarget& t = f->targets[0];
  AttackRequest req{t.node, t.target_label, t.budget};
  Rng rng(6);
  ExpectSameEdges(DenseGeAttackPg(f->ctx, req, pg, cfg),
                  sparse.Attack(f->ctx, req, &rng), "GEAttack-PG");
}

TEST(SparseAttackEquivalenceTest, QuickBenchScenarioPicksIdenticalEdges) {
  // FGA-T, and GEAttack at T = 2 with mask_init_scale = 0, on the 300-node
  // scenario: identical picks or the same final attack loss within 1e-6.
  QuickScenario* s = SharedQuickScenario();
  const PreparedTarget& t = s->target;
  ASSERT_GE(t.node, 0) << "no flippable target";
  AttackRequest req{t.node, t.target_label, t.budget};
  Rng fga_rng(103);
  const AttackResult fga =
      FgaAttack(/*targeted=*/true).Attack(s->ctx, req, &fga_rng);
  ExpectSamePicksOrLoss(s->ctx, DenseFga(s->ctx, req, /*targeted=*/true), fga,
                        t, "FGA-T");

  GeAttackConfig cfg;
  cfg.inner_steps = 2;
  cfg.mask_init_scale = 0.0;
  Rng r1(104), r2(104);
  const AttackResult ge = GeAttack(cfg).Attack(s->ctx, req, &r2);
  ExpectSamePicksOrLoss(s->ctx, DenseGeAttack(s->ctx, req, cfg, &r1), ge, t,
                        "GEAttack");
}

TEST(SparseAttackTest, RunsOnSparseOnlyContext) {
  // No dense clean adjacency at all: the attack still runs, and its result
  // is an edge list.
  Fixture* f = SharedFixture();
  const AttackContext sparse_ctx =
      MakeSparseAttackContext(f->data, *f->model);
  const PreparedTarget& t = f->targets[0];
  AttackRequest req{t.node, t.target_label, t.budget};
  Rng rng(7);
  const AttackResult result = GeAttack().Attack(sparse_ctx, req, &rng);
  EXPECT_GE(result.added_edges.size(), 1u);
  for (const Edge& e : result.added_edges) {
    EXPECT_TRUE(e.u == t.node || e.v == t.node);
    EXPECT_FALSE(f->data.graph.HasEdge(e.u, e.v));
  }
  // The incremental eval path scores it without ever densifying.
  const Tensor logits = PerturbedLogits(sparse_ctx, result, /*sparse=*/true);
  EXPECT_EQ(logits.rows(), f->data.num_nodes());
}

TEST(SparseAttackTest, RandomAttackSameOnSparseOnlyContext) {
  // RNA draws its candidates from the clean CSR, so a sparse-only context
  // (what AttackService registers) gives the dense context's picks and
  // statuses, called directly and through the driver.
  Fixture* f = SharedFixture();
  const AttackContext sparse_ctx =
      MakeSparseAttackContext(f->data, *f->model);
  const RandomAttack rna;
  std::vector<AttackRequest> requests;
  for (const PreparedTarget& t : f->targets)
    requests.push_back({t.node, t.target_label, t.budget});
  for (size_t i = 0; i < requests.size(); ++i) {
    Rng r1(20 + i), r2(20 + i);
    const AttackResult dense = rna.Attack(f->ctx, requests[i], &r1);
    const AttackResult sparse = rna.Attack(sparse_ctx, requests[i], &r2);
    EXPECT_TRUE(dense.status.ok()) << dense.status.ToString();
    EXPECT_EQ(sparse.status.code(), dense.status.code());
    EXPECT_FALSE(sparse.added_edges.empty());
    ExpectSameEdges(dense, sparse, "RNA direct");
  }
  AttackDriverConfig config;
  config.base_seed = 31;
  config.num_threads = 2;
  const std::vector<AttackResult> dense =
      RunMultiTargetAttack(f->ctx, rna, requests, config);
  const std::vector<AttackResult> sparse =
      RunMultiTargetAttack(sparse_ctx, rna, requests, config);
  ASSERT_EQ(sparse.size(), dense.size());
  for (size_t i = 0; i < dense.size(); ++i) {
    EXPECT_TRUE(dense[i].status.ok()) << dense[i].status.ToString();
    EXPECT_EQ(sparse[i].status.code(), dense[i].status.code());
    EXPECT_EQ(sparse[i].status.message(), dense[i].status.message());
    ExpectSameEdges(dense[i], sparse[i], "RNA driver");
  }
}

TEST(SparseAttackTest, CandidateHypergradientMatchesFiniteDifferences) {
  // First-order check of the *hypergradient*: the outer objective contains
  // an inner mask-descent step, so d(total)/dw rides the second-order path
  // through SpMMValues (SpmmValueGrad of SpmmValueGrad).
  Fixture* f = SharedFixture();
  const Graph& g = f->data.graph;
  const int64_t v = f->targets[0].node;
  const int64_t label = f->targets[0].target_label;
  std::vector<int64_t> candidates;
  for (int64_t j = 0; j < g.num_nodes() && candidates.size() < 4; ++j)
    if (j != v && !g.HasEdge(v, j)) candidates.push_back(j);
  const SubgraphView view = BuildSubgraphView(g, v, 2, candidates);
  const SparseAttackForward sf = MakeSparseAttackForward(
      view, *f->model, f->data.features.MatMul(f->model->w1()));
  Rng rng(11);
  const Tensor mask0 =
      rng.NormalTensor(view.num_slots(), 1, 0.0, 0.05);

  auto fn = [&](const Var& w) -> Var {
    Var mu = Var::Leaf(mask0, /*requires_grad=*/true, "M0");
    for (int t = 0; t < 2; ++t) {
      Var a_und = UndirectedValuesFromCandidates(sf, w);
      Var masked = Mul(a_und, Sigmoid(mu));
      Var values = DirectedFromUndirected(sf, masked);
      Var inner = NllRow(SparseGcnLogitsVar(sf, values), view.target_local,
                         label);
      Var p = GradOne(inner, mu, {.create_graph = true});
      mu = Sub(mu, MulScalar(p, 0.15));
    }
    Var attack = NllRow(
        SparseGcnLogitsVar(sf, RawValuesFromCandidates(sf, w)),
        view.target_local, label);
    Var mu_cand = SpMM(view.cand_slot_take, mu);
    return Add(attack, MulScalar(Sum(mu_cand), 2.0));
  };
  Rng wr(13);
  const Tensor w0 = wr.UniformTensor(view.num_candidates(), 1, 0.2, 0.8);
  geattack::testing::ExpectGradientsMatch(fn, w0, 5e-5);
}

}  // namespace
}  // namespace geattack
