// Unit tests for the autodiff engine: op semantics, graph mechanics,
// first/second-order differentiation on hand-computable cases, and Grad
// checked bit for bit against its unpruned predecessor.

#include "src/tensor/autodiff.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "gtest/gtest.h"
#include "src/tensor/random.h"
#include "src/tensor/tensor.h"

namespace geattack {
namespace {

TEST(AutodiffTest, LeafAndConstant) {
  Var x = Var::Leaf(Tensor::Scalar(3.0), true);
  EXPECT_TRUE(x.requires_grad());
  Var c = ConstantScalar(5.0);
  EXPECT_FALSE(c.requires_grad());
  EXPECT_DOUBLE_EQ(c.value().scalar(), 5.0);
}

TEST(AutodiffTest, AddValues) {
  Var a = Constant(Tensor(1, 2, {1, 2}));
  Var b = Constant(Tensor(1, 2, {10, 20}));
  EXPECT_DOUBLE_EQ(Add(a, b).value().at(0, 1), 22);
}

TEST(AutodiffTest, AddBroadcastEitherSide) {
  Var a = Constant(Tensor(2, 2, {1, 2, 3, 4}));
  Var col = Constant(Tensor(2, 1, {10, 20}));
  // Broadcast operand second and first.
  EXPECT_DOUBLE_EQ(Add(a, col).value().at(1, 1), 24);
  EXPECT_DOUBLE_EQ(Add(col, a).value().at(1, 1), 24);
}

TEST(AutodiffTest, SimpleGradAdd) {
  Var x = Var::Leaf(Tensor::Scalar(3.0), true);
  Var y = Add(x, ConstantScalar(2.0));
  Tensor g = GradOne(y, x).value();
  EXPECT_DOUBLE_EQ(g.scalar(), 1.0);
}

TEST(AutodiffTest, GradMulByConstant) {
  Var x = Var::Leaf(Tensor::Scalar(3.0), true);
  Var y = Mul(x, ConstantScalar(4.0));
  EXPECT_DOUBLE_EQ(GradOne(y, x).value().scalar(), 4.0);
}

TEST(AutodiffTest, GradSquare) {
  Var x = Var::Leaf(Tensor::Scalar(3.0), true);
  Var y = Mul(x, x);
  EXPECT_DOUBLE_EQ(GradOne(y, x).value().scalar(), 6.0);
}

TEST(AutodiffTest, GradPolynomialChain) {
  // y = (2x + 1)^2 => dy/dx = 2*(2x+1)*2 = 8x + 4; at x=1.5 -> 16.
  Var x = Var::Leaf(Tensor::Scalar(1.5), true);
  Var t = AddScalar(MulScalar(x, 2.0), 1.0);
  Var y = Mul(t, t);
  EXPECT_DOUBLE_EQ(GradOne(y, x).value().scalar(), 16.0);
}

TEST(AutodiffTest, GradAccumulatesAcrossUses) {
  // y = x*a + x*b; dy/dx = a + b.
  Var x = Var::Leaf(Tensor::Scalar(2.0), true);
  Var y = Add(Mul(x, ConstantScalar(3.0)), Mul(x, ConstantScalar(4.0)));
  EXPECT_DOUBLE_EQ(GradOne(y, x).value().scalar(), 7.0);
}

TEST(AutodiffTest, GradUnusedInputIsZero) {
  Var x = Var::Leaf(Tensor::Scalar(2.0), true);
  Var z = Var::Leaf(Tensor(2, 3, 1.0), true);
  Var y = Mul(x, x);
  Tensor gz = GradOne(y, z).value();
  EXPECT_EQ(gz.rows(), 2);
  EXPECT_EQ(gz.cols(), 3);
  EXPECT_DOUBLE_EQ(gz.Norm(), 0.0);
}

TEST(AutodiffTest, GradMatMul) {
  // y = sum(A B). dy/dA = ones * B^T, dy/dB = A^T * ones.
  Tensor at(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor bt(3, 2, {1, 0, 0, 1, 1, 1});
  Var a = Var::Leaf(at, true);
  Var b = Var::Leaf(bt, true);
  Var y = Sum(MatMul(a, b));
  auto grads = Grad(y, {a, b});
  Tensor expected_ga = Tensor::Ones(2, 2).MatMul(bt.Transposed());
  Tensor expected_gb = at.Transposed().MatMul(Tensor::Ones(2, 2));
  EXPECT_LE(grads[0].value().MaxAbsDiff(expected_ga), 1e-12);
  EXPECT_LE(grads[1].value().MaxAbsDiff(expected_gb), 1e-12);
}

TEST(AutodiffTest, GradSigmoidAtZero) {
  Var x = Var::Leaf(Tensor::Scalar(0.0), true);
  Var y = Sigmoid(x);
  EXPECT_NEAR(GradOne(y, x).value().scalar(), 0.25, 1e-12);
}

TEST(AutodiffTest, GradReluMask) {
  Var x = Var::Leaf(Tensor(1, 3, {-1, 0.5, 2}), true);
  Var y = Sum(Relu(x));
  Tensor g = GradOne(y, x).value();
  EXPECT_DOUBLE_EQ(g.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(g.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(g.at(0, 2), 1.0);
}

TEST(AutodiffTest, GradExpLog) {
  Var x = Var::Leaf(Tensor::Scalar(2.0), true);
  EXPECT_NEAR(GradOne(Exp(x), x).value().scalar(), std::exp(2.0), 1e-12);
  EXPECT_NEAR(GradOne(Log(x), x).value().scalar(), 0.5, 1e-12);
}

TEST(AutodiffTest, GradPow) {
  Var x = Var::Leaf(Tensor::Scalar(4.0), true);
  // d/dx x^{-1/2} = -1/2 x^{-3/2} = -1/16.
  EXPECT_NEAR(GradOne(Pow(x, -0.5), x).value().scalar(), -1.0 / 16.0, 1e-12);
}

TEST(AutodiffTest, GradTransposeRoundTrip) {
  Var x = Var::Leaf(Tensor(2, 3, {1, 2, 3, 4, 5, 6}), true);
  Var y = Sum(Mul(Transpose(x), Transpose(x)));
  Tensor g = GradOne(y, x).value();
  // d/dx sum(x^2) = 2x regardless of transposition.
  EXPECT_LE(g.MaxAbsDiff(x.value().MulScalar(2.0)), 1e-12);
}

TEST(AutodiffTest, GradRowSumBroadcast) {
  // y = sum(x * rowsum(x)): exercised (n,1) broadcast in both directions.
  Var x = Var::Leaf(Tensor(2, 2, {1, 2, 3, 4}), true);
  Var y = Sum(Mul(x, RowSum(x)));
  // f = sum_i (sum_j x_ij)^2 -> df/dx_ij = 2 * rowsum_i.
  Tensor g = GradOne(y, x).value();
  EXPECT_DOUBLE_EQ(g.at(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(g.at(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(g.at(1, 0), 14.0);
  EXPECT_DOUBLE_EQ(g.at(1, 1), 14.0);
}

TEST(AutodiffTest, AtAndScatter) {
  Var x = Var::Leaf(Tensor(2, 2, {1, 2, 3, 4}), true);
  Var y = At(x, 1, 0);
  EXPECT_DOUBLE_EQ(y.value().scalar(), 3.0);
  Tensor g = GradOne(y, x).value();
  EXPECT_DOUBLE_EQ(g.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(g.Sum(), 1.0);
}

TEST(AutodiffTest, SelectRowGrad) {
  Var x = Var::Leaf(Tensor(3, 2, {1, 2, 3, 4, 5, 6}), true);
  Var y = Sum(Mul(SelectRow(x, 1), SelectRow(x, 1)));
  Tensor g = GradOne(y, x).value();
  EXPECT_DOUBLE_EQ(g.at(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(g.at(1, 1), 8.0);
  EXPECT_DOUBLE_EQ(g.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(g.at(2, 1), 0.0);
}

TEST(AutodiffTest, ScatterRowValue) {
  Var r = Constant(Tensor(1, 3, {7, 8, 9}));
  Var m = ScatterRow(r, 4, 2);
  EXPECT_EQ(m.rows(), 4);
  EXPECT_DOUBLE_EQ(m.value().at(2, 1), 8.0);
  EXPECT_DOUBLE_EQ(m.value().Sum(), 24.0);
}

TEST(AutodiffTest, DetachStopsGradient) {
  Var x = Var::Leaf(Tensor::Scalar(3.0), true);
  Var y = Mul(Detach(Mul(x, x)), x);  // y = const(9) * x.
  EXPECT_DOUBLE_EQ(GradOne(y, x).value().scalar(), 9.0);
}

TEST(AutodiffTest, LogSoftmaxMatchesDirectComputation) {
  Tensor logits(2, 3, {1, 2, 3, -1, 0, 1});
  Var x = Constant(logits);
  Tensor ls = LogSoftmaxRows(x).value();
  for (int64_t i = 0; i < 2; ++i) {
    double denom = 0;
    for (int64_t j = 0; j < 3; ++j) denom += std::exp(logits.at(i, j));
    for (int64_t j = 0; j < 3; ++j)
      EXPECT_NEAR(ls.at(i, j), logits.at(i, j) - std::log(denom), 1e-12);
  }
}

TEST(AutodiffTest, LogSoftmaxStableForLargeLogits) {
  Var x = Constant(Tensor(1, 2, {1000.0, 999.0}));
  Tensor ls = LogSoftmaxRows(x).value();
  EXPECT_TRUE(ls.AllFinite());
  EXPECT_NEAR(std::exp(ls.at(0, 0)) + std::exp(ls.at(0, 1)), 1.0, 1e-9);
}

TEST(AutodiffTest, SoftmaxRowsSumToOne) {
  Rng rng(11);
  Var x = Constant(rng.NormalTensor(5, 4, 0, 3));
  Tensor sm = SoftmaxRows(x).value();
  Tensor rs = sm.RowSum();
  for (int64_t i = 0; i < 5; ++i) EXPECT_NEAR(rs.at(i, 0), 1.0, 1e-9);
}

TEST(AutodiffTest, NllRowGradIsSoftmaxMinusOneHot) {
  Tensor logits(1, 3, {0.5, 1.5, -0.5});
  Var x = Var::Leaf(logits, true);
  Var loss = NllRow(x, 0, 1);
  Tensor g = GradOne(loss, x).value();
  Tensor sm = Constant(logits).value();  // Compute softmax by hand.
  double denom = 0;
  for (int64_t j = 0; j < 3; ++j) denom += std::exp(logits.at(0, j));
  for (int64_t j = 0; j < 3; ++j) {
    double expected = std::exp(logits.at(0, j)) / denom - (j == 1 ? 1.0 : 0.0);
    EXPECT_NEAR(g.at(0, j), expected, 1e-10);
  }
}

TEST(AutodiffTest, SecondOrderCube) {
  // y = x^3: dy/dx = 3x^2, d2y/dx2 = 6x.
  Var x = Var::Leaf(Tensor::Scalar(2.0), true);
  Var y = Mul(Mul(x, x), x);
  Var g = GradOne(y, x, {.create_graph = true});
  EXPECT_DOUBLE_EQ(g.value().scalar(), 12.0);
  Var g2 = GradOne(g, x);
  EXPECT_DOUBLE_EQ(g2.value().scalar(), 12.0);  // 6x = 12.
}

TEST(AutodiffTest, ThirdOrder) {
  // y = x^4: y''' = 24x. Exercises grad-of-grad-of-grad.
  Var x = Var::Leaf(Tensor::Scalar(1.5), true);
  Var x2 = Mul(x, x);
  Var y = Mul(x2, x2);
  Var g1 = GradOne(y, x, {.create_graph = true});
  Var g2 = GradOne(g1, x, {.create_graph = true});
  Var g3 = GradOne(g2, x);
  EXPECT_NEAR(g3.value().scalar(), 24.0 * 1.5, 1e-9);
}

TEST(AutodiffTest, SecondOrderSigmoid) {
  // σ''(0) = σ'(0)(1-2σ(0)) = 0.25 * 0 = 0.
  Var x = Var::Leaf(Tensor::Scalar(0.0), true);
  Var y = Sigmoid(x);
  Var g = GradOne(y, x, {.create_graph = true});
  Var g2 = GradOne(g, x);
  EXPECT_NEAR(g2.value().scalar(), 0.0, 1e-12);
}

TEST(AutodiffTest, DetachedGradHasNoGraph) {
  Var x = Var::Leaf(Tensor::Scalar(3.0), true);
  Var y = Mul(x, x);
  Var g = GradOne(y, x, {.create_graph = false});
  EXPECT_FALSE(g.requires_grad());
}

TEST(AutodiffTest, GradWrtInteriorNode) {
  // z = x^2, y = 3z. dy/dz = 3 even though z is not a leaf.
  Var x = Var::Leaf(Tensor::Scalar(2.0), true);
  Var z = Mul(x, x);
  Var y = MulScalar(z, 3.0);
  EXPECT_DOUBLE_EQ(GradOne(y, z).value().scalar(), 3.0);
  EXPECT_DOUBLE_EQ(GradOne(y, x).value().scalar(), 12.0);
}

TEST(AutodiffTest, UnrolledGradientDescentDependsOnParameter) {
  // The GEAttack inner-loop structure in miniature: minimize
  // L(m, a) = (m - a)^2 by k gradient steps from m0, then differentiate the
  // final m_k with respect to a.  m_k = m0 (1-2η)^k + a (1 - (1-2η)^k), so
  // d m_k / d a = 1 - (1-2η)^k.
  const double eta = 0.1, m0 = 0.0, a0 = 5.0;
  const int k = 4;
  Var a = Var::Leaf(Tensor::Scalar(a0), true);
  Var m = Var::Leaf(Tensor::Scalar(m0), true);
  for (int t = 0; t < k; ++t) {
    Var diff = Sub(m, a);
    Var loss = Mul(diff, diff);
    Var gm = GradOne(loss, m, {.create_graph = true});
    m = Sub(m, MulScalar(gm, eta));
  }
  const double shrink = std::pow(1.0 - 2 * eta, k);
  EXPECT_NEAR(m.value().scalar(), m0 * shrink + a0 * (1 - shrink), 1e-12);
  Var dm_da = GradOne(m, a);
  EXPECT_NEAR(dm_da.value().scalar(), 1 - shrink, 1e-12);
}

TEST(AutodiffTest, NodeCountMonotone) {
  int64_t before = NodeCount();
  Var x = Var::Leaf(Tensor::Scalar(1.0), true);
  Var y = Mul(x, x);
  (void)y;
  EXPECT_GT(NodeCount(), before);
}

// ----- Grad against its unpruned oracle. ------------------------------------

// The engine's Grad before it skipped nodes off every input-to-output path,
// kept verbatim as the oracle: it back-propagates through every ancestor of
// `output` that requires grad.  The pruned Grad must return the same bits.
std::vector<Var> ReferenceGrad(const Var& output,
                               const std::vector<Var>& inputs,
                               const GradOptions& options) {
  GEA_CHECK(output.defined());

  // Collect the set of ancestor nodes of `output` that require grad,
  // pruning branches with no grad-requiring nodes.
  std::unordered_set<Node*> relevant;
  relevant.reserve(1024);  // Attack graphs run to thousands of nodes;
                           // growing from the default bucket count spends
                           // more time rehashing than walking.
  {
    std::vector<Node*> stack{output.node()};
    std::unordered_set<Node*> visited;
    visited.reserve(1024);
    while (!stack.empty()) {
      Node* n = stack.back();
      stack.pop_back();
      if (n == nullptr || !visited.insert(n).second) continue;
      if (!n->requires_grad()) continue;
      relevant.insert(n);
      for (const auto& p : n->parents()) stack.push_back(p.get());
    }
  }

  // Accumulated gradient per node, and the shared_ptr owner for each node so
  // we can wrap parents back into Vars.
  std::unordered_map<Node*, Var> grads;
  grads.reserve(relevant.size());
  grads.emplace(output.node(),
                Constant(Tensor::Ones(output.rows(), output.cols()), "seed"));

  // Process in reverse creation order: a node's id is strictly greater than
  // all of its parents' ids, so descending id order is a reverse
  // topological order of the forward graph.
  std::vector<Node*> order(relevant.begin(), relevant.end());
  std::sort(order.begin(), order.end(),
            [](Node* x, Node* y) { return x->id() > y->id(); });

  for (Node* n : order) {
    auto it = grads.find(n);
    if (it == grads.end()) continue;  // Not on a path from output.
    const Var& g = it->second;
    if (!n->backward()) continue;  // Leaf.
    std::vector<Var> parent_grads = n->backward()(g);
    GEA_CHECK(parent_grads.size() == n->parents().size());
    for (size_t k = 0; k < parent_grads.size(); ++k) {
      Node* p = n->parents()[k].get();
      if (p == nullptr || !p->requires_grad()) continue;
      if (!relevant.count(p)) continue;
      GEA_CHECK(parent_grads[k].defined());
      auto pit = grads.find(p);
      if (pit == grads.end()) {
        grads.emplace(p, parent_grads[k]);
      } else {
        pit->second = Add(pit->second, parent_grads[k]);
      }
    }
  }

  std::vector<Var> result;
  result.reserve(inputs.size());
  for (const Var& in : inputs) {
    GEA_CHECK(in.defined());
    auto it = grads.find(in.node());
    Var g;
    if (it == grads.end()) {
      g = Constant(Tensor::Zeros(in.rows(), in.cols()), "zero_grad");
    } else {
      g = options.create_graph ? it->second : Detach(it->second);
    }
    result.push_back(g);
  }
  return result;
}

using GradFn = std::vector<Var> (*)(const Var&, const std::vector<Var>&,
                                    const GradOptions&);

void ExpectBitEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.data().size(); ++i)
    EXPECT_EQ(a.data()[i], b.data()[i]) << "element " << i;
}

struct UnrolledRun {
  std::vector<Tensor> inner;         // ∂L_in/∂M at each step.
  std::vector<int64_t> inner_nodes;  // Nodes each inner backward created.
  Tensor outer;                      // ∂L_out/∂w through all T steps.
};

// GEAttack's bilevel loop in miniature, over four edge slots: leaves w (the
// relaxed candidate values) and M⁰ (the explainer mask); T inner steps
// M ← M − η·∂L_in/∂M, each differentiated with create_graph; then the outer
// loss, an attack term in w plus a penalty on the final M, differentiated
// with respect to w through every inner step.
UnrolledRun RunUnrolled(GradFn grad, int steps) {
  const Var x = Constant(Tensor(4, 1, {1.0, 2.0, -1.5, 0.5}), "x");
  Var w = Var::Leaf(Tensor(4, 1, {0.5, -1.0, 2.0, 0.25}), true, "w");
  Var mu = Var::Leaf(Tensor(4, 1, {0.1, -0.3, 0.7, 0.2}), true, "M0");
  UnrolledRun run;
  for (int t = 0; t < steps; ++t) {
    Var logits = Transpose(Mul(Mul(w, Sigmoid(mu)), x));
    Var inner_loss = NllRow(logits, 0, 1);
    const int64_t before = NodeCount();
    Var p = grad(inner_loss, {mu}, {.create_graph = true})[0];
    run.inner_nodes.push_back(NodeCount() - before);
    run.inner.push_back(p.value());
    mu = Sub(mu, MulScalar(p, 0.3));
  }
  Var attack_loss = NllRow(Transpose(Mul(w, x)), 0, 2);
  Var total = Add(attack_loss, MulScalar(Sum(mu), 0.7));
  run.outer = grad(total, {w}, {})[0].value();
  return run;
}

TEST(GradOracleTest, UnrolledLoopMatchesReferenceBitForBit) {
  for (int steps : {0, 1, 2, 5}) {
    SCOPED_TRACE("T = " + std::to_string(steps));
    const UnrolledRun want = RunUnrolled(&ReferenceGrad, steps);
    const UnrolledRun got = RunUnrolled(&Grad, steps);
    ASSERT_EQ(got.inner.size(), want.inner.size());
    for (size_t t = 0; t < want.inner.size(); ++t)
      ExpectBitEqual(got.inner[t], want.inner[t]);
    ExpectBitEqual(got.outer, want.outer);
  }
}

TEST(GradOracleTest, InnerBackwardSizeIndependentOfStep) {
  // Step t's inner backward reaches M⁰ through steps 0..t-1, but none of
  // that lies between its input (M at step t) and its loss.  The oracle
  // walks it anyway, so its node count grows with t; the pruned Grad
  // creates the same number of nodes at every step.
  const UnrolledRun run = RunUnrolled(&Grad, 5);
  const UnrolledRun oracle = RunUnrolled(&ReferenceGrad, 5);
  EXPECT_EQ(run.inner_nodes[0], oracle.inner_nodes[0]);
  for (size_t t = 1; t < run.inner_nodes.size(); ++t) {
    EXPECT_EQ(run.inner_nodes[t], run.inner_nodes[0]) << "step " << t;
    EXPECT_GT(oracle.inner_nodes[t], oracle.inner_nodes[t - 1])
        << "step " << t;
  }
}

TEST(GradOracleTest, InteriorDuplicatedAndUnreachedInputs) {
  const auto build = [](GradFn grad) {
    Var x = Var::Leaf(Tensor(3, 1, {0.4, -1.2, 0.9}), true, "x");
    Var y = Var::Leaf(Tensor(3, 1, {1.5, 0.3, -0.8}), true, "y");
    Var unreached = Var::Leaf(Tensor(3, 1, {2.0, 2.0, 2.0}), true, "u");
    Var z = Mul(Sigmoid(x), y);  // Interior input; x also reaches z.
    Var out = Sum(Mul(Exp(z), Add(x, y)));
    std::vector<Var> gs =
        grad(out, {z, x, z, unreached, y}, {.create_graph = true});
    // Differentiate a first-order gradient again, through the same engine.
    gs.push_back(grad(Sum(Mul(gs[1], gs[0])), {x, y}, {})[0]);
    std::vector<Tensor> values;
    for (const Var& g : gs) values.push_back(g.value());
    return values;
  };
  const std::vector<Tensor> want = build(&ReferenceGrad);
  const std::vector<Tensor> got = build(&Grad);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("gradient " + std::to_string(i));
    ExpectBitEqual(got[i], want[i]);
  }
  ExpectBitEqual(got[3], Tensor::Zeros(3, 1));  // `unreached`.
  ExpectBitEqual(got[0], got[2]);               // Duplicated input.
}

}  // namespace
}  // namespace geattack
