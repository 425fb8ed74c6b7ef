// Property-based gradient checks: every composite expression used by the
// models/attacks is verified against central finite differences, at first
// and second order, over a parameterized sweep of shapes and seeds.

#include <cmath>
#include <string>

#include "gtest/gtest.h"
#include "src/tensor/autodiff.h"
#include "src/tensor/random.h"
#include "src/tensor/tensor.h"
#include "tests/test_util.h"

namespace geattack {
namespace {

using ::geattack::testing::ExpectGradientsMatch;
using ::geattack::testing::ExpectSecondOrderMatch;
using ::geattack::testing::ScalarFn;

struct GradCase {
  std::string name;
  ScalarFn fn;
  int64_t rows;
  int64_t cols;
  double lo;          // Input sampling range.
  double hi;
  bool second_order;  // Also check the double-backward path.
};

class GradCheckTest : public ::testing::TestWithParam<GradCase> {};

TEST_P(GradCheckTest, FirstOrderMatchesFiniteDifferences) {
  const GradCase& c = GetParam();
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    Tensor x = rng.UniformTensor(c.rows, c.cols, c.lo, c.hi);
    ExpectGradientsMatch(c.fn, x, 2e-5);
  }
}

TEST_P(GradCheckTest, SecondOrderMatchesFiniteDifferences) {
  const GradCase& c = GetParam();
  if (!c.second_order) GTEST_SKIP() << "second order not meaningful here";
  Rng rng(7);
  Tensor x = rng.UniformTensor(c.rows, c.cols, c.lo, c.hi);
  ExpectSecondOrderMatch(c.fn, x, 5e-4);
}

Var QuadraticForm(const Var& x) {
  // sum(x W x^T) for a fixed W.
  Rng rng(100);
  Var w = Constant(rng.NormalTensor(x.cols(), x.cols(), 0, 1));
  return Sum(MatMul(MatMul(x, w), Transpose(x)));
}

Var SigmoidMaskLoss(const Var& m) {
  // The explainer-style masked objective: -log softmax((A ⊙ σ(m)) X W)[0, 1].
  Rng rng(200);
  const int64_t n = m.rows();
  Tensor a = rng.UniformTensor(n, n, 0, 1).Map([](double v) {
    return v > 0.5 ? 1.0 : 0.0;
  });
  a.FillDiagonal(0.0);
  Var av = Constant(a);
  Var x = Constant(rng.NormalTensor(n, 3, 0, 1));
  Var w = Constant(rng.NormalTensor(3, 2, 0, 1));
  Var masked = Mul(av, Sigmoid(m));
  Var logits = MatMul(MatMul(masked, x), w);
  return NllRow(logits, 0, 1);
}

Var NormalizedAdjacencyLoss(const Var& a) {
  // Differentiable GCN normalization: sum((D^{-1/2} (A+I) D^{-1/2}) X).
  const int64_t n = a.rows();
  Var self = Add(a, Constant(Tensor::Identity(n)));
  Var deg = RowSum(self);
  Var dinv = Pow(deg, -0.5);
  Var norm = Mul(Mul(self, dinv), Transpose(dinv));
  Rng rng(300);
  Var x = Constant(rng.NormalTensor(n, 2, 0, 1));
  return Sum(MatMul(norm, x));
}

Var TwoLayerGcnLoss(const Var& a) {
  // Full differentiable 2-layer GCN wrt the adjacency — the exact structure
  // FGA/GEAttack differentiate in the outer loop.
  const int64_t n = a.rows();
  Var self = Add(a, Constant(Tensor::Identity(n)));
  Var deg = RowSum(self);
  Var dinv = Pow(deg, -0.5);
  Var norm = Mul(Mul(self, dinv), Transpose(dinv));
  Rng rng(400);
  Var x = Constant(rng.NormalTensor(n, 4, 0, 1));
  Var w1 = Constant(rng.GlorotTensor(4, 3));
  Var w2 = Constant(rng.GlorotTensor(3, 2));
  Var h = Relu(MatMul(MatMul(norm, x), w1));
  Var logits = MatMul(MatMul(norm, h), w2);
  return NllRow(logits, 0, 1);
}

/// A fixed small sparse pattern (and matching test operands) shared by the
/// SpMM gradient checks.
std::shared_ptr<const CsrPattern> SpmmTestPattern() {
  // 4x4 with 7 stored entries, including an empty-ish row structure.
  auto p = std::make_shared<CsrPattern>();
  p->rows = p->cols = 4;
  p->row_ptr = {0, 2, 4, 5, 7};
  p->col_idx = {0, 2, 1, 3, 2, 0, 3};
  return p;
}

Var SpmmConstQuadratic(const Var& b) {
  // sum((A·b)²) with a constant sparse A — the training-path structure
  // where the gradient flows into the dense operand only.
  Rng rng(600);
  const int64_t n = b.rows();
  Tensor dense(n, n);
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < n; ++j)
      if (rng.Bernoulli(0.4)) dense.at(i, j) = rng.Normal(0, 1);
  CsrMatrix a = CsrMatrix::FromDense(dense);
  Var y = SpMM(a, b);
  return Sum(Mul(y, y));
}

Var SpmmValuesQuadratic(const Var& values) {
  // sum((A·B)²) where the sparse *entries* are the differentiated input —
  // the sparse analogue of the attack's adjacency gradient.
  auto p = SpmmTestPattern();
  Rng rng(601);
  Var b = Constant(rng.NormalTensor(p->cols, 3, 0, 1));
  Var y = SpMMValues(p, values, b);
  return Sum(Mul(y, y));
}

Var SpmmValuesThroughDense(const Var& b) {
  // Same expression differentiated through the dense operand instead.
  auto p = SpmmTestPattern();
  Rng rng(602);
  Var values = Constant(rng.NormalTensor(p->nnz(), 1, 0, 1));
  Var y = SpMMValues(p, values, b);
  return Sum(Mul(y, y));
}

/// A small symmetric square pattern with strictly positive row sums under
/// positive values — the shape class GcnNormValues is defined on (degrees
/// must stay positive for d̃^{-1/2}).
std::shared_ptr<const CsrPattern> NormTestPattern() {
  // 4x4 symmetric structure with diagonal slots: edges (0,1), (0,2), (1,3),
  // (2,3) plus all self loops -> 12 stored entries.
  auto p = std::make_shared<CsrPattern>();
  p->rows = p->cols = 4;
  p->row_ptr = {0, 3, 6, 9, 12};
  p->col_idx = {0, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 3};
  return p;
}

Var GcnNormThenSpmmLoss(const Var& values) {
  // sum((GcnNormValues(v)·B)²) through the fused normalization node and
  // one SpMMValues product — differentiating the sparse entries, including
  // the degree-normalization coupling.
  auto p = NormTestPattern();
  Rng rng(700);
  Var b = Constant(rng.NormalTensor(p->cols, 3, 0, 1));
  Var od = Constant(rng.UniformTensor(p->rows, 1, 0.1, 0.6));
  Var y = SpMMValues(p, GcnNormValues(p, values, od), b);
  return Sum(Mul(y, y));
}

Var GcnNormValuesSharedLoss(const Var& values) {
  // The sparse two-layer structure: ONE fused normalization node shared by
  // two SpMMValues products — the exact graph SparseGcnLogitsVar builds.
  auto p = NormTestPattern();
  Rng rng(705);
  Var od = Constant(rng.UniformTensor(p->rows, 1, 0.1, 0.6));
  Var norm = GcnNormValues(p, values, od);
  Var b1 = Constant(rng.NormalTensor(p->cols, 3, 0, 1));
  Var h = Relu(SpMMValues(p, norm, b1));
  Var y = SpMMValues(p, norm, h);
  return Sum(Mul(y, y));
}

Var GcnNormThenSpmmThroughDense(const Var& b) {
  // Same expression differentiated through the dense operand.
  auto p = NormTestPattern();
  Rng rng(701);
  Var values = Constant(rng.UniformTensor(p->nnz(), 1, 0.4, 1.2));
  Var y = SpMMValues(p, GcnNormValues(p, values), b);
  return Sum(Mul(y, y));
}

Var UnrolledInnerLoop(const Var& a) {
  // One full GEAttack-style hypergradient structure: two gradient-descent
  // steps on a mask whose loss depends on `a`, then a readout of the mask.
  const int64_t n = a.rows();
  Rng rng(500);
  Var m = Var::Leaf(rng.NormalTensor(n, n, 0, 0.1), true);
  Var x = Constant(rng.NormalTensor(n, 2, 0, 1));
  for (int t = 0; t < 2; ++t) {
    Var masked = Mul(a, Sigmoid(m));
    Var loss = Sum(Mul(MatMul(masked, x), MatMul(masked, x)));
    Var gm = GradOne(loss, m, {.create_graph = true});
    m = Sub(m, MulScalar(gm, 0.05));
  }
  return Sum(Mul(m, m));
}

INSTANTIATE_TEST_SUITE_P(
    Expressions, GradCheckTest,
    ::testing::Values(
        GradCase{"sum_square", [](const Var& x) { return Sum(Mul(x, x)); },
                 3, 4, -2, 2, true},
        GradCase{"sigmoid_sum",
                 [](const Var& x) { return Sum(Sigmoid(x)); }, 2, 5, -3, 3,
                 true},
        GradCase{"exp_sum", [](const Var& x) { return Sum(Exp(x)); }, 3, 3,
                 -1, 1, true},
        GradCase{"log_sum", [](const Var& x) { return Sum(Log(x)); }, 2, 3,
                 0.5, 2.0, true},
        GradCase{"pow_neg_half",
                 [](const Var& x) { return Sum(Pow(x, -0.5)); }, 2, 2, 0.5,
                 2.0, true},
        GradCase{"relu_weighted",
                 [](const Var& x) {
                   return Sum(Mul(Relu(x), ConstantScalar(2.0)));
                 },
                 3, 3, -2, 2, false},
        GradCase{"div",
                 [](const Var& x) {
                   return Sum(Div(ConstantScalar(1.0), x));
                 },
                 2, 2, 0.5, 2.0, true},
        GradCase{"rowsum_product",
                 [](const Var& x) { return Sum(Mul(x, RowSum(x))); }, 3, 4,
                 -1, 1, true},
        GradCase{"colsum_product",
                 [](const Var& x) { return Sum(Mul(x, ColSum(x))); }, 3, 4,
                 -1, 1, true},
        GradCase{"transpose_mix",
                 [](const Var& x) {
                   return Sum(MatMul(x, Transpose(x)));
                 },
                 3, 4, -1, 1, true},
        GradCase{"at_entry",
                 [](const Var& x) { return Mul(At(x, 1, 2), At(x, 0, 0)); },
                 3, 4, -1, 1, true},
        GradCase{"select_row",
                 [](const Var& x) {
                   return Sum(Mul(SelectRow(x, 1), SelectRow(x, 1)));
                 },
                 3, 4, -1, 1, true},
        GradCase{"log_softmax_nll",
                 [](const Var& x) { return NllRow(x, 1, 0); }, 3, 4, -2, 2,
                 true},
        GradCase{"softmax_entropy",
                 [](const Var& x) {
                   Var p = SoftmaxRows(x);
                   return Neg(Sum(Mul(p, Log(p))));
                 },
                 2, 3, -2, 2, false},
        GradCase{"quadratic_form", QuadraticForm, 2, 3, -1, 1, true},
        GradCase{"spmm_const_quadratic", SpmmConstQuadratic, 4, 3, -1, 1,
                 true},
        GradCase{"spmm_values_quadratic", SpmmValuesQuadratic, 7, 1, -1, 1,
                 true},
        GradCase{"spmm_values_through_dense", SpmmValuesThroughDense, 4, 3,
                 -1, 1, true},
        GradCase{"gcn_norm_then_spmm_values", GcnNormThenSpmmLoss, 12, 1,
                 0.4, 1.2, true},
        GradCase{"gcn_norm_values_shared", GcnNormValuesSharedLoss, 12, 1,
                 0.4, 1.2, false},
        GradCase{"gcn_norm_then_spmm_through_dense",
                 GcnNormThenSpmmThroughDense, 4, 3, -1, 1, true},
        GradCase{"sigmoid_mask_loss", SigmoidMaskLoss, 4, 4, -2, 2, true},
        GradCase{"normalized_adjacency", NormalizedAdjacencyLoss, 4, 4, 0.1,
                 0.9, true},
        GradCase{"two_layer_gcn", TwoLayerGcnLoss, 4, 4, 0.1, 0.9, false},
        GradCase{"unrolled_inner_loop", UnrolledInnerLoop, 3, 3, 0.1, 0.9,
                 false}),
    [](const ::testing::TestParamInfo<GradCase>& param_info) {
      return param_info.param.name;
    });

// The hypergradient that GEAttack actually needs: d/dA of a readout of a
// mask obtained by unrolled gradient descent, verified numerically.
TEST(HypergradientTest, MatchesFiniteDifferences) {
  Rng rng(123);
  const int64_t n = 4;
  Tensor a0 = rng.UniformTensor(n, n, 0.2, 0.8);
  auto fn = [](const Var& a) { return UnrolledInnerLoop(a); };
  ExpectGradientsMatch(fn, a0, 5e-5);
}

// Gradients through both SpMMValues operands at once: the joint (values, b)
// gradient equals the two single-operand finite-difference gradients.
TEST(SpmmGradTest, JointGradientsMatchFiniteDifferences) {
  auto p = SpmmTestPattern();
  Rng rng(603);
  Tensor v0 = rng.NormalTensor(p->nnz(), 1, 0, 1);
  Tensor b0 = rng.NormalTensor(p->cols, 3, 0, 1);

  Var v = Var::Leaf(v0, /*requires_grad=*/true, "values");
  Var b = Var::Leaf(b0, /*requires_grad=*/true, "b");
  Var y = SpMMValues(p, v, b);
  Var loss = Sum(Mul(y, y));
  auto grads = Grad(loss, {v, b});

  auto loss_of_values = [&](const Var& vv) {
    Var yy = SpMMValues(p, vv, Constant(b0));
    return Sum(Mul(yy, yy));
  };
  auto loss_of_b = [&](const Var& bb) {
    Var yy = SpMMValues(p, Constant(v0), bb);
    return Sum(Mul(yy, yy));
  };
  EXPECT_LE(grads[0].value().MaxAbsDiff(
                geattack::testing::NumericalGradient(loss_of_values, v0)),
            2e-5);
  EXPECT_LE(grads[1].value().MaxAbsDiff(
                geattack::testing::NumericalGradient(loss_of_b, b0)),
            2e-5);
}

TEST(GcnNormValuesTest, ForwardMatchesUnfusedCompositionBitwise) {
  // The fused normalization node, and the SpMM over it, must be
  // *bit-identical* to the separate rowsum/pow/gather/scale nodes it
  // replaces — the attack equivalence gates compare greedy argmin picks
  // and tolerate no drift.
  auto p = NormTestPattern();
  Rng rng(702);
  const Tensor v0 = rng.UniformTensor(p->nnz(), 1, 0.4, 1.2);
  const Tensor b0 = rng.NormalTensor(p->cols, 3, 0, 1);
  const Tensor od0 = rng.UniformTensor(p->rows, 1, 0.1, 0.5);
  Var v = Constant(v0), b = Constant(b0), od = Constant(od0);
  Var fused = GcnNormValues(p, v, od);

  Var ones = Constant(Tensor::Ones(p->rows, 1));
  Var deg = Add(SpMMValues(p, v, ones), od);
  Var dinv = Pow(deg, -0.5);
  Var dr = SpmmValueGrad(p, dinv, ones);
  Var dc = SpmmValueGrad(p, ones, dinv);
  Var unfused = Mul(Mul(v, dr), dc);
  EXPECT_EQ(fused.value().MaxAbsDiff(unfused.value()), 0.0);
  EXPECT_EQ(SpMMValues(p, fused, b)
                .value()
                .MaxAbsDiff(SpMMValues(p, unfused, b).value()),
            0.0);
}

TEST(GcnNormValuesTest, OutDegreeGradientMatchesFiniteDifferences) {
  auto p = NormTestPattern();
  Rng rng(703);
  const Tensor v0 = rng.UniformTensor(p->nnz(), 1, 0.4, 1.2);
  const Tensor b0 = rng.NormalTensor(p->cols, 2, 0, 1);
  auto fn = [&](const Var& od) -> Var {
    Var y = SpMMValues(p, GcnNormValues(p, Constant(v0), od), Constant(b0));
    return Sum(Mul(y, y));
  };
  const Tensor od0 = Rng(704).UniformTensor(p->rows, 1, 0.2, 0.8);
  geattack::testing::ExpectGradientsMatch(fn, od0, 2e-5);
}

TEST(SpmmGradTest, PermuteRowsGradientIsInversePermutation) {
  auto perm = std::make_shared<std::vector<int64_t>>(
      std::vector<int64_t>{2, 0, 3, 1});
  Rng rng(604);
  Tensor x0 = rng.NormalTensor(4, 1, 0, 1);
  auto fn = [&perm](const Var& x) {
    Var y = PermuteRows(x, perm);
    Rng local(605);
    Var w = Constant(local.NormalTensor(4, 1, 0, 1));
    return Sum(Mul(y, Mul(y, w)));
  };
  ExpectGradientsMatch(fn, x0, 2e-5);
}

}  // namespace
}  // namespace geattack
