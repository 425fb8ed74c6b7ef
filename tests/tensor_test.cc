// Unit tests for the dense Tensor class.

#include "src/tensor/tensor.h"

#include <cmath>

#include "gtest/gtest.h"
#include "src/tensor/csr.h"
#include "src/tensor/random.h"

namespace geattack {
namespace {

TEST(TensorTest, ConstructionAndShape) {
  Tensor t(3, 4, 2.5);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.size(), 12);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_DOUBLE_EQ(t[i], 2.5);
}

TEST(TensorTest, FromData) {
  Tensor t(2, 2, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(t.at(0, 0), 1);
  EXPECT_DOUBLE_EQ(t.at(0, 1), 2);
  EXPECT_DOUBLE_EQ(t.at(1, 0), 3);
  EXPECT_DOUBLE_EQ(t.at(1, 1), 4);
}

TEST(TensorTest, ScalarFactoryAndAccessor) {
  Tensor s = Tensor::Scalar(7.25);
  EXPECT_EQ(s.rows(), 1);
  EXPECT_EQ(s.cols(), 1);
  EXPECT_DOUBLE_EQ(s.scalar(), 7.25);
}

TEST(TensorTest, Identity) {
  Tensor eye = Tensor::Identity(3);
  for (int64_t i = 0; i < 3; ++i)
    for (int64_t j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(eye.at(i, j), i == j ? 1.0 : 0.0);
}

TEST(TensorTest, OneHotRow) {
  Tensor h = Tensor::OneHotRow(4, 2);
  EXPECT_DOUBLE_EQ(h.at(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(h.Sum(), 1.0);
}

TEST(TensorTest, ElementwiseArithmetic) {
  Tensor a(2, 2, {1, 2, 3, 4});
  Tensor b(2, 2, {5, 6, 7, 8});
  EXPECT_DOUBLE_EQ((a + b).at(1, 1), 12);
  EXPECT_DOUBLE_EQ((b - a).at(0, 0), 4);
  EXPECT_DOUBLE_EQ((a * b).at(0, 1), 12);
  EXPECT_DOUBLE_EQ((b / a).at(1, 0), 7.0 / 3.0);
  EXPECT_DOUBLE_EQ((-a).at(0, 0), -1);
}

TEST(TensorTest, CompoundAssign) {
  Tensor a(1, 3, {1, 2, 3});
  Tensor b(1, 3, {1, 1, 1});
  a += b;
  EXPECT_DOUBLE_EQ(a.at(0, 2), 4);
  a -= b;
  EXPECT_DOUBLE_EQ(a.at(0, 2), 3);
}

TEST(TensorTest, ScalarOps) {
  Tensor a(1, 2, {1, 2});
  EXPECT_DOUBLE_EQ(a.AddScalar(10).at(0, 1), 12);
  EXPECT_DOUBLE_EQ(a.MulScalar(3).at(0, 0), 3);
}

TEST(TensorTest, MatMul) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = a.MatMul(b);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154);
}

TEST(TensorTest, MatMulIdentity) {
  Rng rng(1);
  Tensor a = rng.NormalTensor(5, 5, 0, 1);
  EXPECT_LE(a.MatMul(Tensor::Identity(5)).MaxAbsDiff(a), 1e-12);
  EXPECT_LE(Tensor::Identity(5).MatMul(a).MaxAbsDiff(a), 1e-12);
}

TEST(TensorTest, Transpose) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor t = a.Transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t.at(2, 1), 6);
  EXPECT_LE(t.Transposed().MaxAbsDiff(a), 1e-15);
}

TEST(TensorTest, Reductions) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(a.Sum(), 21);
  EXPECT_DOUBLE_EQ(a.Max(), 6);
  EXPECT_DOUBLE_EQ(a.Min(), 1);
  Tensor rs = a.RowSum();
  EXPECT_DOUBLE_EQ(rs.at(0, 0), 6);
  EXPECT_DOUBLE_EQ(rs.at(1, 0), 15);
  Tensor cs = a.ColSum();
  EXPECT_DOUBLE_EQ(cs.at(0, 0), 5);
  EXPECT_DOUBLE_EQ(cs.at(0, 2), 9);
  Tensor rm = a.RowMax();
  EXPECT_DOUBLE_EQ(rm.at(0, 0), 3);
  EXPECT_DOUBLE_EQ(rm.at(1, 0), 6);
  EXPECT_EQ(a.ArgMaxRow(0), 2);
}

TEST(TensorTest, SigmoidBounds) {
  Tensor a(1, 3, {-1000, 0, 1000});
  Tensor s = a.Sigmoid();
  EXPECT_NEAR(s.at(0, 0), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.at(0, 1), 0.5);
  EXPECT_NEAR(s.at(0, 2), 1.0, 1e-12);
  EXPECT_TRUE(s.AllFinite());
}

TEST(TensorTest, ReluExpLogPow) {
  Tensor a(1, 4, {-2, -0.5, 0.5, 2});
  Tensor r = a.Relu();
  EXPECT_DOUBLE_EQ(r.at(0, 0), 0);
  EXPECT_DOUBLE_EQ(r.at(0, 3), 2);
  EXPECT_NEAR(a.Exp().at(0, 3), std::exp(2.0), 1e-12);
  Tensor pos(1, 2, {1.0, std::exp(1.0)});
  EXPECT_NEAR(pos.Log().at(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(a.Pow(2).at(0, 0), 4.0, 1e-12);
}

TEST(TensorTest, BroadcastCompatible) {
  Tensor a(3, 4);
  EXPECT_TRUE(a.BroadcastCompatible(Tensor(3, 4)));
  EXPECT_TRUE(a.BroadcastCompatible(Tensor(3, 1)));
  EXPECT_TRUE(a.BroadcastCompatible(Tensor(1, 4)));
  EXPECT_TRUE(a.BroadcastCompatible(Tensor(1, 1)));
  EXPECT_FALSE(a.BroadcastCompatible(Tensor(4, 3)));
  EXPECT_FALSE(a.BroadcastCompatible(Tensor(2, 4)));
}

TEST(TensorTest, BroadcastBinaryColumnVector) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor col(2, 1, {10, 100});
  Tensor r = a.BroadcastBinary(col, [](double x, double y) { return x + y; });
  EXPECT_DOUBLE_EQ(r.at(0, 2), 13);
  EXPECT_DOUBLE_EQ(r.at(1, 0), 104);
}

TEST(TensorTest, BroadcastBinaryRowVector) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor row(1, 3, {10, 20, 30});
  Tensor r = a.BroadcastBinary(row, [](double x, double y) { return x * y; });
  EXPECT_DOUBLE_EQ(r.at(0, 0), 10);
  EXPECT_DOUBLE_EQ(r.at(1, 2), 180);
}

TEST(TensorTest, FillDiagonalAndRow) {
  Tensor a = Tensor::Ones(3, 3);
  a.FillDiagonal(0.0);
  EXPECT_DOUBLE_EQ(a.Sum(), 6.0);
  Tensor r = a.Row(1);
  EXPECT_EQ(r.rows(), 1);
  EXPECT_DOUBLE_EQ(r.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(r.at(0, 0), 1.0);
}

TEST(TensorTest, NormAndFinite) {
  Tensor a(1, 2, {3, 4});
  EXPECT_DOUBLE_EQ(a.Norm(), 5.0);
  EXPECT_TRUE(a.AllFinite());
  Tensor bad(1, 1, {std::numeric_limits<double>::infinity()});
  EXPECT_FALSE(bad.AllFinite());
}

TEST(TensorTest, DebugString) {
  Tensor a(1, 2, {1, 2});
  EXPECT_EQ(a.ShapeString(), "Tensor(1x2)");
  EXPECT_NE(a.DebugString().find("1, 2"), std::string::npos);
}

TEST(RngTest, Determinism) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LT(v, 3);
  }
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(3);
  auto idx = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(idx.size(), 20u);
  std::sort(idx.begin(), idx.end());
  EXPECT_TRUE(std::adjacent_find(idx.begin(), idx.end()) == idx.end());
  for (auto i : idx) EXPECT_TRUE(i >= 0 && i < 50);
}

TEST(RngTest, SampleWeightedRespectsZeros) {
  Rng rng(5);
  std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) EXPECT_EQ(rng.SampleWeighted(w), 1);
}

TEST(RngTest, GlorotWithinLimit) {
  Rng rng(9);
  Tensor w = rng.GlorotTensor(30, 20);
  const double limit = std::sqrt(6.0 / 50.0);
  EXPECT_LE(w.Max(), limit);
  EXPECT_GE(w.Min(), -limit);
}

TEST(RngTest, WeightedSamplerMatchesLinearScanDistribution) {
  std::vector<double> w = {0.0, 3.0, 0.0, 1.0};
  WeightedSampler sampler(w);
  Rng rng(11);
  std::vector<int64_t> counts(w.size(), 0);
  for (int i = 0; i < 4000; ++i) ++counts[ZU(sampler.Sample(&rng))];
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / 4000.0, 0.75, 0.03);
}

// ----- Sparse CSR matrix. ---------------------------------------------------

Tensor RandomSparseDense(int64_t rows, int64_t cols, uint64_t seed,
                         double density = 0.3) {
  Rng rng(seed);
  Tensor a(rows, cols);
  for (int64_t i = 0; i < a.size(); ++i)
    if (rng.Bernoulli(density)) a[i] = rng.Normal(0, 1);
  return a;
}

TEST(CsrTest, FromDenseRoundTrip) {
  Tensor a = RandomSparseDense(7, 5, 1);
  CsrMatrix m = CsrMatrix::FromDense(a);
  EXPECT_TRUE(m.pattern()->CheckInvariants());
  EXPECT_EQ(m.rows(), 7);
  EXPECT_EQ(m.cols(), 5);
  EXPECT_LE(m.ToDense().MaxAbsDiff(a), 0.0);
}

TEST(CsrTest, AtLooksUpStoredAndMissingEntries) {
  Tensor a(3, 3, {0, 2, 0, 0, 0, -1, 4, 0, 0});
  CsrMatrix m = CsrMatrix::FromDense(a);
  EXPECT_EQ(m.nnz(), 3);
  for (int64_t i = 0; i < 3; ++i)
    for (int64_t j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(m.At(i, j), a.at(i, j));
}

TEST(CsrTest, TransposedMatchesDenseTranspose) {
  Tensor a = RandomSparseDense(6, 4, 2);
  CsrMatrix t = CsrMatrix::FromDense(a).Transposed();
  EXPECT_TRUE(t.pattern()->CheckInvariants());
  EXPECT_LE(t.ToDense().MaxAbsDiff(a.Transposed()), 0.0);
}

TEST(CsrTest, SpmmMatchesDenseMatMul) {
  Tensor a = RandomSparseDense(8, 6, 3);
  Tensor b = Rng(4).NormalTensor(6, 5, 0, 1);
  CsrMatrix m = CsrMatrix::FromDense(a);
  EXPECT_LE(m.SpMM(b).MaxAbsDiff(a.MatMul(b)), 1e-12);
}

TEST(CsrTest, RowSumsMatchDense) {
  Tensor a = RandomSparseDense(5, 5, 5);
  CsrMatrix m = CsrMatrix::FromDense(a);
  EXPECT_LE(m.RowSums().MaxAbsDiff(a.RowSum()), 1e-12);
}

TEST(CsrTest, GcnNormalizeMatchesDenseFormula) {
  // Symmetric 0/1 adjacency with zero diagonal.
  Rng rng(6);
  const int64_t n = 9;
  Tensor a(n, n);
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = i + 1; j < n; ++j)
      if (rng.Bernoulli(0.3)) a.at(i, j) = a.at(j, i) = 1.0;

  // Dense reference: D̃^{-1/2}(A + I)D̃^{-1/2}.
  Tensor self = a;
  self.FillDiagonal(1.0);
  Tensor dinv = self.RowSum().Pow(-0.5);
  Tensor expected(n, n);
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < n; ++j)
      expected.at(i, j) = dinv.at(i, 0) * self.at(i, j) * dinv.at(j, 0);

  CsrMatrix norm = GcnNormalizeCsr(CsrMatrix::FromDense(a));
  EXPECT_TRUE(norm.pattern()->CheckInvariants());
  EXPECT_LE(norm.ToDense().MaxAbsDiff(expected), 1e-12);
  EXPECT_TRUE(norm.AllFinite());
}

TEST(CsrTest, GcnNormalizeMergesExistingDiagonal) {
  Tensor a(2, 2, {0.5, 1.0, 1.0, 0.0});
  CsrMatrix norm = GcnNormalizeCsr(CsrMatrix::FromDense(a));
  // Row degrees of A + I: (2.5, 2.0).
  const double d0 = 1.0 / std::sqrt(2.5), d1 = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(norm.At(0, 0), d0 * 1.5 * d0, 1e-12);
  EXPECT_NEAR(norm.At(0, 1), d0 * 1.0 * d1, 1e-12);
  EXPECT_NEAR(norm.At(1, 1), d1 * 1.0 * d1, 1e-12);
}

TEST(CsrTest, SpmmRawWideOperandMatchesDense) {
  // Exercises the cache-blocked path (k > one column tile) against the
  // dense product; long rows hit the 2-way entry unroll + tail.
  Tensor a = RandomSparseDense(9, 40, 7, 0.5);
  Tensor b = Rng(8).NormalTensor(40, 130, 0, 1);
  CsrMatrix m = CsrMatrix::FromDense(a);
  EXPECT_LE(SpmmRaw(*m.pattern(), m.values(), b).MaxAbsDiff(a.MatMul(b)),
            1e-10);
}

TEST(CsrTest, SpmmRawF32MatchesDoubleWithinStoragePrecision) {
  Tensor a = RandomSparseDense(12, 10, 9, 0.4);
  Tensor b = Rng(10).NormalTensor(10, 7, 0, 1);
  CsrMatrix m = CsrMatrix::FromDense(a);
  const Tensor exact = SpmmRaw(*m.pattern(), m.values(), b);
  const Tensor f32 = SpmmRawF32(*m.pattern(), ValuesToF32(m.values()), b);
  // Values are rounded to float storage (~1e-7 relative); the accumulation
  // stays double, so the result only carries the storage rounding.
  EXPECT_LE(f32.MaxAbsDiff(exact), 1e-5);
  EXPECT_GT(f32.MaxAbsDiff(exact), 0.0);  // It really is a f32 store.
}

TEST(CsrTest, GcnNormValuesRawMatchesUnfusedComputation) {
  // Symmetric positive-value square matrix with self loops so degrees stay
  // positive; the one-pass kernel must match rowsum -> pow -> scale bit for
  // bit, with and without the out-of-view degree correction.
  Rng rng(11);
  const int64_t n = 8;
  Tensor a(n, n);
  for (int64_t i = 0; i < n; ++i) {
    a.at(i, i) = rng.Uniform(0.5, 1.5);
    for (int64_t j = i + 1; j < n; ++j)
      if (rng.Bernoulli(0.4)) a.at(i, j) = a.at(j, i) = rng.Uniform(0.2, 1.0);
  }
  CsrMatrix m = CsrMatrix::FromDense(a);
  const Tensor out_deg = rng.UniformTensor(n, 1, 0.0, 0.7);
  const CsrPattern& p = *m.pattern();

  for (const double* od : {out_deg.data().data(),
                           static_cast<const double*>(nullptr)}) {
    std::vector<double> dinv(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      double d = 0.0;
      for (int64_t e = p.row_ptr[ZU(i)]; e < p.row_ptr[ZU(i + 1)]; ++e)
        d += m.values()[ZU(e)];
      if (od != nullptr) d += od[i];
      dinv[ZU(i)] = std::pow(d, -0.5);
    }
    Tensor norm(p.nnz(), 1);
    for (int64_t i = 0; i < n; ++i)
      for (int64_t e = p.row_ptr[ZU(i)]; e < p.row_ptr[ZU(i + 1)]; ++e)
        norm.at(e, 0) = (m.values()[ZU(e)] * dinv[ZU(i)]) *
                        dinv[ZU(p.col_idx[ZU(e)])];
    EXPECT_EQ(GcnNormValuesRaw(p, m.values(), od).MaxAbsDiff(norm), 0.0)
        << (od != nullptr ? "with out_deg" : "without out_deg");
  }
}

}  // namespace
}  // namespace geattack
