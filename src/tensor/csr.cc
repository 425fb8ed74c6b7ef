#include "src/tensor/csr.h"

#include <algorithm>
#include <cmath>

namespace geattack {

bool CsrPattern::CheckInvariants() const {
  if (rows < 0 || cols < 0) return false;
  if (static_cast<int64_t>(row_ptr.size()) != rows + 1) return false;
  if (row_ptr.front() != 0) return false;
  if (row_ptr.back() != nnz()) return false;
  for (int64_t i = 0; i < rows; ++i) {
    if (row_ptr[ZU(i)] > row_ptr[ZU(i + 1)]) return false;
    for (int64_t e = row_ptr[ZU(i)]; e < row_ptr[ZU(i + 1)]; ++e) {
      if (col_idx[ZU(e)] < 0 || col_idx[ZU(e)] >= cols) return false;
      if (e > row_ptr[ZU(i)] && col_idx[ZU(e)] <= col_idx[ZU(e - 1)])
        return false;
    }
  }
  return true;
}

const CsrTranspose& CsrPattern::Transpose() const {
  std::call_once(transpose_once_,
                 [this] { transpose_ = TransposePattern(*this); });
  return transpose_;
}

CsrTranspose TransposePattern(const CsrPattern& p) {
  auto t = std::make_shared<CsrPattern>();
  t->rows = p.cols;
  t->cols = p.rows;
  t->row_ptr.assign(ZU(p.cols) + 1, 0);
  t->col_idx.resize(ZU(p.nnz()));
  CsrTranspose out;
  out.src_index.resize(ZU(p.nnz()));

  // Counting sort by column.
  for (int64_t c : p.col_idx) ++t->row_ptr[ZU(c + 1)];
  for (int64_t c = 0; c < p.cols; ++c)
    t->row_ptr[ZU(c + 1)] += t->row_ptr[ZU(c)];
  std::vector<int64_t> cursor(t->row_ptr.begin(), t->row_ptr.end() - 1);
  for (int64_t r = 0; r < p.rows; ++r) {
    for (int64_t e = p.row_ptr[ZU(r)]; e < p.row_ptr[ZU(r + 1)]; ++e) {
      const int64_t dst = cursor[ZU(p.col_idx[ZU(e)])]++;
      t->col_idx[ZU(dst)] = r;  // Rows visited in order => sorted within row.
      out.src_index[ZU(dst)] = e;
    }
  }
  out.pattern = std::move(t);
  return out;
}

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define GEA_RESTRICT __restrict__
#else
#define GEA_RESTRICT
#endif

/// Shared CSR × dense accumulation core.  `value(e, i)` yields the entry
/// value for nnz position e in row i, so the plain, float32-storage, and
/// fused-normalization kernels all run through one tuned loop nest.
///
/// Determinism contract: for every output element (i, j) the products are
/// accumulated in ascending-e order into a single accumulator, exactly like
/// the naive kernel — the column tiling only reorders *independent* j
/// ranges and the `omp simd` runs over j (independent accumulators), so no
/// floating-point reassociation ever happens.  The attack equivalence gates
/// and the fixed-seed test pins rely on this.
template <typename ValueFn>
void SpmmAccumulate(const CsrPattern& pattern, const Tensor& dense,
                    double* GEA_RESTRICT o, const ValueFn& value) {
  const int64_t k = dense.cols();
  const double* GEA_RESTRICT b = dense.data().data();
  const int64_t* GEA_RESTRICT row_ptr = pattern.row_ptr.data();
  const int64_t* GEA_RESTRICT col = pattern.col_idx.data();
  // 64 doubles = one 512-byte output tile per row: it stays resident in L1
  // while the kernel streams the (much larger) dense rows through it.
  constexpr int64_t kColTile = 64;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 64)
#endif
  for (int64_t i = 0; i < pattern.rows; ++i) {
    const int64_t e0 = row_ptr[ZU(i)];
    const int64_t e1 = row_ptr[ZU(i + 1)];
    if (k == 1) {
      // Vector fast path — the (·,1) degree/gather products the sparse
      // attack forward issues constantly.  Sorted columns mean contiguous
      // runs of b hits; a single sequential accumulator keeps the naive
      // summation order.
      double s = 0.0;
      for (int64_t e = e0; e < e1; ++e) s += value(e, i) * b[col[e]];
      o[i] = s;
      continue;
    }
    double* GEA_RESTRICT row_out = o + i * k;
    for (int64_t j0 = 0; j0 < k; j0 += kColTile) {
      const int64_t j1 = j0 + kColTile < k ? j0 + kColTile : k;
      int64_t e = e0;
      for (; e + 1 < e1; e += 2) {
        // Two entries per pass (their updates stay as separate statements,
        // preserving per-element order); adjacent sorted columns make the
        // two dense rows prefetch-friendly.
        const double v0 = value(e, i);
        const double v1 = value(e + 1, i);
        const double* GEA_RESTRICT b0 = b + col[e] * k;
        const double* GEA_RESTRICT b1 = b + col[e + 1] * k;
#ifdef _OPENMP
#pragma omp simd
#endif
        for (int64_t j = j0; j < j1; ++j) {
          row_out[j] += v0 * b0[j];
          row_out[j] += v1 * b1[j];
        }
      }
      if (e < e1) {
        const double v0 = value(e, i);
        const double* GEA_RESTRICT b0 = b + col[e] * k;
#ifdef _OPENMP
#pragma omp simd
#endif
        for (int64_t j = j0; j < j1; ++j) row_out[j] += v0 * b0[j];
      }
    }
  }
}

}  // namespace

Tensor SpmmRaw(const CsrPattern& pattern, const std::vector<double>& values,
               const Tensor& dense) {
  GEA_CHECK(static_cast<int64_t>(values.size()) == pattern.nnz());
  GEA_CHECK(pattern.cols == dense.rows());
  Tensor out(pattern.rows, dense.cols());
  const double* GEA_RESTRICT v = values.data();
  SpmmAccumulate(pattern, dense, out.mutable_data().data(),
                 [v](int64_t e, int64_t) { return v[e]; });
  return out;
}

Tensor SpmmRawF32(const CsrPattern& pattern, const std::vector<float>& values,
                  const Tensor& dense) {
  GEA_CHECK(static_cast<int64_t>(values.size()) == pattern.nnz());
  GEA_CHECK(pattern.cols == dense.rows());
  Tensor out(pattern.rows, dense.cols());
  const float* GEA_RESTRICT v = values.data();
  SpmmAccumulate(pattern, dense, out.mutable_data().data(),
                 [v](int64_t e, int64_t) { return static_cast<double>(v[e]); });
  return out;
}

std::vector<float> ValuesToF32(const std::vector<double>& values) {
  std::vector<float> f(values.size());
  for (size_t e = 0; e < values.size(); ++e)
    f[e] = static_cast<float>(values[e]);
  return f;
}

namespace {

/// d̃^{-1/2} per node for (pattern row sums of values) + out_deg, matching
/// the unfused SpMMValues-rowsum + Add + Pow composition bit for bit
/// (ascending-e sums, out_deg added last, std::pow(·, -0.5)).
std::vector<double> NormDinv(const CsrPattern& pattern,
                             const std::vector<double>& values,
                             const double* out_deg) {
  const int64_t n = pattern.rows;
  std::vector<double> dinv(ZU(n));
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (int64_t i = 0; i < n; ++i) {
    double d = 0.0;
    for (int64_t e = pattern.row_ptr[ZU(i)]; e < pattern.row_ptr[ZU(i + 1)];
         ++e)
      d += values[ZU(e)];
    if (out_deg != nullptr) d += out_deg[i];
    dinv[ZU(i)] = std::pow(d, -0.5);
  }
  return dinv;
}

}  // namespace

Tensor GcnNormValuesRaw(const CsrPattern& pattern,
                        const std::vector<double>& values,
                        const double* out_deg) {
  GEA_CHECK(pattern.rows == pattern.cols);
  GEA_CHECK(static_cast<int64_t>(values.size()) == pattern.nnz());
  const std::vector<double> dinv = NormDinv(pattern, values, out_deg);
  Tensor out(pattern.nnz(), 1);
  const double* GEA_RESTRICT v = values.data();
  const int64_t* GEA_RESTRICT col = pattern.col_idx.data();
  const double* GEA_RESTRICT s = dinv.data();
  double* GEA_RESTRICT o = out.mutable_data().data();
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (int64_t i = 0; i < pattern.rows; ++i) {
    const double si = s[i];
    for (int64_t e = pattern.row_ptr[ZU(i)]; e < pattern.row_ptr[ZU(i + 1)];
         ++e)
      o[e] = (v[e] * si) * s[col[e]];
  }
  return out;
}

Tensor GcnNormSpmmRaw(const CsrPattern& pattern,
                      const std::vector<double>& values, const double* out_deg,
                      const Tensor& dense) {
  GEA_CHECK(pattern.rows == pattern.cols);
  GEA_CHECK(static_cast<int64_t>(values.size()) == pattern.nnz());
  GEA_CHECK(pattern.cols == dense.rows());
  const int64_t n = pattern.rows;
  // Pass 1: d̃^{-1/2} per node; pass 2 accumulates with the normalized
  // value (v_e·s_r)·s_c computed on the fly — no (nnz,1) intermediates are
  // ever materialized.
  const std::vector<double> dinv = NormDinv(pattern, values, out_deg);
  Tensor out(n, dense.cols());
  const double* GEA_RESTRICT v = values.data();
  const int64_t* GEA_RESTRICT col = pattern.col_idx.data();
  const double* GEA_RESTRICT s = dinv.data();
  SpmmAccumulate(pattern, dense, out.mutable_data().data(),
                 [v, col, s](int64_t e, int64_t i) {
                   return (v[e] * s[i]) * s[col[e]];
                 });
  return out;
}

CsrMatrix::CsrMatrix(std::shared_ptr<const CsrPattern> pattern,
                     std::vector<double> values)
    : pattern_(std::move(pattern)), values_(std::move(values)) {
  GEA_CHECK(pattern_ != nullptr);
  GEA_CHECK(static_cast<int64_t>(values_.size()) == pattern_->nnz());
}

CsrMatrix CsrMatrix::FromDense(const Tensor& dense, double tol) {
  auto pattern = std::make_shared<CsrPattern>();
  pattern->rows = dense.rows();
  pattern->cols = dense.cols();
  pattern->row_ptr.reserve(ZU(dense.rows()) + 1);
  pattern->row_ptr.push_back(0);
  std::vector<double> values;
  for (int64_t i = 0; i < dense.rows(); ++i) {
    for (int64_t j = 0; j < dense.cols(); ++j) {
      const double v = dense.at(i, j);
      if (std::abs(v) > tol) {
        pattern->col_idx.push_back(j);
        values.push_back(v);
      }
    }
    pattern->row_ptr.push_back(static_cast<int64_t>(pattern->col_idx.size()));
  }
  return CsrMatrix(std::move(pattern), std::move(values));
}

double CsrMatrix::At(int64_t r, int64_t c) const {
  GEA_CHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
  const auto begin = pattern_->col_idx.begin() + pattern_->row_ptr[ZU(r)];
  const auto end = pattern_->col_idx.begin() + pattern_->row_ptr[ZU(r + 1)];
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return values_[ZU(it - pattern_->col_idx.begin())];
}

Tensor CsrMatrix::ToDense() const {
  Tensor out(rows(), cols());
  for (int64_t i = 0; i < rows(); ++i)
    for (int64_t e = pattern_->row_ptr[ZU(i)];
         e < pattern_->row_ptr[ZU(i + 1)]; ++e)
      out.at(i, pattern_->col_idx[ZU(e)]) += values_[ZU(e)];
  return out;
}

Tensor CsrMatrix::SpMM(const Tensor& dense) const {
  GEA_CHECK(pattern_ != nullptr);
  return SpmmRaw(*pattern_, values_, dense);
}

CsrMatrix CsrMatrix::Transposed() const {
  GEA_CHECK(pattern_ != nullptr);
  const CsrTranspose& t = pattern_->Transpose();
  std::vector<double> values(values_.size());
  for (size_t e = 0; e < values.size(); ++e)
    values[e] = values_[ZU(t.src_index[e])];
  return CsrMatrix(t.pattern, std::move(values));
}

Tensor CsrMatrix::RowSums() const {
  Tensor out(rows(), 1);
  for (int64_t i = 0; i < rows(); ++i) {
    double s = 0.0;
    for (int64_t e = pattern_->row_ptr[ZU(i)];
         e < pattern_->row_ptr[ZU(i + 1)]; ++e)
      s += values_[ZU(e)];
    out.at(i, 0) = s;
  }
  return out;
}

double CsrMatrix::SumValues() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

bool CsrMatrix::AllFinite() const {
  for (double v : values_)
    if (!std::isfinite(v)) return false;
  return true;
}

CsrMatrix GcnNormalizeCsr(const CsrMatrix& adjacency) {
  GEA_CHECK(!adjacency.empty());
  GEA_CHECK(adjacency.rows() == adjacency.cols());
  const CsrPattern& p = *adjacency.pattern();
  const std::vector<double>& av = adjacency.values();
  const int64_t n = p.rows;

  // Degrees of A + I.
  std::vector<double> dinv(ZU(n));
  for (int64_t i = 0; i < n; ++i) {
    double d = 1.0;  // Self loop.
    for (int64_t e = p.row_ptr[ZU(i)]; e < p.row_ptr[ZU(i + 1)]; ++e)
      d += av[ZU(e)];
    GEA_CHECK(d > 0.0);
    dinv[ZU(i)] = 1.0 / std::sqrt(d);
  }

  // Build (A + I) row by row, inserting the diagonal in sorted position
  // (or merging into it when already present), scaled by dinv on both sides.
  auto out = std::make_shared<CsrPattern>();
  out->rows = out->cols = n;
  out->row_ptr.reserve(ZU(n) + 1);
  out->row_ptr.push_back(0);
  out->col_idx.reserve(p.col_idx.size() + ZU(n));
  std::vector<double> values;
  values.reserve(p.col_idx.size() + ZU(n));

  for (int64_t i = 0; i < n; ++i) {
    const double di = dinv[ZU(i)];
    bool diag_emitted = false;
    for (int64_t e = p.row_ptr[ZU(i)]; e < p.row_ptr[ZU(i + 1)]; ++e) {
      const int64_t j = p.col_idx[ZU(e)];
      double v = av[ZU(e)];
      if (!diag_emitted && j >= i) {
        if (j == i) {
          v += 1.0;
        } else {
          out->col_idx.push_back(i);
          values.push_back(di * 1.0 * di);
        }
        diag_emitted = true;
      }
      out->col_idx.push_back(j);
      values.push_back(di * v * dinv[ZU(j)]);
    }
    if (!diag_emitted) {
      out->col_idx.push_back(i);
      values.push_back(di * di);
    }
    out->row_ptr.push_back(static_cast<int64_t>(out->col_idx.size()));
  }
  return CsrMatrix(std::move(out), std::move(values));
}

}  // namespace geattack
