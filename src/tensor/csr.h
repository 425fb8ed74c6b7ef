// Sparse CSR matrix support — the O(|E|) execution path.
//
// The dense Tensor substrate caps the library at toy graphs: a GCN forward
// on a dense n x n adjacency costs O(n²·h) regardless of how sparse the
// graph is.  CsrMatrix stores only the nonzeros, so SpMM-based forwards cost
// O(|E|·h) and multi-10k-node graphs become feasible.  The sparsity
// *structure* (CsrPattern) is immutable and shared via shared_ptr between
// matrices, their transposes, and the autodiff SpMM nodes
// (src/tensor/autodiff.h), which differentiate through the entry values
// while the structure stays fixed.
//
// The row-parallel SpMM kernel uses OpenMP when compiled with it and falls
// back to a serial loop otherwise.

#ifndef GEATTACK_SRC_TENSOR_CSR_H_
#define GEATTACK_SRC_TENSOR_CSR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/tensor/tensor.h"

namespace geattack {

struct CsrPattern;

/// The structure of Aᵀ plus, for each entry of Aᵀ in its pattern order, the
/// index of the matching entry of A — i.e. the permutation that maps A's
/// value array onto Aᵀ's.  Shared by CsrMatrix::Transposed and the autodiff
/// SpMM backward.
struct CsrTranspose {
  std::shared_ptr<const CsrPattern> pattern;
  std::vector<int64_t> src_index;
};

/// Immutable sparsity structure of a CSR matrix.  Column indices are
/// strictly increasing within each row; row_ptr has rows+1 entries with
/// row_ptr[0] == 0 and row_ptr[rows] == nnz.  Populate the public fields
/// once, then treat the pattern as frozen (the transpose cache relies on
/// it).
struct CsrPattern {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<int64_t> row_ptr;
  std::vector<int64_t> col_idx;

  int64_t nnz() const { return static_cast<int64_t>(col_idx.size()); }
  /// Validates the invariants above (debug helper; O(nnz)).
  bool CheckInvariants() const;

  /// Transpose structure, built on first use and cached (thread-safe) —
  /// training loops and SpMM backwards hit this once per step, not once
  /// per construction.
  const CsrTranspose& Transpose() const;

 private:
  mutable std::once_flag transpose_once_;
  mutable CsrTranspose transpose_;
};

/// Computes the transpose structure of `p` by counting sort, O(nnz + cols).
/// Prefer CsrPattern::Transpose(), which caches the result.
CsrTranspose TransposePattern(const CsrPattern& p);

/// Raw row-parallel CSR × dense kernel: returns A·dense where A is given by
/// (pattern, values).  dense must have pattern.cols rows.  The inner loop is
/// cache-blocked over dense columns and vectorized (restrict-qualified
/// pointers + OpenMP simd) while keeping the exact per-output accumulation
/// order of the naive kernel, so results are bit-identical across builds and
/// tile sizes.
Tensor SpmmRaw(const CsrPattern& pattern, const std::vector<double>& values,
               const Tensor& dense);

/// Float32 value-storage twin of SpmmRaw: the per-entry adjacency values are
/// stored (and read) as floats, halving the value-array memory traffic, while
/// the dense operand and the accumulators stay double.  Inference-only — the
/// ~1e-7 relative rounding on the stored values is fine for eval logits but
/// must never feed training/attack gradients or the bit-exactness gates.
Tensor SpmmRawF32(const CsrPattern& pattern, const std::vector<float>& values,
                  const Tensor& dense);

/// Converts a value array to float32 storage for SpmmRawF32.
std::vector<float> ValuesToF32(const std::vector<double>& values);

/// The normalization half of GcnNormSpmmRaw as a standalone kernel: returns
/// the (nnz,1) normalized values Ã_e = v_e·d̃^{-1/2}[r_e]·d̃^{-1/2}[c_e]
/// with d̃ = pattern row sums + out_deg, in one pass (no degree/gather
/// intermediates).  Bit-identical to the unfused composition.
Tensor GcnNormValuesRaw(const CsrPattern& pattern,
                        const std::vector<double>& values,
                        const double* out_deg);

/// Fused GCN-normalize + SpMM kernel over a square pattern:
///   d̃_i = Σ_{e ∈ row i} v_e + out_deg_i,   Ã_e = v_e·d̃^{-1/2}[r_e]·d̃^{-1/2}[c_e],
///   out  = Ã·dense,
/// computed in one pass over the nonzeros instead of materializing the
/// degree, gather, and normalized-value intermediates.  `out_deg` (nullable,
/// length pattern.rows) adds out-of-view degree mass exactly like
/// SparseAttackForward's correction.  Bit-identical to the unfused
/// rowsum/pow/gather/scale/SpmmRaw composition.
Tensor GcnNormSpmmRaw(const CsrPattern& pattern,
                      const std::vector<double>& values, const double* out_deg,
                      const Tensor& dense);

/// A sparse matrix in CSR form: a shared immutable pattern plus a value per
/// stored entry.  Value semantics like Tensor: copy duplicates the values
/// but shares the pattern.
class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(std::shared_ptr<const CsrPattern> pattern,
            std::vector<double> values);

  /// Builds from a dense matrix, storing entries with |x| > tol.
  static CsrMatrix FromDense(const Tensor& dense, double tol = 0.0);

  int64_t rows() const { return pattern_ ? pattern_->rows : 0; }
  int64_t cols() const { return pattern_ ? pattern_->cols : 0; }
  int64_t nnz() const { return pattern_ ? pattern_->nnz() : 0; }
  bool empty() const { return pattern_ == nullptr; }

  const std::shared_ptr<const CsrPattern>& pattern() const { return pattern_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }

  /// Value at (r, c); 0.0 for entries outside the pattern.  O(log row_nnz).
  double At(int64_t r, int64_t c) const;

  /// Materializes the dense equivalent (tests / small matrices only).
  Tensor ToDense() const;

  /// Sparse × dense product: this (m x n) · dense (n x k) -> (m x k).
  /// Row-parallel via OpenMP.
  Tensor SpMM(const Tensor& dense) const;

  CsrMatrix Transposed() const;

  /// Row sums -> (rows, 1).
  Tensor RowSums() const;

  double SumValues() const;
  bool AllFinite() const;

 private:
  std::shared_ptr<const CsrPattern> pattern_;
  std::vector<double> values_;
};

/// Symmetric GCN normalization computed entirely in CSR:
/// Ã = D̃^{-1/2} (A + I) D̃^{-1/2} with D̃ the degree matrix of A + I — the
/// sparse twin of NormalizeAdjacency (src/graph/graph.h).  `adjacency` must
/// be square; a pre-existing diagonal entry is incremented rather than
/// duplicated.  O(nnz).
CsrMatrix GcnNormalizeCsr(const CsrMatrix& adjacency);

}  // namespace geattack

#endif  // GEATTACK_SRC_TENSOR_CSR_H_
