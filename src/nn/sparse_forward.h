// Differentiable sparse GCN forward over a SubgraphView's candidate-edge
// values — the kernel of the attack loops.
//
// The paper's attacks relax the whole n x n adjacency to a Var; every
// outer iteration then costs O(n²·h) in time *and* memory, which caps the
// bilevel attack at toy graphs (tests/sparse_attack_test.cc keeps that
// formulation as its oracle).  Here the only free parameters are
// an (m,1) Var of candidate-edge values (and, for the explainer inner
// loops, an (S,1) Var of per-edge mask logits); the adjacency itself is a
// value vector over the view's static CSR pattern.  GCN normalization is
// re-expressed per slot,
//
//   Ã_e = a_e · d̃^{-1/2}[row_e] · d̃^{-1/2}[col_e],
//     d̃ = pattern row sums of a + out-of-view degree,
//
// by the fused GcnNormValues node, and the two-layer forward runs through
// SpMMValues — whose backward emits SpMMValues/SpmmValueGrad nodes, so the
// second-order hypergradient GEAttack needs is available exactly as on the
// n x n relaxation.  Everything costs O((|E_sub| + m)·h) per evaluation.
//
// Numerics match Gcn::LogitsFromRaw / GcnLogitsVar to roundoff whenever the
// view contains every node within GCN-depth hops of the target and the
// augmented edges (a full view always qualifies).

#ifndef GEATTACK_SRC_NN_SPARSE_FORWARD_H_
#define GEATTACK_SRC_NN_SPARSE_FORWARD_H_

#include "src/graph/subgraph.h"
#include "src/nn/gcn.h"
#include "src/tensor/autodiff.h"
#include "src/tensor/tensor.h"

namespace geattack {

/// View-bound forward state: the trained weights folded into constants on
/// the view's local indices, plus the mutable committed base values.
/// Build once per target; `Commit*` applies greedy picks in place
/// (values-only — the pattern is never rebuilt).
struct SparseAttackForward {
  const SubgraphView* view = nullptr;
  Var xw1;      ///< (n_sub, h) constant: rows of X·W₁ for the view nodes.
  Var w2;       ///< (h, c) constant.
  Var out_deg;  ///< (n_sub, 1) constant: out-of-view degree correction.
  /// Committed per-nnz values: clean edges and diagonal 1.0, candidates 0.0
  /// until committed.
  Tensor base_values;  // (nnz, 1)
  /// Committed per-undirected-slot values (clean 1.0 / candidate 0.0).
  Tensor und_base;  // (S, 1)
};

/// Builds the forward state; `xw1_full` are the (n_global, h) rows of X·W₁
/// (cache it across targets — see CachedXw1 in src/attack/attack.h).
SparseAttackForward MakeSparseAttackForward(const SubgraphView& view,
                                            const Gcn& model,
                                            const Tensor& xw1_full);

/// Raw (A+I) slot values from relaxed candidate values `w` (m,1):
/// committed base plus w scattered onto each candidate's two slots.
Var RawValuesFromCandidates(const SparseAttackForward& sf, const Var& w);

/// Per-undirected-slot adjacency values from `w`: 1.0 on clean (and
/// committed) edges, w_k on candidate slot k.  Input to explainer masking.
Var UndirectedValuesFromCandidates(const SparseAttackForward& sf,
                                   const Var& w);

/// Expands (S,1) undirected edge values to the (nnz,1) raw value vector
/// (both directed slots per edge, 1.0 on the diagonal).
Var DirectedFromUndirected(const SparseAttackForward& sf, const Var& und);

/// Differentiable GCN normalization of raw slot values:
/// Ã_e = v_e · d̃^{-1/2}[r_e] · d̃^{-1/2}[c_e].
Var NormalizeSparseValues(const SparseAttackForward& sf, const Var& values);

/// Two-layer GCN logits over the view from *raw* (unnormalized) slot
/// values; normalizes on-graph, mirroring GcnLogitsVar.  One fused
/// GcnNormValues node (a single kernel pass replacing the historical
/// rowsum/gather/scale chain) is shared by both layers' SpMMValues, so the
/// normalization backward is built once; bit-identical forward values to
/// the unfused composition.
Var SparseGcnLogitsVar(const SparseAttackForward& sf, const Var& raw_values);

/// Marks candidate `cand_index` as a committed edge: its slots become 1.0
/// in both base vectors.  O(1).
void CommitCandidate(SparseAttackForward* sf, int64_t cand_index);

}  // namespace geattack

#endif  // GEATTACK_SRC_NN_SPARSE_FORWARD_H_
