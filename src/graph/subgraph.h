// SubgraphView — the candidate-edge extraction layer the sparse attack
// loops run on.
//
// A targeted attack perturbs only edges incident to one node, and a k-layer
// GCN's prediction at that node only depends on its k-hop neighborhood (in
// the *augmented* graph: clean edges plus the candidate add-edges).  This
// module extracts that region once per target and freezes it into a single
// CSR pattern over compact local indices:
//
//   * the induced clean edges,
//   * one self-loop slot per node (the +I of GCN normalization), and
//   * one explicit slot pair per candidate add-edge (target, c).
//
// Because every edge the attack could ever add already has a slot, the
// entire greedy outer loop is values-only: committing a picked edge writes
// 1.0 into its two slots, and no pattern is ever rebuilt.  The view also
// carries the constant slot-expansion operators the differentiable forward
// in src/nn/sparse_forward.h needs (the degree gathers of normalization are
// expressed through the pattern itself by the fused GcnNormValues node), so
// gradients — and the second-order explainer hypergradient — flow through
// candidate-edge *values* instead of dense n x n adjacencies.
//
// With `hops < 0` the view covers every node (local == global up to the
// identity): the sparse forward is then numerically identical to the dense
// path.  With `hops >= 0` the view is the k-hop ball around the target in
// the augmented graph; `out_degree` records, per node, the clean edges left
// outside so that GCN normalization still uses true degrees (boundary edges
// act as unmasked constants — the standard subgraph-explanation
// approximation, exact for the unmasked attack forward whenever
// hops >= the GCN depth).

#ifndef GEATTACK_SRC_GRAPH_SUBGRAPH_H_
#define GEATTACK_SRC_GRAPH_SUBGRAPH_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/graph/graph.h"
#include "src/tensor/autodiff.h"
#include "src/tensor/csr.h"
#include "src/tensor/tensor.h"

namespace geattack {

/// A target's attack-relevant region in compact local indices, with the
/// static augmented CSR pattern and the constant operators of the
/// differentiable candidate-edge path.  Build once per target; share across
/// outer iterations.
struct SubgraphView {
  // ----- Node set. -----
  std::vector<int64_t> nodes;            ///< local -> global id, ascending.
  std::vector<int64_t> global_to_local;  ///< size n_global; -1 outside.
  int64_t target_local = -1;

  // ----- Candidate add-edges (target, candidates[k]). -----
  std::vector<int64_t> candidates_global;
  std::vector<int64_t> candidates_local;

  // ----- Induced clean edges, canonical (u < v) local order. -----
  std::vector<IndexPair> edges_local;

  /// Augmented pattern over local ids: induced clean edges + self loops +
  /// candidate edges.  Structurally immutable for the view's lifetime.
  std::shared_ptr<const CsrPattern> pattern;

  /// Per-nnz base values: 1.0 at clean-edge and diagonal slots, 0.0 at
  /// candidate slots (they start absent).
  Tensor base_values;  // (nnz, 1)

  /// Per-undirected-slot base values over the S = |edges_local| + m slots
  /// (clean edges first, then candidates): 1.0 / 0.0 as above.
  Tensor und_base;  // (S, 1)

  /// For undirected slot s: the two directed nnz positions (upper, lower).
  std::vector<std::pair<int64_t, int64_t>> slot_nnz;

  /// nnz position of each local node's diagonal slot.
  std::vector<int64_t> diag_nnz;

  /// Clean edges from each view node to nodes *outside* the view (0 for a
  /// full view); added to pattern row sums so normalization sees true
  /// degrees.
  Tensor out_degree;  // (n_sub, 1)

  // ----- Constant sparse operators for the differentiable path. -----
  /// (nnz, S): scatters one value per undirected slot onto both of its
  /// directed slots; diagonal rows are empty.
  std::shared_ptr<const CsrMatrix> slot_expand;
  /// (nnz, m): scatters one value per candidate onto its two directed slots.
  std::shared_ptr<const CsrMatrix> cand_expand;
  /// (S, m): embeds an (m,1) candidate vector at slots S-m..S-1.
  std::shared_ptr<const CsrMatrix> cand_slot_pad;
  /// (m, S): selects the candidate block of an (S,1) slot vector.
  std::shared_ptr<const CsrMatrix> cand_slot_take;
  // (Per-slot row/column degree gathers used to live here as explicit
  // selector matrices; the fused GcnNormValues node expresses them through
  // the pattern itself, so the view no longer carries them.)

  int64_t num_nodes() const { return static_cast<int64_t>(nodes.size()); }
  int64_t num_edges() const { return static_cast<int64_t>(edges_local.size()); }
  int64_t num_candidates() const {
    return static_cast<int64_t>(candidates_global.size());
  }
  int64_t num_slots() const { return num_edges() + num_candidates(); }
  bool full() const {
    return nodes.size() == global_to_local.size();
  }

  /// Undirected slot id of local edge (u, v) — clean or candidate — or -1
  /// if the pair has no slot.  O(log |E_sub|).
  int64_t EdgeSlot(int64_t u_local, int64_t v_local) const;
};

/// Builds the view for `target` on `graph`.  `hops < 0` covers every node;
/// otherwise the view is the `hops`-hop ball around the target in the
/// augmented graph (clean + candidate edges).  Candidates must be distinct
/// from the target and not adjacent to it.
///
/// One pass over the view's rows writes each augmented CSR row in order:
/// the diagonal and candidate columns are merged into the sorted neighbour
/// row, an upper clean entry (u, v) with u < v opens the next undirected
/// slot, and its mirror (v, u) takes that slot from a cursor over row u's
/// upper slots.  O(n + nnz) for a full view, with no per-row sort or slot
/// search.
SubgraphView BuildSubgraphView(const Graph& graph, int64_t target, int hops,
                               const std::vector<int64_t>& candidates_global);

/// The same view, field for field, read from the clean graph's symmetric
/// CSR adjacency (sorted rows, empty diagonal — AttackContext::clean_csr)
/// instead of a Graph's adjacency sets.  The attack request paths use this
/// one.
SubgraphView BuildSubgraphView(const CsrPattern& adjacency, int64_t target,
                               int hops,
                               const std::vector<int64_t>& candidates_global);

/// Membership flags (size n, 0/1) of the `hops`-hop ball around `target` in
/// the augmented graph (clean edges + the candidate edges, which put every
/// candidate at distance 1) — exactly the node set BuildSubgraphView would
/// materialize, without building the view.  `hops < 0` flags every node.
/// Reads the clean graph's symmetric CSR adjacency (AttackContext::
/// clean_csr).  The live-graph service uses this for ball-overlap
/// invalidation: a churn batch whose endpoints all lie outside a queued
/// target's ball cannot change that target's view, out-degrees, or
/// candidate set, so its picks are identical on the old and new epochs and
/// it keeps its pinned snapshot.
std::vector<char> AugmentedBallFlags(
    const CsrPattern& adjacency, int64_t target, int hops,
    const std::vector<int64_t>& candidates_global);

}  // namespace geattack

#endif  // GEATTACK_SRC_GRAPH_SUBGRAPH_H_
