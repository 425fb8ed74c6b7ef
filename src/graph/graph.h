// Undirected graph representation and GCN normalization.
//
// Graphs are simple (no self loops, no multi-edges) and undirected, matching
// the paper's setting.  Adjacency-list storage backs the structural queries
// (degrees, neighborhoods, connected components); dense Tensor views are
// produced on demand for the models and attacks.

#ifndef GEATTACK_SRC_GRAPH_GRAPH_H_
#define GEATTACK_SRC_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/tensor/autodiff.h"
#include "src/tensor/csr.h"
#include "src/tensor/tensor.h"

namespace geattack {

/// An undirected edge with u < v canonical ordering.
struct Edge {
  int64_t u = 0;
  int64_t v = 0;

  Edge() = default;
  Edge(int64_t a, int64_t b) : u(a < b ? a : b), v(a < b ? b : a) {}

  bool operator==(const Edge& o) const { return u == o.u && v == o.v; }
  bool operator<(const Edge& o) const {
    return u != o.u ? u < o.u : v < o.v;
  }
};

/// Simple undirected graph.
///
/// Copies share adjacency rows.  Copying a Graph copies one handle per
/// node; AddEdge/RemoveEdge copy a row first only while another graph still
/// holds it.  So a copy costs O(n) plus O(deg) per row it later writes, and
/// destroying a graph frees only the rows no other graph holds.  Copies may
/// be written on different threads, and the source may be destroyed
/// meanwhile.
class Graph {
 public:
  Graph() = default;
  explicit Graph(int64_t num_nodes);

  /// Builds a graph from a dense symmetric 0/1 adjacency matrix; entries
  /// > 0.5 are edges, the diagonal is ignored.
  static Graph FromDense(const Tensor& adjacency);

  int64_t num_nodes() const { return static_cast<int64_t>(adj_.size()); }
  int64_t num_edges() const { return num_edges_; }

  /// Adds the undirected edge (u,v).  Returns false if it already exists or
  /// u == v.
  bool AddEdge(int64_t u, int64_t v);
  /// Removes the undirected edge (u,v).  Returns false if absent.
  bool RemoveEdge(int64_t u, int64_t v);
  bool HasEdge(int64_t u, int64_t v) const;

  int64_t Degree(int64_t u) const;
  /// Sorted neighbor set of u.  The reference may be a row shared with
  /// copies of this graph, and is valid only until the next AddEdge or
  /// RemoveEdge on this graph.
  const std::set<int64_t>& Neighbors(int64_t u) const;

  /// All edges in canonical (u < v) order.
  std::vector<Edge> Edges() const;

  /// Dense symmetric adjacency matrix with zero diagonal.
  Tensor DenseAdjacency() const;

  /// Sparse CSR adjacency (symmetric, zero diagonal, all stored values 1.0).
  /// O(n + |E|); the adjacency sets are already sorted so no sort is needed.
  CsrMatrix CsrAdjacency() const;

  /// Nodes within `hops` hops of `center` (including it) — the GCN
  /// computation graph that explainers operate on.
  std::vector<int64_t> KHopNeighborhood(int64_t center, int hops) const;

  /// Connected component ids (0-based, by discovery) per node.
  std::vector<int64_t> ConnectedComponents() const;

  /// Extracts the largest connected component.  `mapping` (optional out)
  /// receives, for each new node id, the original node id.
  Graph LargestConnectedComponent(std::vector<int64_t>* mapping = nullptr)
      const;

  /// True if symmetric-by-construction invariants hold (debug helper).
  bool CheckInvariants() const;

 private:
  using Row = std::set<int64_t>;
  const Row& row(int64_t u) const;
  /// Row u, unshared first if another graph holds it.
  Row& MutableRow(int64_t u);

  /// Row handles; nullptr is an empty row no write has touched.
  std::vector<std::shared_ptr<Row>> adj_;
  int64_t num_edges_ = 0;
};

/// GCN normalization of a dense adjacency: Ã = D̃^{-1/2} (A + I) D̃^{-1/2}
/// with D̃ the degree matrix of A + I (Kipf & Welling).  Non-differentiable
/// fast path used when the graph is fixed.
Tensor NormalizeAdjacency(const Tensor& adjacency);

/// Differentiable GCN normalization on the autodiff graph; used when
/// attacking (gradients w.r.t. the adjacency) and when explaining
/// (gradients w.r.t. the mask).
Var NormalizeAdjacencyVar(const Var& adjacency);

/// Sparse twin of NormalizeAdjacency: Ã in CSR form, built in O(n + |E|)
/// without ever materializing a dense matrix.  The fast path for training
/// and inference on large graphs.
CsrMatrix NormalizeAdjacencyCsr(const Graph& graph);

/// Applies a set of undirected edge flips to a symmetric CSR adjacency in a
/// single merge pass, O(nnz + k·log k + n) for k flips — the incremental
/// update attack loops use instead of rebuilding from the Graph.  Edges in
/// `added` are written symmetrically with value 1.0 (must be absent from
/// `adjacency`); edges in `removed` are deleted (must be present).
CsrMatrix ApplyEdgeFlips(const CsrMatrix& adjacency,
                         const std::vector<Edge>& added,
                         const std::vector<Edge>& removed);

/// Incremental GCN re-normalization over an edge-flip batch (adds and/or
/// removals): given Ã of the current 0/1 graph and its d̃ = degree + 1,
/// returns Ã of (A + added − removed).  Every entry incident to a touched
/// node is *recomputed* from the new degrees with exactly GcnNormalizeCsr's
/// per-entry expression (all underlying adjacency values are 1.0, and d̃ is
/// an exact small integer in a double), so the result is bit-identical to
/// GcnNormalizeCsr(churned.CsrAdjacency()) — the property that lets a live
/// snapshot built incrementally epoch over epoch, a perturbed eval graph,
/// or Nettack's committed picks stand in for a fresh normalization without
/// perturbing any pick.  `added` edges must be absent, `removed` edges
/// present, and no removal may empty a node past d̃ = 1 (the self loop).
/// O(n + nnz + Σ_touched deg·log deg).
CsrMatrix GcnRenormalizeAfterFlips(const CsrMatrix& norm_adjacency,
                                   const Tensor& degp1,
                                   const std::vector<Edge>& added,
                                   const std::vector<Edge>& removed);

/// Attributed graph with node labels: the unit of work for every
/// experiment.  `labels[i]` in [0, num_classes).
struct GraphData {
  Graph graph;
  Tensor features;            // num_nodes x feature_dim.
  std::vector<int64_t> labels;
  int64_t num_classes = 0;

  int64_t num_nodes() const { return graph.num_nodes(); }
  int64_t feature_dim() const { return features.cols(); }
};

/// Train/validation/test node index split.
struct Split {
  std::vector<int64_t> train;
  std::vector<int64_t> val;
  std::vector<int64_t> test;
};

}  // namespace geattack

#endif  // GEATTACK_SRC_GRAPH_GRAPH_H_
