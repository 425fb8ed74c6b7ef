// Reverse-mode automatic differentiation with higher-order gradients.
//
// GEAttack (Algorithm 1 of the paper) needs to differentiate through T
// gradient-descent steps of GNNExplainer: the adjacency mask M_A^T is a
// function of the perturbed adjacency Â via the inner updates
//     M_A^t = M_A^{t-1} - η ∇_{M_A^{t-1}} L_Explainer(f_θ, Â, M_A^{t-1}, ...),
// and the outer loop needs ∇_Â of a loss that contains M_A^T.  The authors
// rely on PyTorch's create_graph=True double backward; this module rebuilds
// that capability.
//
// Design: a Var is a handle to a Node in a dynamically built computation
// graph.  Each Node stores its Tensor value, its parents, and a backward
// closure that — given the upstream gradient *as a Var* — returns the
// gradient contributions to each parent *as Vars built from the same ops*.
// Because backward emits ordinary graph nodes, the output of Grad() is
// itself differentiable, and gradients of any order come for free.
//
// All ops are free functions (Add, MatMul, Sigmoid, ...).  Broadcasting
// follows Tensor::BroadcastCompatible: a (n,1), (1,c) or (1,1) operand
// broadcasts against an (n,c) one; the corresponding backward reduces with
// RowSum/ColSum/Sum so gradients keep the operand's shape.

#ifndef GEATTACK_SRC_TENSOR_AUTODIFF_H_
#define GEATTACK_SRC_TENSOR_AUTODIFF_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/tensor/csr.h"
#include "src/tensor/tensor.h"

namespace geattack {

class Node;

/// Shared handle to a node of the computation graph.  Copying a Var aliases
/// the node.  A default-constructed Var is null; ops check for null inputs.
class Var {
 public:
  Var() = default;
  explicit Var(std::shared_ptr<Node> node) : node_(std::move(node)) {}

  /// Creates a leaf holding `value`.  If `requires_grad`, Grad() can
  /// differentiate with respect to it.
  static Var Leaf(Tensor value, bool requires_grad = false,
                  std::string name = "");

  bool defined() const { return node_ != nullptr; }
  Node* node() const { return node_.get(); }
  const std::shared_ptr<Node>& ptr() const { return node_; }

  /// The tensor value at this node.
  const Tensor& value() const;
  int64_t rows() const { return value().rows(); }
  int64_t cols() const { return value().cols(); }
  bool requires_grad() const;

 private:
  std::shared_ptr<Node> node_;
};

/// A node of the computation graph.  Users interact through Var and the op
/// functions; Node is exposed for the engine and for tests.
class Node {
 public:
  using BackwardFn = std::function<std::vector<Var>(const Var& grad_out)>;

  Node(Tensor value, bool requires_grad, std::string op_name);

  const Tensor& value() const { return value_; }
  bool requires_grad() const { return requires_grad_; }
  int64_t id() const { return id_; }
  const std::string& op_name() const { return op_name_; }
  const std::vector<std::shared_ptr<Node>>& parents() const {
    return parents_;
  }

  void set_parents(std::vector<std::shared_ptr<Node>> parents) {
    parents_ = std::move(parents);
  }
  void set_backward(BackwardFn fn) { backward_ = std::move(fn); }
  const BackwardFn& backward() const { return backward_; }

 private:
  Tensor value_;
  bool requires_grad_;
  int64_t id_;  // Monotonically increasing creation index; parents < child.
  std::string op_name_;
  std::vector<std::shared_ptr<Node>> parents_;
  BackwardFn backward_;
};

// ----- Graph construction helpers. -----------------------------------------

/// Leaf constant (requires_grad = false).
Var Constant(Tensor value, std::string name = "const");
/// Scalar constant.
Var ConstantScalar(double v);

// ----- Elementwise / broadcasting arithmetic. --------------------------------

/// a + b; one operand may broadcast against the other.
Var Add(const Var& a, const Var& b);
/// a - b.
Var Sub(const Var& a, const Var& b);
/// Hadamard product; one operand may broadcast against the other.
Var Mul(const Var& a, const Var& b);
/// a / b (elementwise; b may broadcast).
Var Div(const Var& a, const Var& b);
/// -a.
Var Neg(const Var& a);
/// a + s.
Var AddScalar(const Var& a, double s);
/// a * s.
Var MulScalar(const Var& a, double s);

// ----- Elementwise nonlinearities. ------------------------------------------

Var Sigmoid(const Var& a);
Var Relu(const Var& a);
Var Exp(const Var& a);
Var Log(const Var& a);
/// Elementwise power with constant exponent.
Var Pow(const Var& a, double e);

// ----- Linear algebra. --------------------------------------------------------

Var MatMul(const Var& a, const Var& b);
Var Transpose(const Var& a);

// ----- Reductions / selection. ------------------------------------------------

/// Sum of all elements -> (1,1).
Var Sum(const Var& a);
/// Row-wise sum -> (rows,1).
Var RowSum(const Var& a);
/// Column-wise sum -> (1,cols).
Var ColSum(const Var& a);
/// Element (i,j) -> (1,1).
Var At(const Var& a, int64_t i, int64_t j);
/// Row i -> (1,cols).
Var SelectRow(const Var& a, int64_t i);
/// Embeds a (1,cols) Var as row i of a rows x cols zero matrix.
Var ScatterRow(const Var& a, int64_t rows, int64_t i);

/// Cuts the graph: returns a new leaf with a copy of a's value and
/// requires_grad = false.
Var Detach(const Var& a);

// ----- Edge-indexed ops (explainer masks). -----------------------------------

/// Pairs of (row, col) indices into an n x n matrix; each pair is written
/// symmetrically.
struct IndexPair {
  int64_t u;
  int64_t v;
};

/// Scatters an (m,1) vector of per-edge values into an n x n zero matrix,
/// writing values[e] at both (u_e, v_e) and (v_e, u_e).  Backward gathers
/// g[u]+g[v] per edge.  Duplicate pairs accumulate.
Var ScatterEdges(const Var& values, const std::vector<IndexPair>& pairs,
                 int64_t n);

/// Gathers a[u_e, v_e] + a[v_e, u_e] per pair into an (m,1) vector — the
/// adjoint of ScatterEdges.
Var GatherEdges(const Var& a, const std::vector<IndexPair>& pairs);

// ----- Sparse (CSR) kernels. --------------------------------------------------

/// Sparse × dense product with a *constant* CSR left operand: A·b.  The
/// gradient flows into `b` only (d/db = Aᵀ·g); use SpMMValues when the
/// sparse entries themselves need gradients.  This is the O(|E|·k) training
/// and inference kernel.  With `a_symmetric` (e.g. the GCN-normalized
/// adjacency) the backward reuses `a` itself — no transpose is ever built,
/// which matters in epoch loops.
Var SpMM(std::shared_ptr<const CsrMatrix> a, const Var& b,
         bool a_symmetric = false);

/// Convenience overload; copies `a` into a shared handle.
Var SpMM(const CsrMatrix& a, const Var& b);

/// Sparse × dense product A·b where A has fixed sparsity `pattern` and
/// differentiable entries `values`, an (nnz,1) Var in pattern order.
/// Gradients flow into both `values` (∂/∂v_e = Σ_j g[r_e,j]·b[c_e,j] — the
/// per-edge adjacency gradient attacks need) and `b` (Aᵀ·g).  Backward
/// emits SpMMValues / SpmmValueGrad / PermuteRows nodes, so gradients of any
/// order are available, matching the bilevel GEAttack requirement.
Var SpMMValues(std::shared_ptr<const CsrPattern> pattern, const Var& values,
               const Var& b);

/// out[e] = Σ_j g[r_e,j]·b[c_e,j] as an (nnz,1) vector — the adjoint of
/// SpMMValues with respect to its values operand (a sparse-masked g·bᵀ).
Var SpmmValueGrad(std::shared_ptr<const CsrPattern> pattern, const Var& g,
                  const Var& b);

/// Reorders the rows of an (m,c) Var by a fixed index map:
/// out[i,:] = a[perm[i],:].  `perm` must be a permutation of [0, m).
Var PermuteRows(const Var& a, std::shared_ptr<const std::vector<int64_t>> perm);

/// Fused GCN normalization over a square pattern with differentiable
/// entries `values` ((nnz,1), pattern order): returns the (nnz,1)
/// normalized values Ã_e = v_e·d̃^{-1/2}[r_e]·d̃^{-1/2}[c_e] with
/// d̃ = pattern row sums + out_deg, as ONE node (GcnNormValuesRaw kernel)
/// instead of the five rowsum/pow/gather/scale nodes.  Use this when the
/// normalized values feed several products (the two-layer GCN) so the
/// backward chain is built once and the accumulated ∂L/∂Ã flows through it
/// a single time; use GcnNormSpMM when normalize+SpMM happen exactly once.
/// Double-backward-safe; bit-identical forward to the unfused composition.
Var GcnNormValues(std::shared_ptr<const CsrPattern> pattern, const Var& values,
                  const Var& out_deg = Var());

/// Fused GCN-normalize + SpMM over a square pattern with differentiable
/// entries `values` ((nnz,1), pattern order):
///   d̃_i = Σ_{e ∈ row i} v_e + out_deg_i,
///   Ã_e = v_e · d̃^{-1/2}[r_e] · d̃^{-1/2}[c_e],
///   out = Ã·b,
/// in one kernel pass (GcnNormSpmmRaw) instead of the five separate
/// rowsum/pow/gather/scale/SpMMValues nodes — the forward of the sparse
/// candidate-edge attack path.  `out_deg` is an optional (n,1) out-of-view
/// degree correction (undefined = zeros); gradients flow into `values`, `b`,
/// and `out_deg`.  The backward is composed from SpMMValues/SpmmValueGrad/
/// PermuteRows/Pow nodes, so gradients of any order are available and
/// GEAttack's hypergradient rides through it unchanged.  Bit-identical
/// forward values to the unfused composition.
Var GcnNormSpMM(std::shared_ptr<const CsrPattern> pattern, const Var& values,
                const Var& b, const Var& out_deg = Var());

// ----- Column-block ops (edge-feature assembly). ------------------------------

/// Horizontal concatenation [a | b]; rows must match.
Var HConcat(const Var& a, const Var& b);

/// Columns [start, start+len) of a.
Var SliceCols(const Var& a, int64_t start, int64_t len);

// ----- Composite helpers (built from the ops above, so fully
// differentiable to any order). ------------------------------------------------

/// Numerically stable log-softmax over each row.
Var LogSoftmaxRows(const Var& a);
/// Softmax over each row.
Var SoftmaxRows(const Var& a);
/// Negative log-likelihood of class `label` for row `row` of `logits`:
/// -log softmax(logits)[row, label].  This is the ℓ(·,·) of Eq. (1)/(4).
Var NllRow(const Var& logits, int64_t row, int64_t label);

// ----- Differentiation. ---------------------------------------------------------

struct GradOptions {
  /// When true, the returned gradients carry a computation graph and can be
  /// differentiated again (PyTorch's create_graph).  When false they are
  /// detached leaves.
  bool create_graph = false;
};

/// Gradients of `output` (any shape; seeded with ones) with respect to each
/// of `inputs`.  Inputs need not be leaves: the gradient at an interior node
/// is the sum of upstream contributions flowing into it.  Inputs that do not
/// influence `output` get a zero gradient of their shape.  The backward
/// visits only the subgraph between the inputs and `output` (the nodes on a
/// path from an input to it), so differentiating step t of an unrolled loop
/// with respect to that step's iterate costs the same at every t.
std::vector<Var> Grad(const Var& output, const std::vector<Var>& inputs,
                      const GradOptions& options = {});

/// Convenience overload for a single input.
Var GradOne(const Var& output, const Var& input,
            const GradOptions& options = {});

/// Number of graph nodes created so far (diagnostics/tests).
int64_t NodeCount();

}  // namespace geattack

#endif  // GEATTACK_SRC_TENSOR_AUTODIFF_H_
