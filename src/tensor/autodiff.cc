#include "src/tensor/autodiff.h"

#include <algorithm>
#include <atomic>
#include <ranges>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace geattack {

namespace {

std::atomic<int64_t> g_node_counter{0};

}  // namespace

Node::Node(Tensor value, bool requires_grad, std::string op_name)
    : value_(std::move(value)),
      requires_grad_(requires_grad),
      id_(g_node_counter.fetch_add(1)),
      op_name_(std::move(op_name)) {}

Var Var::Leaf(Tensor value, bool requires_grad, std::string name) {
  return Var(std::make_shared<Node>(std::move(value), requires_grad,
                                    name.empty() ? "leaf" : std::move(name)));
}

const Tensor& Var::value() const {
  GEA_CHECK(node_ != nullptr);
  return node_->value();
}

bool Var::requires_grad() const {
  GEA_CHECK(node_ != nullptr);
  return node_->requires_grad();
}

int64_t NodeCount() { return g_node_counter.load(); }

namespace {

bool AnyRequiresGrad(const std::vector<Var>& parents) {
  for (const Var& p : parents)
    if (p.defined() && p.requires_grad()) return true;
  return false;
}

/// Creates an op node with the given parents and backward closure.
Var MakeOp(Tensor value, std::vector<Var> parents, Node::BackwardFn backward,
           std::string op_name) {
  const bool rg = AnyRequiresGrad(parents);
  auto node = std::make_shared<Node>(std::move(value), rg, std::move(op_name));
  std::vector<std::shared_ptr<Node>> parent_nodes;
  parent_nodes.reserve(parents.size());
  for (const Var& p : parents) parent_nodes.push_back(p.ptr());
  node->set_parents(std::move(parent_nodes));
  if (rg) node->set_backward(std::move(backward));
  return Var(node);
}

/// Reduces `g` (whose shape matches the broadcast result) back to the shape
/// of the broadcast operand, by summing over broadcast dimensions.  Built
/// from differentiable ops so double backward works.
Var ReduceTo(const Var& g, int64_t rows, int64_t cols) {
  if (g.rows() == rows && g.cols() == cols) return g;
  if (rows == 1 && cols == 1) return Sum(g);
  if (cols == 1) {
    GEA_CHECK(rows == g.rows());
    return RowSum(g);
  }
  GEA_CHECK(rows == 1 && cols == g.cols());
  return ColSum(g);
}

}  // namespace

Var Constant(Tensor value, std::string name) {
  return Var::Leaf(std::move(value), /*requires_grad=*/false, std::move(name));
}

Var ConstantScalar(double v) { return Constant(Tensor::Scalar(v), "scalar"); }

Var Add(const Var& a, const Var& b) {
  GEA_CHECK(a.defined() && b.defined());
  if (!a.value().BroadcastCompatible(b.value())) {
    // Commutative: allow the broadcast operand on either side.
    GEA_CHECK(b.value().BroadcastCompatible(a.value()));
    return Add(b, a);
  }
  // Same-shape fast path: identical arithmetic to BroadcastBinary without
  // the per-element std::function dispatch (this op dominates the
  // elementwise traffic of the attack backwards).
  const bool same = a.rows() == b.rows() && a.cols() == b.cols();
  Tensor out = same ? a.value() + b.value()
                    : a.value().BroadcastBinary(
                          b.value(),
                          [](double x, double y) { return x + y; });
  const int64_t br = b.rows(), bc = b.cols();
  return MakeOp(
      std::move(out), {a, b},
      [br, bc](const Var& g) -> std::vector<Var> {
        return {g, ReduceTo(g, br, bc)};
      },
      "add");
}

Var Sub(const Var& a, const Var& b) { return Add(a, Neg(b)); }

Var Mul(const Var& a, const Var& b) {
  GEA_CHECK(a.defined() && b.defined());
  if (!a.value().BroadcastCompatible(b.value())) {
    GEA_CHECK(b.value().BroadcastCompatible(a.value()));
    return Mul(b, a);
  }
  // Same-shape fast path (see Add).
  const bool same = a.rows() == b.rows() && a.cols() == b.cols();
  Tensor out = same ? a.value() * b.value()
                    : a.value().BroadcastBinary(
                          b.value(),
                          [](double x, double y) { return x * y; });
  const int64_t br = b.rows(), bc = b.cols();
  // Backward closures build gradient Vars eagerly, so skip the work for
  // parents the engine will never read (requires_grad is fixed at
  // construction; Grad() ignores entries of non-requiring parents).
  const bool need_a = a.requires_grad(), need_b = b.requires_grad();
  return MakeOp(
      std::move(out), {a, b},
      [a, b, br, bc, need_a, need_b](const Var& g) -> std::vector<Var> {
        // d/da = g ⊙ b (b broadcasts onto g's shape);
        // d/db = reduce(g ⊙ a) to b's shape.
        Var ga = need_a ? Mul(g, b) : Var();
        Var gb = need_b ? ReduceTo(Mul(g, a), br, bc) : Var();
        return {ga, gb};
      },
      "mul");
}

Var Div(const Var& a, const Var& b) { return Mul(a, Pow(b, -1.0)); }

Var Neg(const Var& a) { return MulScalar(a, -1.0); }

Var AddScalar(const Var& a, double s) {
  GEA_CHECK(a.defined());
  return MakeOp(
      a.value().AddScalar(s), {a},
      [](const Var& g) -> std::vector<Var> { return {g}; }, "add_scalar");
}

Var MulScalar(const Var& a, double s) {
  GEA_CHECK(a.defined());
  return MakeOp(
      a.value().MulScalar(s), {a},
      [s](const Var& g) -> std::vector<Var> { return {MulScalar(g, s)}; },
      "mul_scalar");
}

Var Sigmoid(const Var& a) {
  GEA_CHECK(a.defined());
  return MakeOp(
      a.value().Sigmoid(), {a},
      [a](const Var& g) -> std::vector<Var> {
        // σ'(x) = σ(x)(1-σ(x)); recomputed through ops so that the result
        // remains differentiable (needed for double backward).
        Var s = Sigmoid(a);
        Var one_minus = AddScalar(Neg(s), 1.0);
        return {Mul(g, Mul(s, one_minus))};
      },
      "sigmoid");
}

Var Relu(const Var& a) {
  GEA_CHECK(a.defined());
  return MakeOp(
      a.value().Relu(), {a},
      [a](const Var& g) -> std::vector<Var> {
        // The indicator 1[x>0] is locally constant: its own derivative is 0
        // almost everywhere, so a constant mask is the exact Jacobian.
        Tensor mask = a.value().Map([](double v) { return v > 0 ? 1.0 : 0.0; });
        return {Mul(g, Constant(std::move(mask), "relu_mask"))};
      },
      "relu");
}

Var Exp(const Var& a) {
  GEA_CHECK(a.defined());
  return MakeOp(
      a.value().Exp(), {a},
      [a](const Var& g) -> std::vector<Var> { return {Mul(g, Exp(a))}; },
      "exp");
}

Var Log(const Var& a) {
  GEA_CHECK(a.defined());
  return MakeOp(
      a.value().Log(), {a},
      [a](const Var& g) -> std::vector<Var> { return {Mul(g, Pow(a, -1.0))}; },
      "log");
}

Var Pow(const Var& a, double e) {
  GEA_CHECK(a.defined());
  return MakeOp(
      a.value().Pow(e), {a},
      [a, e](const Var& g) -> std::vector<Var> {
        return {Mul(g, MulScalar(Pow(a, e - 1.0), e))};
      },
      "pow");
}

Var MatMul(const Var& a, const Var& b) {
  GEA_CHECK(a.defined() && b.defined());
  const bool need_a = a.requires_grad(), need_b = b.requires_grad();
  return MakeOp(
      a.value().MatMul(b.value()), {a, b},
      [a, b, need_a, need_b](const Var& g) -> std::vector<Var> {
        return {need_a ? MatMul(g, Transpose(b)) : Var(),
                need_b ? MatMul(Transpose(a), g) : Var()};
      },
      "matmul");
}

Var Transpose(const Var& a) {
  GEA_CHECK(a.defined());
  return MakeOp(
      a.value().Transposed(), {a},
      [](const Var& g) -> std::vector<Var> { return {Transpose(g)}; },
      "transpose");
}

Var Sum(const Var& a) {
  GEA_CHECK(a.defined());
  const int64_t r = a.rows(), c = a.cols();
  return MakeOp(
      Tensor::Scalar(a.value().Sum()), {a},
      [r, c](const Var& g) -> std::vector<Var> {
        // Broadcast the scalar gradient to the input shape.
        return {Mul(Constant(Tensor::Ones(r, c), "ones"), g)};
      },
      "sum");
}

Var RowSum(const Var& a) {
  GEA_CHECK(a.defined());
  const int64_t r = a.rows(), c = a.cols();
  return MakeOp(
      a.value().RowSum(), {a},
      [r, c](const Var& g) -> std::vector<Var> {
        return {Mul(Constant(Tensor::Ones(r, c), "ones"), g)};
      },
      "row_sum");
}

Var ColSum(const Var& a) {
  GEA_CHECK(a.defined());
  const int64_t r = a.rows(), c = a.cols();
  return MakeOp(
      a.value().ColSum(), {a},
      [r, c](const Var& g) -> std::vector<Var> {
        return {Mul(Constant(Tensor::Ones(r, c), "ones"), g)};
      },
      "col_sum");
}

namespace {

/// Internal: embeds a (1,1) Var at position (i,j) of a rows x cols zero
/// matrix.  Inverse of At; each is the other's backward.
Var ScatterAt(const Var& a, int64_t rows, int64_t cols, int64_t i, int64_t j) {
  GEA_CHECK(a.defined());
  GEA_CHECK(a.rows() == 1 && a.cols() == 1);
  Tensor out(rows, cols);
  out.at(i, j) = a.value().scalar();
  return MakeOp(
      std::move(out), {a},
      [i, j](const Var& g) -> std::vector<Var> { return {At(g, i, j)}; },
      "scatter_at");
}

}  // namespace

Var At(const Var& a, int64_t i, int64_t j) {
  GEA_CHECK(a.defined());
  const int64_t r = a.rows(), c = a.cols();
  GEA_CHECK(i >= 0 && i < r && j >= 0 && j < c);
  return MakeOp(
      Tensor::Scalar(a.value().at(i, j)), {a},
      [r, c, i, j](const Var& g) -> std::vector<Var> {
        return {ScatterAt(g, r, c, i, j)};
      },
      "at");
}

Var SelectRow(const Var& a, int64_t i) {
  GEA_CHECK(a.defined());
  const int64_t r = a.rows();
  GEA_CHECK(i >= 0 && i < r);
  return MakeOp(
      a.value().Row(i), {a},
      [r, i](const Var& g) -> std::vector<Var> {
        return {ScatterRow(g, r, i)};
      },
      "select_row");
}

Var ScatterRow(const Var& a, int64_t rows, int64_t i) {
  GEA_CHECK(a.defined());
  GEA_CHECK(a.rows() == 1);
  GEA_CHECK(i >= 0 && i < rows);
  Tensor out(rows, a.cols());
  for (int64_t j = 0; j < a.cols(); ++j) out.at(i, j) = a.value().at(0, j);
  return MakeOp(
      std::move(out), {a},
      [i](const Var& g) -> std::vector<Var> { return {SelectRow(g, i)}; },
      "scatter_row");
}

Var Detach(const Var& a) {
  GEA_CHECK(a.defined());
  return Constant(a.value(), "detach");
}

Var ScatterEdges(const Var& values, const std::vector<IndexPair>& pairs,
                 int64_t n) {
  GEA_CHECK(values.defined());
  GEA_CHECK(values.cols() == 1);
  GEA_CHECK(values.rows() == static_cast<int64_t>(pairs.size()));
  Tensor out(n, n);
  for (size_t e = 0; e < pairs.size(); ++e) {
    const auto& [u, v] = pairs[e];
    GEA_CHECK(u >= 0 && u < n && v >= 0 && v < n);
    out.at(u, v) += values.value().at(static_cast<int64_t>(e), 0);
    if (u != v) out.at(v, u) += values.value().at(static_cast<int64_t>(e), 0);
  }
  return MakeOp(
      std::move(out), {values},
      [pairs](const Var& g) -> std::vector<Var> {
        return {GatherEdges(g, pairs)};
      },
      "scatter_edges");
}

Var GatherEdges(const Var& a, const std::vector<IndexPair>& pairs) {
  GEA_CHECK(a.defined());
  GEA_CHECK(a.rows() == a.cols());
  const int64_t n = a.rows();
  Tensor out(static_cast<int64_t>(pairs.size()), 1);
  for (size_t e = 0; e < pairs.size(); ++e) {
    const auto& [u, v] = pairs[e];
    GEA_CHECK(u >= 0 && u < n && v >= 0 && v < n);
    out.at(static_cast<int64_t>(e), 0) =
        u == v ? a.value().at(u, v) : a.value().at(u, v) + a.value().at(v, u);
  }
  return MakeOp(
      std::move(out), {a},
      [pairs, n](const Var& g) -> std::vector<Var> {
        return {ScatterEdges(g, pairs, n)};
      },
      "gather_edges");
}

Var SpMM(std::shared_ptr<const CsrMatrix> a, const Var& b, bool a_symmetric) {
  GEA_CHECK(b.defined());
  GEA_CHECK(a != nullptr && !a->empty());
  // Precompute Aᵀ for the backward only when a gradient will flow; a
  // symmetric operand is its own transpose, so epoch loops over a fixed
  // normalized adjacency never materialize one.
  std::shared_ptr<const CsrMatrix> at;
  if (b.requires_grad())
    at = a_symmetric ? a : std::make_shared<CsrMatrix>(a->Transposed());
  return MakeOp(
      a->SpMM(b.value()), {b},
      [at, a_symmetric](const Var& g) -> std::vector<Var> {
        return {SpMM(at, g, a_symmetric)};
      },
      "spmm");
}

Var SpMM(const CsrMatrix& a, const Var& b) {
  return SpMM(std::make_shared<CsrMatrix>(a), b);
}

Var SpMMValues(std::shared_ptr<const CsrPattern> pattern, const Var& values,
               const Var& b) {
  GEA_CHECK(pattern != nullptr);
  GEA_CHECK(values.defined() && b.defined());
  GEA_CHECK(values.cols() == 1 && values.rows() == pattern->nnz());
  Tensor out = SpmmRaw(*pattern, values.value().data(), b.value());
  const bool need_v = values.requires_grad(), need_b = b.requires_grad();
  return MakeOp(
      std::move(out), {values, b},
      [pattern, values, b, need_v, need_b](const Var& g) -> std::vector<Var> {
        const CsrTranspose& t = pattern->Transpose();  // Cached after 1st.
        auto perm = std::shared_ptr<const std::vector<int64_t>>(
            pattern, &t.src_index);
        Var grad_values = need_v ? SpmmValueGrad(pattern, g, b) : Var();
        Var grad_b =
            need_b ? SpMMValues(t.pattern, PermuteRows(values, perm), g)
                   : Var();
        return {grad_values, grad_b};
      },
      "spmm_values");
}

Var SpmmValueGrad(std::shared_ptr<const CsrPattern> pattern, const Var& g,
                  const Var& b) {
  GEA_CHECK(pattern != nullptr);
  GEA_CHECK(g.defined() && b.defined());
  GEA_CHECK(g.rows() == pattern->rows && b.rows() == pattern->cols);
  GEA_CHECK(g.cols() == b.cols());
  const int64_t k = g.cols();
  Tensor out(pattern->nnz(), 1);
  const double* gd = g.value().data().data();
  const double* bd = b.value().data().data();
  double* o = out.mutable_data().data();
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 64)
#endif
  for (int64_t i = 0; i < pattern->rows; ++i) {
    const double* grow = gd + i * k;
    for (int64_t e = pattern->row_ptr[ZU(i)];
         e < pattern->row_ptr[ZU(i + 1)]; ++e) {
      const double* brow = bd + pattern->col_idx[ZU(e)] * k;
      double s = 0.0;
      for (int64_t j = 0; j < k; ++j) s += grow[j] * brow[j];
      o[e] = s;
    }
  }
  const bool need_g = g.requires_grad(), need_b = b.requires_grad();
  return MakeOp(
      std::move(out), {g, b},
      [pattern, g, b, need_g, need_b](const Var& u) -> std::vector<Var> {
        const CsrTranspose& t = pattern->Transpose();  // Cached after 1st.
        auto perm = std::shared_ptr<const std::vector<int64_t>>(
            pattern, &t.src_index);
        Var grad_g = need_g ? SpMMValues(pattern, u, b) : Var();
        Var grad_b =
            need_b ? SpMMValues(t.pattern, PermuteRows(u, perm), g) : Var();
        return {grad_g, grad_b};
      },
      "spmm_value_grad");
}

namespace {

/// Symbolic rebuild of the GCN normalization chain over a square pattern —
/// the backward machinery of GcnNormValues.  All
/// gathers and scatters are expressed through the pattern itself:
/// SpmmValueGrad(p, x, 1) gathers x[r_e], SpmmValueGrad(p, 1, x) gathers
/// x[c_e], SpMMValues(p, y, 1) row-scatters Σ_{r_e=i} y_e, and the
/// transposed pattern column-scatters.  Every piece is an existing
/// differentiable op, so closures using this are double-backward-safe by
/// construction.
struct NormChain {
  std::shared_ptr<const std::vector<int64_t>> perm;
  std::shared_ptr<const CsrPattern> t_pattern;
  Var ones, deg, dinv, dr, dc;
};

NormChain BuildNormChain(const std::shared_ptr<const CsrPattern>& pattern,
                         const Var& values, const Var& od) {
  const CsrTranspose& t = pattern->Transpose();  // Cached after 1st use.
  NormChain c;
  c.perm =
      std::shared_ptr<const std::vector<int64_t>>(pattern, &t.src_index);
  c.t_pattern = t.pattern;
  c.ones = Constant(Tensor::Ones(pattern->rows, 1), "ones");
  c.deg = Add(SpMMValues(pattern, values, c.ones), od);
  c.dinv = Pow(c.deg, -0.5);
  c.dr = SpmmValueGrad(pattern, c.dinv, c.ones);  // d̃^{-1/2}[r_e].
  c.dc = SpmmValueGrad(pattern, c.ones, c.dinv);  // d̃^{-1/2}[c_e].
  return c;
}

/// Gradient of the normalized values w.r.t. (values, deg) given ∂L/∂Ã_e:
/// the degree feedback ∂L/∂s_i is scattered from both endpoints, chained
/// through s = d̃^{-1/2}, and gathered back to the owning row (d̃_i sums
/// exactly the values of row i).  `gv` is skipped unless `need_v`.
void NormChainGrads(const std::shared_ptr<const CsrPattern>& pattern,
                    const NormChain& c, const Var& values, const Var& gnorm,
                    bool need_v, Var* gv, Var* gdeg) {
  Var gvdc = Mul(Mul(gnorm, values), c.dc);
  Var gvdr = Mul(Mul(gnorm, values), c.dr);
  Var gs = Add(SpMMValues(pattern, gvdc, c.ones),
               SpMMValues(c.t_pattern, PermuteRows(gvdr, c.perm), c.ones));
  *gdeg = Mul(gs, MulScalar(Pow(c.deg, -1.5), -0.5));
  if (need_v) {
    // Direct term ∂Ã_e/∂v_e = s_r·s_c plus the degree feedback.
    *gv = Add(Mul(gnorm, Mul(c.dr, c.dc)),
              SpmmValueGrad(pattern, *gdeg, c.ones));
  }
}

}  // namespace

Var GcnNormValues(std::shared_ptr<const CsrPattern> pattern, const Var& values,
                  const Var& out_deg) {
  GEA_CHECK(pattern != nullptr);
  GEA_CHECK(pattern->rows == pattern->cols);
  GEA_CHECK(values.defined());
  GEA_CHECK(values.cols() == 1 && values.rows() == pattern->nnz());
  const int64_t n = pattern->rows;
  Var od = out_deg.defined() ? out_deg : Constant(Tensor::Zeros(n, 1), "od0");
  GEA_CHECK(od.rows() == n && od.cols() == 1);
  Tensor out = GcnNormValuesRaw(*pattern, values.value().data(),
                                od.value().data().data());
  const bool need_v = values.requires_grad();
  const bool need_od = od.requires_grad();
  return MakeOp(
      std::move(out), {values, od},
      [pattern, values, od, need_v,
       need_od](const Var& gnorm) -> std::vector<Var> {
        const NormChain c = BuildNormChain(pattern, values, od);
        Var gv, gdeg;
        NormChainGrads(pattern, c, values, gnorm, need_v, &gv, &gdeg);
        return {gv, need_od ? gdeg : Var()};
      },
      "gcn_norm_values");
}

Var PermuteRows(const Var& a,
                std::shared_ptr<const std::vector<int64_t>> perm) {
  GEA_CHECK(a.defined());
  GEA_CHECK(perm != nullptr);
  const int64_t m = a.rows();
  const int64_t c = a.cols();
  GEA_CHECK(static_cast<int64_t>(perm->size()) == m);
  Tensor out(m, c);
  auto inverse = std::make_shared<std::vector<int64_t>>(perm->size());
  {
    const double* src_data = a.value().data().data();
    double* dst = out.mutable_data().data();
    for (int64_t i = 0; i < m; ++i) {
      const int64_t src = (*perm)[ZU(i)];
      GEA_CHECK(src >= 0 && src < m);
      const double* row = src_data + src * c;
      double* drow = dst + i * c;
      for (int64_t j = 0; j < c; ++j) drow[j] = row[j];
      (*inverse)[ZU(src)] = i;
    }
  }
  return MakeOp(
      std::move(out), {a},
      [inverse](const Var& g) -> std::vector<Var> {
        return {PermuteRows(g, inverse)};
      },
      "permute_rows");
}

namespace {

/// Internal: embeds `a` into a zero matrix with `total_cols` columns at
/// column offset `start` — the adjoint of SliceCols.
Var PadCols(const Var& a, int64_t total_cols, int64_t start) {
  GEA_CHECK(a.defined());
  GEA_CHECK(start >= 0 && start + a.cols() <= total_cols);
  Tensor out(a.rows(), total_cols);
  for (int64_t i = 0; i < a.rows(); ++i)
    for (int64_t j = 0; j < a.cols(); ++j)
      out.at(i, start + j) = a.value().at(i, j);
  const int64_t len = a.cols();
  return MakeOp(
      std::move(out), {a},
      [start, len](const Var& g) -> std::vector<Var> {
        return {SliceCols(g, start, len)};
      },
      "pad_cols");
}

}  // namespace

Var HConcat(const Var& a, const Var& b) {
  GEA_CHECK(a.defined() && b.defined());
  GEA_CHECK(a.rows() == b.rows());
  const int64_t ac = a.cols(), bc = b.cols();
  Tensor out(a.rows(), ac + bc);
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < ac; ++j) out.at(i, j) = a.value().at(i, j);
    for (int64_t j = 0; j < bc; ++j) out.at(i, ac + j) = b.value().at(i, j);
  }
  return MakeOp(
      std::move(out), {a, b},
      [ac, bc](const Var& g) -> std::vector<Var> {
        return {SliceCols(g, 0, ac), SliceCols(g, ac, bc)};
      },
      "hconcat");
}

Var SliceCols(const Var& a, int64_t start, int64_t len) {
  GEA_CHECK(a.defined());
  GEA_CHECK(start >= 0 && len >= 0 && start + len <= a.cols());
  Tensor out(a.rows(), len);
  for (int64_t i = 0; i < a.rows(); ++i)
    for (int64_t j = 0; j < len; ++j) out.at(i, j) = a.value().at(i, start + j);
  const int64_t total = a.cols();
  return MakeOp(
      std::move(out), {a},
      [start, total](const Var& g) -> std::vector<Var> {
        return {PadCols(g, total, start)};
      },
      "slice_cols");
}

Var LogSoftmaxRows(const Var& a) {
  GEA_CHECK(a.defined());
  // Subtracting the detached row max leaves the value unchanged and the
  // gradient exact while preventing overflow in Exp.
  Var m = Constant(a.value().RowMax(), "rowmax");
  Var z = Sub(a, m);
  Var lse = Log(RowSum(Exp(z)));
  return Sub(z, lse);
}

Var SoftmaxRows(const Var& a) { return Exp(LogSoftmaxRows(a)); }

Var NllRow(const Var& logits, int64_t row, int64_t label) {
  return Neg(At(LogSoftmaxRows(logits), row, label));
}

std::vector<Var> Grad(const Var& output, const std::vector<Var>& inputs,
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

  // Keep only the nodes on a path from a requested input to `output`: the
  // relevant inputs, and every relevant node with a kept parent.  A node's
  // id is strictly greater than all of its parents' ids, so one ascending-id
  // pass decides each node after its parents.  Every contribution to a kept
  // node comes from a kept child, so skipping the rest changes no bit of the
  // returned gradients; it skips only gradients nobody reads.  This is what
  // makes T unrolled inner steps cost O(T): step t's backward never walks
  // back through steps 0..t-1.
  std::unordered_set<Node*> kept;
  kept.reserve(relevant.size());
  for (const Var& in : inputs) {
    GEA_CHECK(in.defined());
    if (relevant.count(in.node())) kept.insert(in.node());
  }
  std::vector<Node*> ascending(relevant.begin(), relevant.end());
  std::sort(ascending.begin(), ascending.end(),
            [](Node* x, Node* y) { return x->id() < y->id(); });
  std::vector<Node*> order;  // Kept nodes with a kept parent, ascending id.
  for (Node* n : ascending) {
    const auto& parents = n->parents();
    if (std::any_of(parents.begin(), parents.end(),
                    [&](const std::shared_ptr<Node>& p) {
                      return kept.count(p.get()) > 0;
                    })) {
      kept.insert(n);
      order.push_back(n);
    }
  }

  // Accumulated gradient per node, and the shared_ptr owner for each node so
  // we can wrap parents back into Vars.
  std::unordered_map<Node*, Var> grads;
  grads.reserve(kept.size());
  grads.emplace(output.node(),
                Constant(Tensor::Ones(output.rows(), output.cols()), "seed"));

  // Process in reverse creation order, a reverse topological order.  Every
  // kept node lies on a path to `output` and all its kept children have
  // larger ids, so its gradient is complete when it is reached.
  for (Node* n : std::views::reverse(order)) {
    std::vector<Var> parent_grads = n->backward()(grads.at(n));
    GEA_CHECK(parent_grads.size() == n->parents().size());
    for (size_t k = 0; k < parent_grads.size(); ++k) {
      Node* p = n->parents()[k].get();
      if (!kept.count(p)) continue;
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

Var GradOne(const Var& output, const Var& input, const GradOptions& options) {
  return Grad(output, {input}, options)[0];
}

}  // namespace geattack
