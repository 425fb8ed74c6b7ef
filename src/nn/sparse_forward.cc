#include "src/nn/sparse_forward.h"

namespace geattack {

SparseAttackForward MakeSparseAttackForward(const SubgraphView& view,
                                            const Gcn& model,
                                            const Tensor& xw1_full) {
  GEA_CHECK(xw1_full.rows() ==
            static_cast<int64_t>(view.global_to_local.size()));
  SparseAttackForward sf;
  sf.view = &view;
  const int64_t ns = view.num_nodes();
  Tensor xw1_sub(ns, xw1_full.cols());
  for (int64_t l = 0; l < ns; ++l) {
    const int64_t g = view.nodes[static_cast<size_t>(l)];
    for (int64_t j = 0; j < xw1_full.cols(); ++j)
      xw1_sub.at(l, j) = xw1_full.at(g, j);
  }
  sf.xw1 = Constant(std::move(xw1_sub), "xw1_sub");
  sf.w2 = Constant(model.w2(), "w2");
  sf.out_deg = Constant(view.out_degree, "out_deg");
  sf.base_values = view.base_values;
  sf.und_base = view.und_base;
  return sf;
}

Var RawValuesFromCandidates(const SparseAttackForward& sf, const Var& w) {
  GEA_CHECK(sf.view != nullptr && w.defined());
  GEA_CHECK(w.rows() == sf.view->num_candidates() && w.cols() == 1);
  Var base = Constant(sf.base_values, "base_values");
  if (sf.view->num_candidates() == 0) return base;
  return Add(base, SpMM(sf.view->cand_expand, w));
}

Var UndirectedValuesFromCandidates(const SparseAttackForward& sf,
                                   const Var& w) {
  GEA_CHECK(sf.view != nullptr && w.defined());
  GEA_CHECK(w.rows() == sf.view->num_candidates() && w.cols() == 1);
  Var base = Constant(sf.und_base, "und_base");
  if (sf.view->num_candidates() == 0) return base;
  return Add(base, SpMM(sf.view->cand_slot_pad, w));
}

Var DirectedFromUndirected(const SparseAttackForward& sf, const Var& und) {
  GEA_CHECK(sf.view != nullptr && und.defined());
  GEA_CHECK(und.rows() == sf.view->num_slots() && und.cols() == 1);
  // Diagonal slots carry a constant 1.0 (the +I of normalization); every
  // off-diagonal slot comes from its undirected value.
  Tensor diag(sf.view->pattern->nnz(), 1);
  for (int64_t e : sf.view->diag_nnz) diag.at(e, 0) = 1.0;
  return Add(Constant(std::move(diag), "diag"),
             SpMM(sf.view->slot_expand, und));
}

Var NormalizeSparseValues(const SparseAttackForward& sf, const Var& values) {
  GEA_CHECK(sf.view != nullptr && values.defined());
  GEA_CHECK(values.rows() == sf.view->pattern->nnz() && values.cols() == 1);
  // One fused node (single kernel pass) instead of the historical
  // rowsum/pow/gather/scale chain; bit-identical values, same gradients.
  return GcnNormValues(sf.view->pattern, values, sf.out_deg);
}

Var SparseGcnLogitsVar(const SparseAttackForward& sf, const Var& raw_values) {
  // The two layers share ONE fused normalization node, so the backward
  // chain is built once and the accumulated ∂L/∂Ã from both SpMMs flows
  // through it a single time — that sharing (not just the kernel fusion)
  // is what makes the bilevel hypergradient loop cheaper.  Forward values
  // are bit-identical to the historical composition.
  GEA_CHECK(sf.view != nullptr && raw_values.defined());
  Var norm = NormalizeSparseValues(sf, raw_values);
  Var h = Relu(SpMMValues(sf.view->pattern, norm, sf.xw1));
  return SpMMValues(sf.view->pattern, norm, MatMul(h, sf.w2));
}

void CommitCandidate(SparseAttackForward* sf, int64_t cand_index) {
  GEA_CHECK(sf != nullptr && sf->view != nullptr);
  GEA_CHECK(cand_index >= 0 && cand_index < sf->view->num_candidates());
  const auto& slots =
      sf->view->slot_nnz[static_cast<size_t>(sf->view->num_edges() +
                                             cand_index)];
  sf->base_values.at(slots.first, 0) = 1.0;
  sf->base_values.at(slots.second, 0) = 1.0;
  sf->und_base.at(sf->view->num_edges() + cand_index, 0) = 1.0;
}

}  // namespace geattack
