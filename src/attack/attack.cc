#include "src/attack/attack.h"

#include <span>

namespace geattack {

const GcnForwardContext& CachedForward(const AttackContext& ctx) {
  GEA_CHECK(ctx.scratch != nullptr);
  GEA_CHECK(ctx.data != nullptr && ctx.model != nullptr);
  AttackScratch* s = ctx.scratch.get();
  std::call_once(s->fwd_once, [s, &ctx] {
    s->xw1 = ctx.data->features.MatMul(ctx.model->w1());
    s->fwd.xw1 = Constant(s->xw1, "xw1");
    s->fwd.w2 = Constant(ctx.model->w2(), "w2");
  });
  return s->fwd;
}

const Tensor& CachedXw1(const AttackContext& ctx) {
  CachedForward(ctx);
  return ctx.scratch->xw1;
}

namespace {

/// Every node other than `target` that is absent from its ascending
/// neighbour row (and carries `required_label` when that is >= 0).
template <class Row>
std::vector<int64_t> CandidatesOffRow(const Row& neighbors, int64_t n,
                                      int64_t target,
                                      const std::vector<int64_t>& labels,
                                      int64_t required_label) {
  std::vector<int64_t> candidates;
  auto next = neighbors.begin();
  for (int64_t j = 0; j < n; ++j) {
    if (next != neighbors.end() && *next == j) {
      ++next;
      continue;
    }
    if (j == target) continue;
    if (required_label >= 0 && labels[ZU(j)] != required_label) continue;
    candidates.push_back(j);
  }
  return candidates;
}

}  // namespace

std::vector<int64_t> DirectAddCandidates(const Graph& graph, int64_t target,
                                         const std::vector<int64_t>& labels,
                                         int64_t required_label) {
  GEA_CHECK(target >= 0 && target < graph.num_nodes());
  return CandidatesOffRow(graph.Neighbors(target), graph.num_nodes(), target,
                          labels, required_label);
}

std::vector<int64_t> DirectAddCandidates(const CsrPattern& adjacency,
                                         int64_t target,
                                         const std::vector<int64_t>& labels,
                                         int64_t required_label) {
  GEA_CHECK(adjacency.rows == adjacency.cols);
  GEA_CHECK(target >= 0 && target < adjacency.rows);
  const int64_t* cols = adjacency.col_idx.data();
  const std::span<const int64_t> row(cols + adjacency.row_ptr[ZU(target)],
                                     cols + adjacency.row_ptr[ZU(target + 1)]);
  return CandidatesOffRow(row, adjacency.rows, target, labels,
                          required_label);
}

Tensor DensePerturbedAdjacency(const AttackContext& ctx,
                               const std::vector<Edge>& added) {
  if (ctx.clean_adjacency.rows() == 0) return Tensor();
  Tensor adjacency = ctx.clean_adjacency;
  for (const Edge& e : added) AddEdgeDense(&adjacency, e.u, e.v);
  return adjacency;
}

Var TargetedAttackLoss(const GcnForwardContext& ctx, const Var& adjacency,
                       int64_t node, int64_t label) {
  return NllRow(GcnLogitsVar(ctx, adjacency), node, label);
}

void AddEdgeDense(Tensor* adjacency, int64_t u, int64_t v) {
  GEA_CHECK(adjacency != nullptr);
  GEA_CHECK(u != v);
  adjacency->at(u, v) = 1.0;
  adjacency->at(v, u) = 1.0;
}

bool PredictsLabel(const Gcn& model, const Tensor& adjacency,
                   const Tensor& features, int64_t node, int64_t label) {
  const Tensor logits = model.LogitsFromRaw(adjacency, features);
  return logits.ArgMaxRow(node) == label;
}

}  // namespace geattack
