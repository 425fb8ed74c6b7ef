#include "src/attack/fga.h"

#include <limits>
#include <optional>
#include <unordered_set>

#include "src/graph/subgraph.h"
#include "src/nn/sparse_forward.h"

namespace geattack {

std::vector<int64_t> FgaAttack::ExcludedNodes(const AttackContext&,
                                              const Graph&,
                                              const AttackRequest&) const {
  return {};
}

AttackResult FgaAttack::Attack(const AttackContext& ctx,
                               const AttackRequest& request, Rng*) const {
  AttackResult result;
  const CsrPattern& clean = *ctx.clean_csr.pattern();
  const int64_t v = request.target_node;
  GEA_CHECK(targeted_ ? request.target_label >= 0 : true);

  const std::vector<int64_t> candidates =
      DirectAddCandidates(clean, v, ctx.data->labels, /*label*/ -1);
  const SubgraphView view =
      BuildSubgraphView(clean, v, /*hops=*/-1, candidates);
  SparseAttackForward sf =
      MakeSparseAttackForward(view, *ctx.model, CachedXw1(ctx));
  const int64_t m = view.num_candidates();
  std::vector<char> active(static_cast<size_t>(m), 1);
  // The perturbed graph, kept only by the modes that read it.
  std::optional<Graph> current;
  if (ReadsPerturbedGraph()) current = ctx.data->graph;

  for (int64_t step = 0; step < request.budget && m > 0; ++step) {
    if (Cancelled(request)) {
      result.status = Status::TimedOut("deadline exceeded");
      break;
    }
    int64_t label = request.target_label;
    if (!targeted_) {
      label = ctx.model->LogitsFromGraph(current.value(), ctx.data->features)
                  .ArgMaxRow(v);
    }
    Var w = Var::Leaf(Tensor::Zeros(m, 1), /*requires_grad=*/true, "w");
    Var loss =
        NllRow(SparseGcnLogitsVar(sf, RawValuesFromCandidates(sf, w)),
               view.target_local, label);
    if (!targeted_) loss = Neg(loss);
    const Tensor g = GradOne(loss, w).value();

    std::unordered_set<int64_t> excluded;
    if (current) {
      for (int64_t j : ExcludedNodes(ctx, *current, request))
        excluded.insert(j);
    }

    int64_t pick = -1;
    double best = std::numeric_limits<double>::infinity();
    for (int64_t k = 0; k < m; ++k) {
      if (!active[static_cast<size_t>(k)]) continue;
      if (excluded.count(view.candidates_global[static_cast<size_t>(k)]))
        continue;
      const double score = CheckFiniteScore(g.at(k, 0), "gradient score");
      if (score < best) {
        best = score;
        pick = k;
      }
    }
    if (pick < 0) break;
    const int64_t j = view.candidates_global[static_cast<size_t>(pick)];
    CommitCandidate(&sf, pick);
    active[static_cast<size_t>(pick)] = 0;
    if (current) current->AddEdge(v, j);
    result.added_edges.emplace_back(v, j);
  }
  return result;
}

}  // namespace geattack
