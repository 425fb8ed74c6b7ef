#include "src/attack/fga.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <unordered_set>

#include "src/graph/subgraph.h"
#include "src/nn/sparse_forward.h"

namespace geattack {

int64_t BestCandidateByGradient(const Tensor& gradient, int64_t target,
                                const std::vector<int64_t>& candidates) {
  int64_t best = -1;
  double best_score = std::numeric_limits<double>::infinity();
  for (int64_t j : candidates) {
    const double score = CheckFiniteScore(
        gradient.at(target, j) + gradient.at(j, target), "gradient score");
    if (score < best_score) {
      best_score = score;
      best = j;
    }
  }
  return best;
}

std::vector<int64_t> FgaAttack::ExcludedNodes(const AttackContext&,
                                              const Graph&,
                                              const AttackRequest&) const {
  return {};
}

AttackResult FgaAttack::Attack(const AttackContext& ctx,
                               const AttackRequest& request, Rng*) const {
  return use_sparse_ ? AttackSparse(ctx, request)
                     : AttackDense(ctx, request);
}

AttackResult FgaAttack::AttackDense(const AttackContext& ctx,
                                    const AttackRequest& request) const {
  AttackResult result;
  result.adjacency = ctx.clean_adjacency;
  const GcnForwardContext& fwd = CachedForward(ctx);
  const int64_t v = request.target_node;
  Graph current = ctx.data->graph;

  for (int64_t step = 0; step < request.budget; ++step) {
    if (Cancelled(request)) {
      result.status = Status::TimedOut("deadline exceeded");
      break;
    }
    Var adj = Var::Leaf(result.adjacency, /*requires_grad=*/true, "A_hat");
    Var loss;
    if (targeted_) {
      GEA_CHECK(request.target_label >= 0);
      loss = TargetedAttackLoss(fwd, adj, v, request.target_label);
    } else {
      // Untargeted: maximize the loss of the current prediction, i.e.
      // minimize its negation.
      const Tensor logits =
          ctx.model->LogitsFromRaw(result.adjacency, ctx.data->features);
      loss = Neg(TargetedAttackLoss(fwd, adj, v, logits.ArgMaxRow(v)));
    }
    const Tensor gradient = GradOne(loss, adj).value();

    auto candidates = DirectAddCandidates(result.adjacency, v,
                                          ctx.data->labels, /*label*/ -1);
    const auto excluded = ExcludedNodes(ctx, current, request);
    if (!excluded.empty()) {
      // lint-ok: unordered-iteration (this `excluded` is the std::vector
      // returned by ExcludedNodes; `ex` is membership-only)
      const std::unordered_set<int64_t> ex(excluded.begin(), excluded.end());
      candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                      [&ex](int64_t j) { return ex.count(j); }),
                       candidates.end());
    }
    const int64_t pick = BestCandidateByGradient(gradient, v, candidates);
    if (pick < 0) break;
    AddEdgeDense(&result.adjacency, v, pick);
    current.AddEdge(v, pick);
    result.added_edges.emplace_back(v, pick);
  }
  return result;
}

AttackResult FgaAttack::AttackSparse(const AttackContext& ctx,
                                     const AttackRequest& request) const {
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

  result.adjacency = DensePerturbedAdjacency(ctx, result.added_edges);
  return result;
}

}  // namespace geattack
