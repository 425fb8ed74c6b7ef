#include "src/attack/ig_attack.h"

#include <algorithm>
#include <limits>

#include "src/graph/subgraph.h"
#include "src/nn/sparse_forward.h"

namespace geattack {

AttackResult IgAttack::Attack(const AttackContext& ctx,
                              const AttackRequest& request, Rng*) const {
  GEA_CHECK(request.target_label >= 0);
  AttackResult result;
  const CsrPattern& clean = *ctx.clean_csr.pattern();
  const int64_t v = request.target_node;

  const std::vector<int64_t> candidates =
      DirectAddCandidates(clean, v, ctx.data->labels, /*label*/ -1);
  const SubgraphView view =
      BuildSubgraphView(clean, v, /*hops=*/-1, candidates);
  SparseAttackForward sf =
      MakeSparseAttackForward(view, *ctx.model, CachedXw1(ctx));
  const int64_t m = view.num_candidates();
  std::vector<char> active(static_cast<size_t>(m), 1);

  // Loss of the target label with candidate values `w`; gradient (m, 1).
  auto grad_at = [&](const Tensor& w_tensor) {
    Var w = Var::Leaf(w_tensor, /*requires_grad=*/true, "w");
    Var loss =
        NllRow(SparseGcnLogitsVar(sf, RawValuesFromCandidates(sf, w)),
               view.target_local, request.target_label);
    return GradOne(loss, w).value();
  };

  bool timed_out = false;
  for (int64_t step = 0; step < request.budget && m > 0 && !timed_out;
       ++step) {
    if (Cancelled(request)) break;
    std::vector<int64_t> pool;  // Candidate indices into the view.
    for (int64_t k = 0; k < m; ++k)
      if (active[static_cast<size_t>(k)]) pool.push_back(k);
    if (pool.empty()) break;

    if (config_.shortlist > 0 &&
        static_cast<int64_t>(pool.size()) > config_.shortlist) {
      const Tensor g = grad_at(Tensor::Zeros(m, 1));
      std::sort(pool.begin(), pool.end(), [&](int64_t a, int64_t b) {
        return g.at(a, 0) < g.at(b, 0);
      });
      pool.resize(static_cast<size_t>(config_.shortlist));
    }

    int64_t best = -1;
    double best_ig = std::numeric_limits<double>::infinity();
    Tensor w_tensor = Tensor::Zeros(m, 1);
    for (int64_t k : pool) {
      if (Cancelled(request)) {
        timed_out = true;
        break;
      }
      double ig = 0.0;
      for (int64_t s = 1; s <= config_.steps; ++s) {
        w_tensor.at(k, 0) =
            static_cast<double>(s) / static_cast<double>(config_.steps);
        ig += grad_at(w_tensor).at(k, 0);
      }
      w_tensor.at(k, 0) = 0.0;
      ig = CheckFiniteScore(ig / static_cast<double>(config_.steps),
                            "integrated-gradient score");
      if (ig < best_ig) {
        best_ig = ig;
        best = k;
      }
    }
    if (timed_out || best < 0) break;
    const int64_t j = view.candidates_global[static_cast<size_t>(best)];
    CommitCandidate(&sf, best);
    active[static_cast<size_t>(best)] = 0;
    result.added_edges.emplace_back(v, j);
  }

  if (timed_out || Cancelled(request))
    result.status = Status::TimedOut("deadline exceeded");
  return result;
}

}  // namespace geattack
