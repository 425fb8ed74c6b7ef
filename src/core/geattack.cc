#include "src/core/geattack.h"

#include <cmath>
#include <limits>

#include "src/graph/subgraph.h"
#include "src/nn/sparse_forward.h"

namespace geattack {

AttackResult GeAttack::Attack(const AttackContext& ctx,
                              const AttackRequest& request, Rng* rng) const {
  GEA_CHECK(rng != nullptr);
  GEA_CHECK(request.target_label >= 0);
  AttackResult result;
  const CsrPattern& clean = *ctx.clean_csr.pattern();
  const int64_t v = request.target_node;
  const int64_t label = request.target_label;

  const std::vector<int64_t> candidates =
      DirectAddCandidates(clean, v, ctx.data->labels, /*label*/ -1);
  const SubgraphView view =
      BuildSubgraphView(clean, v, config_.hops, candidates);
  SparseAttackForward sf =
      MakeSparseAttackForward(view, *ctx.model, CachedXw1(ctx));
  const int64_t m = view.num_candidates();
  const int64_t num_slots = view.num_slots();

  // M⁰ over the undirected edge slots (clean + candidate), drawn once and
  // reused every outer iteration — the per-edge twin of the paper's n x n
  // draw.  The n x n relaxation symmetrizes its mask, so each undirected
  // slot effectively starts at the mean of two independent normals: std
  // scale/√2.  Scale 0 makes the loop bit-comparable to the n x n one.
  const Tensor mask_init =
      config_.mask_init_scale > 0.0
          ? rng->NormalTensor(num_slots, 1, 0.0,
                              config_.mask_init_scale / std::sqrt(2.0))
          : Tensor::Zeros(num_slots, 1);

  // B restricted to the candidate slots: every candidate is a clean
  // non-edge of row v, so its B entry starts at 1 and is zeroed on pick.
  Tensor b_vec = Tensor::Ones(m, 1);
  std::vector<char> active(static_cast<size_t>(m), 1);

  bool timed_out = false;
  for (int64_t outer = 0; outer < request.budget && m > 0 && !timed_out;
       ++outer) {
    if (Cancelled(request)) break;
    Var w = Var::Leaf(Tensor::Zeros(m, 1), /*requires_grad=*/true, "w");

    // ----- Inner loop: differentiable explainer mimicry over the edge
    // list.  The masked adjacency value of slot e is a_e·σ(μ_e), with
    // a_e = 1 on (committed) edges and a_e = w_k on candidate slots, so
    // M^T's dependence on the relaxed candidate values stays on-graph and
    // the outer gradient is the same hypergradient as the n x n one.
    Var mu = Var::Leaf(mask_init, /*requires_grad=*/true, "M0");
    for (int64_t t = 0; t < config_.inner_steps; ++t) {
      if (Cancelled(request)) {
        timed_out = true;
        break;
      }
      Var a_und = UndirectedValuesFromCandidates(sf, w);
      Var masked = Mul(a_und, Sigmoid(mu));
      Var values = DirectedFromUndirected(sf, masked);
      Var inner_loss = NllRow(SparseGcnLogitsVar(sf, values),
                              view.target_local, label);
      Var p = GradOne(inner_loss, mu, {.create_graph = true});
      // η/2: one undirected slot aggregates the gradient of the n x n
      // parameterization's two mirrored entries, whose symmetrized mask
      // moves at half the per-entry rate.
      mu = Sub(mu, MulScalar(p, 0.5 * config_.eta));
    }
    if (timed_out) break;

    // ----- Outer objective: Eq. (7) over candidate values. -----
    Var attack_loss =
        NllRow(SparseGcnLogitsVar(sf, RawValuesFromCandidates(sf, w)),
               view.target_local, label);
    Var mu_cand = SpMM(view.cand_slot_take, mu);  // (m, 1) mask block.
    Var penalty = Sum(Mul(mu_cand, Constant(b_vec, "B_cand")));
    Var total = Add(attack_loss, MulScalar(penalty, config_.lambda));

    // ----- Hypergradient over candidate values; greedy pick. -----
    const Tensor q = GradOne(total, w).value();
    int64_t pick = -1;
    double best = std::numeric_limits<double>::infinity();
    for (int64_t k = 0; k < m; ++k) {
      if (!active[static_cast<size_t>(k)]) continue;
      const double score = CheckFiniteScore(q.at(k, 0), "hypergradient score");
      if (score < best) {
        best = score;
        pick = k;
      }
    }
    if (pick < 0) break;
    const int64_t j = view.candidates_global[static_cast<size_t>(pick)];
    CommitCandidate(&sf, pick);
    active[static_cast<size_t>(pick)] = 0;
    result.added_edges.emplace_back(v, j);
    if (!config_.keep_penalty_on_added) b_vec.at(pick, 0) = 0.0;
  }

  if (timed_out || Cancelled(request))
    result.status = Status::TimedOut("deadline exceeded");
  return result;
}

}  // namespace geattack
