#include "src/core/geattack_pg.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/graph/subgraph.h"
#include "src/nn/sparse_forward.h"

namespace geattack {

AttackResult GeAttackPg::Attack(const AttackContext& ctx,
                                const AttackRequest& request, Rng*) const {
  GEA_CHECK(explainer_ != nullptr && explainer_->trained());
  GEA_CHECK(request.target_label >= 0);
  AttackResult result;
  const CsrPattern& clean = *ctx.clean_csr.pattern();
  const int64_t v = request.target_node;
  const int64_t label = request.target_label;
  const int hops = explainer_->config().hops;

  const std::vector<int64_t> candidates =
      DirectAddCandidates(clean, v, ctx.data->labels, /*label*/ -1);
  // The view must contain the explainer's whole computation subgraph (its
  // pairs are looked up as view slots below), so a restricted radius is
  // widened to at least the explainer's.
  const int view_hops =
      config_.hops < 0 ? -1 : std::max(config_.hops, hops);
  const SubgraphView view =
      BuildSubgraphView(clean, v, view_hops, candidates);
  SparseAttackForward sf =
      MakeSparseAttackForward(view, *ctx.model, CachedXw1(ctx));
  const int64_t m = view.num_candidates();

  Tensor b_vec = Tensor::Ones(m, 1);  // B over candidate slots (all clean
                                      // non-edges of row v start at 1).
  std::vector<char> active(static_cast<size_t>(m), 1);
  // The explainer's computation subgraph is read off the perturbed graph.
  Graph current = ctx.data->graph;

  bool timed_out = false;
  for (int64_t outer = 0; outer < request.budget && m > 0 && !timed_out;
       ++outer) {
    if (Cancelled(request)) break;
    Var w = Var::Leaf(Tensor::Zeros(m, 1), /*requires_grad=*/true, "w");
    // Embeddings depend on the candidate values differentiably.
    Var norm_vals =
        NormalizeSparseValues(sf, RawValuesFromCandidates(sf, w));
    Var hidden = Relu(SpMMValues(view.pattern, norm_vals, sf.xw1));

    // Computation-subgraph pairs of the current graph, in view-local ids
    // (the view contains them: it covers the augmented k-hop ball).
    std::vector<IndexPair> pairs;
    std::vector<int64_t> pair_slots;
    for (const auto& p : ComputationSubgraphPairs(current, v, hops)) {
      const int64_t lu = view.global_to_local[static_cast<size_t>(p.u)];
      const int64_t lv = view.global_to_local[static_cast<size_t>(p.v)];
      GEA_CHECK(lu >= 0 && lv >= 0);
      const int64_t slot = view.EdgeSlot(lu, lv);
      GEA_CHECK(slot >= 0);
      pairs.push_back({lu, lv});
      pair_slots.push_back(slot);
    }

    // ----- Inner loop: differentiable ψ updates on the gate-masked sparse
    // forward; masked slot value = gate_e on subgraph edges. -----
    Var w1 = Var::Leaf(explainer_->params().w1, true, "pg_w1");
    Var b1 = Var::Leaf(explainer_->params().b1, true, "pg_b1");
    Var w2 = Var::Leaf(explainer_->params().w2, true, "pg_w2");
    if (!pairs.empty()) {
      // (S, p) scatter of per-pair values onto their undirected slots.
      auto pad = std::make_shared<CsrPattern>();
      pad->rows = view.num_slots();
      pad->cols = static_cast<int64_t>(pairs.size());
      {
        std::vector<std::pair<int64_t, int64_t>> entries;
        for (size_t e = 0; e < pair_slots.size(); ++e)
          entries.emplace_back(pair_slots[e], static_cast<int64_t>(e));
        std::sort(entries.begin(), entries.end());
        pad->row_ptr.push_back(0);
        size_t i = 0;
        for (int64_t r = 0; r < pad->rows; ++r) {
          while (i < entries.size() && entries[i].first == r)
            pad->col_idx.push_back(entries[i++].second);
          pad->row_ptr.push_back(static_cast<int64_t>(pad->col_idx.size()));
        }
      }
      auto pair_pad = std::make_shared<const CsrMatrix>(
          std::move(pad), std::vector<double>(pairs.size(), 1.0));

      for (int64_t t = 0; t < config_.inner_steps; ++t) {
        if (Cancelled(request)) {
          timed_out = true;
          break;
        }
        Var omega = PgEdgeLogits(hidden, pairs, view.target_local, w1, b1,
                                 w2);
        Var gate = Sigmoid(omega);
        Var masked_und = Add(UndirectedValuesFromCandidates(sf, w),
                             SpMM(pair_pad, AddScalar(gate, -1.0)));
        Var values = DirectedFromUndirected(sf, masked_und);
        Var inner_loss = NllRow(SparseGcnLogitsVar(sf, values),
                                view.target_local, label);
        auto grads = Grad(inner_loss, {w1, b1, w2}, {.create_graph = true});
        w1 = Sub(w1, MulScalar(grads[0], config_.eta));
        b1 = Sub(b1, MulScalar(grads[1], config_.eta));
        w2 = Sub(w2, MulScalar(grads[2], config_.eta));
      }
    }
    if (timed_out) break;

    // ----- Outer objective over the active candidates. -----
    std::vector<IndexPair> candidate_pairs;
    std::vector<int64_t> cand_of_pair;
    for (int64_t k = 0; k < m; ++k) {
      if (!active[static_cast<size_t>(k)]) continue;
      candidate_pairs.push_back(
          {view.target_local, view.candidates_local[static_cast<size_t>(k)]});
      cand_of_pair.push_back(k);
    }
    if (candidate_pairs.empty()) break;
    Tensor b_active(static_cast<int64_t>(candidate_pairs.size()), 1);
    for (size_t i = 0; i < cand_of_pair.size(); ++i)
      b_active.at(static_cast<int64_t>(i), 0) = b_vec.at(cand_of_pair[i], 0);
    Var omega_cand = PgEdgeLogits(hidden, candidate_pairs, view.target_local,
                                  w1, b1, w2);
    Var penalty =
        MulScalar(Sum(Mul(omega_cand, Constant(b_active, "B_cand"))),
                  1.0 / static_cast<double>(candidate_pairs.size()));
    Var attack_loss =
        NllRow(SparseGcnLogitsVar(sf, RawValuesFromCandidates(sf, w)),
               view.target_local, label);
    Var total = Add(attack_loss, MulScalar(penalty, config_.lambda));

    const Tensor q = GradOne(total, w).value();
    int64_t pick = -1;
    double best = std::numeric_limits<double>::infinity();
    for (int64_t k : cand_of_pair) {
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
    current.AddEdge(v, j);
    result.added_edges.emplace_back(v, j);
    if (!config_.keep_penalty_on_added) b_vec.at(pick, 0) = 0.0;
  }

  if (timed_out || Cancelled(request))
    result.status = Status::TimedOut("deadline exceeded");
  return result;
}

}  // namespace geattack
