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

std::vector<AttackResult> FgaAttack::AttackBatch(
    const AttackContext& ctx, const std::vector<AttackRequest>& requests,
    const std::vector<Rng*>& rngs) const {
  const int64_t k = static_cast<int64_t>(requests.size());
  if (!use_sparse_ || k <= 1)
    return TargetedAttack::AttackBatch(ctx, requests, rngs);
  GEA_CHECK(requests.size() == rngs.size());
  const CsrPattern& clean = *ctx.clean_csr.pattern();

  std::vector<int64_t> targets;
  std::vector<std::vector<int64_t>> candidates;
  for (const AttackRequest& req : requests) {
    GEA_CHECK(targeted_ ? req.target_label >= 0 : true);
    targets.push_back(req.target_node);
    candidates.push_back(
        DirectAddCandidates(clean, req.target_node, ctx.data->labels,
                            /*label*/ -1));
  }
  const BatchedSubgraphView bview =
      BuildBatchedSubgraphView(clean, targets, /*hops=*/-1, candidates);
  StackedAttackForward ssf =
      MakeStackedAttackForward(bview, *ctx.model, CachedXw1(ctx));

  std::vector<AttackResult> results(static_cast<size_t>(k));
  // Per-target perturbed graphs, kept only by the modes that read them.
  std::vector<Graph> current;
  if (ReadsPerturbedGraph())
    current.assign(static_cast<size_t>(k), ctx.data->graph);
  std::vector<std::vector<char>> active(static_cast<size_t>(k));
  std::vector<char> done(static_cast<size_t>(k), 0);
  int64_t max_budget = 0;
  for (int64_t t = 0; t < k; ++t) {
    const int64_t m = ssf.per_target[static_cast<size_t>(t)]
                          .view->num_candidates();
    active[static_cast<size_t>(t)].assign(static_cast<size_t>(m), 1);
    if (m == 0) done[static_cast<size_t>(t)] = 1;
    max_budget = std::max(max_budget, requests[static_cast<size_t>(t)].budget);
  }

  for (int64_t step = 0; step < max_budget; ++step) {
    // The greedy rounds run in lockstep: target t is live while it still
    // has budget and candidates, and its committed state after `step` picks
    // matches the per-target loop's exactly.
    std::vector<int64_t> live;
    std::vector<char> is_live(static_cast<size_t>(k), 0);
    for (int64_t t = 0; t < k; ++t) {
      if (done[static_cast<size_t>(t)] ||
          step >= requests[static_cast<size_t>(t)].budget)
        continue;
      if (Cancelled(requests[static_cast<size_t>(t)])) {
        done[static_cast<size_t>(t)] = 1;
        results[static_cast<size_t>(t)].status =
            Status::TimedOut("deadline exceeded");
        continue;
      }
      live.push_back(t);
      is_live[static_cast<size_t>(t)] = 1;
    }
    if (live.empty()) break;

    std::vector<int64_t> labels(static_cast<size_t>(k), -1);
    for (int64_t t : live) {
      labels[static_cast<size_t>(t)] =
          targeted_ ? requests[static_cast<size_t>(t)].target_label
                    : ctx.model
                          ->LogitsFromGraph(current[static_cast<size_t>(t)],
                                            ctx.data->features)
                          .ArgMaxRow(requests[static_cast<size_t>(t)]
                                         .target_node);
    }

    // One stacked forward for every live target; finished targets ride
    // along as constant committed columns (no gradient work).
    std::vector<Var> ws(static_cast<size_t>(k));
    for (int64_t t = 0; t < k; ++t) {
      SparseAttackForward& pt = ssf.per_target[static_cast<size_t>(t)];
      ws[static_cast<size_t>(t)] =
          is_live[static_cast<size_t>(t)]
              ? Var::Leaf(Tensor::Zeros(pt.view->num_candidates(), 1),
                          /*requires_grad=*/true, "w")
              : Constant(Tensor::Zeros(pt.view->num_candidates(), 1), "w0");
    }
    Var stacked =
        StackedGcnLogitsVarFromValues(ssf, StackedRawValues(ssf, ws));
    Var total;
    std::vector<Var> live_ws;
    for (int64_t t : live) {
      Var loss = NllRow(
          StackedLogitsBlock(ssf, stacked, t),
          ssf.per_target[static_cast<size_t>(t)].view->target_local,
          labels[static_cast<size_t>(t)]);
      if (!targeted_) loss = Neg(loss);
      total = total.defined() ? Add(total, loss) : loss;
      live_ws.push_back(ws[static_cast<size_t>(t)]);
    }
    const std::vector<Var> grads = Grad(total, live_ws);

    for (size_t li = 0; li < live.size(); ++li) {
      const int64_t t = live[li];
      SparseAttackForward& pt = ssf.per_target[static_cast<size_t>(t)];
      const AttackRequest& req = requests[static_cast<size_t>(t)];
      const Tensor& g = grads[li].value();

      std::unordered_set<int64_t> excluded;
      if (!current.empty()) {
        for (int64_t j :
             ExcludedNodes(ctx, current[static_cast<size_t>(t)], req))
          excluded.insert(j);
      }

      int64_t pick = -1;
      double best = std::numeric_limits<double>::infinity();
      const int64_t m = pt.view->num_candidates();
      for (int64_t c = 0; c < m; ++c) {
        if (!active[static_cast<size_t>(t)][static_cast<size_t>(c)]) continue;
        if (excluded.count(
                pt.view->candidates_global[static_cast<size_t>(c)]))
          continue;
        const double score =
            CheckFiniteScore(g.at(c, 0), "gradient score");
        if (score < best) {
          best = score;
          pick = c;
        }
      }
      if (pick < 0) {
        done[static_cast<size_t>(t)] = 1;
        continue;
      }
      const int64_t j =
          pt.view->candidates_global[static_cast<size_t>(pick)];
      CommitCandidate(&pt, pick);
      active[static_cast<size_t>(t)][static_cast<size_t>(pick)] = 0;
      if (!current.empty())
        current[static_cast<size_t>(t)].AddEdge(req.target_node, j);
      results[static_cast<size_t>(t)].added_edges.emplace_back(
          req.target_node, j);
    }
  }

  for (AttackResult& r : results)
    r.adjacency = DensePerturbedAdjacency(ctx, r.added_edges);
  return results;
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
