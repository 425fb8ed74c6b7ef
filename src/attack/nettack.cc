#include "src/attack/nettack.h"

#include <limits>
#include <vector>

namespace geattack {

namespace {

/// Target-label margin of a surrogate logits row:
/// Z[ŷ] − max_{c != ŷ} Z[c].
double TargetMargin(const Tensor& logits_row, int64_t target_label) {
  double other = -std::numeric_limits<double>::infinity();
  for (int64_t c = 0; c < logits_row.cols(); ++c)
    if (c != target_label) other = std::max(other, logits_row.at(0, c));
  return logits_row.at(0, target_label) - other;
}

}  // namespace

AttackResult Nettack::Attack(const AttackContext& ctx,
                             const AttackRequest& request, Rng*) const {
  GEA_CHECK(request.target_label >= 0);
  AttackResult result;
  const Graph& clean = ctx.data->graph;
  const int64_t v = request.target_node;
  const int64_t target_label = request.target_label;

  const LinearizedGcn surrogate(*ctx.model, ctx.data->features);
  const DegreeDistributionTest degree_test(clean, config_.degree_test_d_min,
                                           config_.degree_test_threshold);
  Graph current = clean;

  // One normalized CSR shared across the greedy loop (the context caches
  // the clean one); each pick patches it incrementally, and candidate
  // scoring rescales entries on the fly — no per-candidate normalization.
  CsrMatrix norm = ctx.clean_norm_csr.empty()
                       ? NormalizeAdjacencyCsr(clean)
                       : ctx.clean_norm_csr;
  std::vector<double> degp1(static_cast<size_t>(clean.num_nodes()));
  for (int64_t i = 0; i < clean.num_nodes(); ++i)
    degp1[static_cast<size_t>(i)] =
        static_cast<double>(clean.Degree(i)) + 1.0;

  for (int64_t step = 0; step < request.budget; ++step) {
    if (Cancelled(request)) {
      result.status = Status::TimedOut("deadline exceeded");
      break;
    }
    const auto candidates =
        DirectAddCandidates(current, v, ctx.data->labels, /*label*/ -1);
    int64_t best = -1;
    double best_margin = -std::numeric_limits<double>::infinity();
    for (int64_t j : candidates) {
      if (config_.enforce_degree_test &&
          !degree_test.EdgeAdditionUnnoticeable(current, v, j)) {
        continue;
      }
      const Tensor logits_row =
          surrogate.LogitsRowWithEdgeAdded(norm, degp1, v, j);
      const double margin = CheckFiniteScore(
          TargetMargin(logits_row, target_label), "surrogate margin");
      if (margin > best_margin) {
        best_margin = margin;
        best = j;
      }
    }
    if (best < 0) break;  // Degree test rejected everything.
    // Commit: patch the normalized CSR and the degree vector in place.
    Tensor degp1_t(static_cast<int64_t>(degp1.size()), 1);
    for (size_t i = 0; i < degp1.size(); ++i)
      degp1_t.at(static_cast<int64_t>(i), 0) = degp1[i];
    norm = GcnRenormalizeAfterFlips(norm, degp1_t, {Edge(v, best)}, {});
    degp1[static_cast<size_t>(v)] += 1.0;
    degp1[static_cast<size_t>(best)] += 1.0;
    current.AddEdge(v, best);
    result.added_edges.emplace_back(v, best);
  }
  return result;
}

}  // namespace geattack
