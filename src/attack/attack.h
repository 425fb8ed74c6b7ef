// Common interface and utilities for targeted structure attacks.
//
// Setting (paper §3 "Problem Statement" and §5.1):
//   * evasion attacks on a fixed trained GCN (white box);
//   * direct attacks: every adversarial edge is incident to the target node;
//   * add-edge only (footnote 1: adding fake connections is the cheap,
//     realistic perturbation in social/citation graphs);
//   * budget Δ edges per target (set to the target's degree in the paper).

#ifndef GEATTACK_SRC_ATTACK_ATTACK_H_
#define GEATTACK_SRC_ATTACK_ATTACK_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/graph/graph.h"
#include "src/nn/gcn.h"
#include "src/tensor/random.h"
#include "src/tensor/tensor.h"

namespace geattack {

/// Lazily-built cache shared by repeated Attack calls on one context.
/// It is a deterministic function of (features, model), so hoisting it out
/// of the per-call loops changes no numerics — it just stops every Attack
/// call from redoing the O(n·d·h) weight fold.  A once_flag guards it so
/// concurrent attack workers (src/attack/driver.h) can race on first use;
/// after initialization all access is read-only.
struct AttackScratch {
  std::once_flag fwd_once;
  GcnForwardContext fwd;  ///< Folded attack-time forward (X·W₁, W₂).
  Tensor xw1;             ///< (n, h) value behind fwd.xw1, for sparse views.
};

/// Immutable attack-time context shared across targets.
struct AttackContext {
  const GraphData* data = nullptr;  ///< Clean attributed graph.
  const Gcn* model = nullptr;       ///< Trained victim (fixed, evasion).
  Tensor clean_adjacency;           ///< Dense adjacency of the clean graph
                                    ///< (DensePerturbedAdjacency and
                                    ///< FeatureAttack read it; structure
                                    ///< attacks never do); empty
                                    ///< (rows() == 0) on sparse-only
                                    ///< contexts.
  CsrMatrix clean_csr;              ///< The same adjacency in CSR form; the
                                    ///< sparse eval path patches it with
                                    ///< ApplyEdgeFlips instead of
                                    ///< re-densifying per target.
  CsrMatrix clean_norm_csr;         ///< GCN-normalized clean CSR, computed
                                    ///< once and reused across targets
                                    ///< (values-only incremental updates).
  Tensor clean_degp1;               ///< (n, 1) clean degree + 1 (the d̃ the
                                    ///< normalized values were built from).
  std::shared_ptr<AttackScratch> scratch = std::make_shared<AttackScratch>();
};

/// The context's folded forward (built on first use, then reused by every
/// attack on this context).
const GcnForwardContext& CachedForward(const AttackContext& ctx);

/// The (n, h) X·W₁ rows behind CachedForward — the sparse candidate-edge
/// views gather their local rows from this shared tensor.
const Tensor& CachedXw1(const AttackContext& ctx);

/// One attack query.
struct AttackRequest {
  int64_t target_node = -1;
  /// The specific incorrect label ŷ the attacker wants predicted.  -1 means
  /// untargeted (any wrong label) — only plain FGA uses that mode.
  int64_t target_label = -1;
  int64_t budget = 1;  ///< Δ: maximum number of added edges.
  /// Optional cooperative deadline/cancellation token (not owned), polled
  /// by the attack loops at greedy-round / inner-mask-step granularity.
  /// The multi-target driver plumbs its per-target and whole-run deadlines
  /// through this; null means no deadline.
  const CancellationToken* cancel = nullptr;
};

/// The loop-top cancellation poll every attack loop uses.
inline bool Cancelled(const AttackRequest& request) {
  return request.cancel != nullptr && request.cancel->Expired();
}

/// Attack outcome: the perturbed graph is the clean one plus `added_edges`
/// (DensePerturbedAdjacency densifies it on a dense context).
struct AttackResult {
  std::vector<Edge> added_edges;  ///< The adversarial edges E'.
  /// Per-target outcome.  Attacks themselves only ever mark kTimedOut
  /// (cooperative deadline hit mid-loop; `added_edges` holds the picks
  /// committed so far).  The driver adds kError (exception / non-finite
  /// blowup), kSkipped (run deadline hit before the target started) and
  /// kInvalidArgument (request or configured deadline rejected by
  /// validation).
  Status status;
};

/// Interface implemented by every attacker (baselines and GEAttack).
class TargetedAttack {
 public:
  virtual ~TargetedAttack() = default;

  /// Display name used in result tables, e.g. "Nettack".
  virtual std::string name() const = 0;

  /// Perturbs the graph for one request.  `rng` supplies any stochasticity
  /// (random baseline, mask init); deterministic given its state.
  virtual AttackResult Attack(const AttackContext& ctx,
                              const AttackRequest& request, Rng* rng) const = 0;
};

/// Candidate endpoints for a direct add-edge attack on `target`, in
/// ascending order: nodes j with no edge (target, j) and j != target.  When
/// `required_label` >= 0, only nodes carrying that label are returned (the
/// paper's per-baseline targeted-label constraint).  O(n).
std::vector<int64_t> DirectAddCandidates(const Graph& graph, int64_t target,
                                         const std::vector<int64_t>& labels,
                                         int64_t required_label);

/// CSR twin over a symmetric adjacency pattern with sorted rows — the attack
/// loops pass AttackContext::clean_csr (identical candidate order).
std::vector<int64_t> DirectAddCandidates(const CsrPattern& adjacency,
                                         int64_t target,
                                         const std::vector<int64_t>& labels,
                                         int64_t required_label);

/// The context's dense clean adjacency with the `added` edges written
/// symmetrically (pass an AttackResult's `added_edges`), or an empty tensor
/// on a sparse-only context.  Adjacency values are exactly 0.0/1.0, so this
/// is bit-identical to densifying the perturbed Graph, without ever copying
/// the Graph.
Tensor DensePerturbedAdjacency(const AttackContext& ctx,
                               const std::vector<Edge>& added);

/// The targeted attack loss of Eq. (4): -log f(Â, X)[v, ŷ], differentiable
/// in the adjacency.
Var TargetedAttackLoss(const GcnForwardContext& ctx, const Var& adjacency,
                       int64_t node, int64_t label);

/// Adds edge (u,v) symmetrically to a dense adjacency.
void AddEdgeDense(Tensor* adjacency, int64_t u, int64_t v);

/// True if the attacked model now predicts `label` for `node`.
bool PredictsLabel(const Gcn& model, const Tensor& adjacency,
                   const Tensor& features, int64_t node, int64_t label);

}  // namespace geattack

#endif  // GEATTACK_SRC_ATTACK_ATTACK_H_
