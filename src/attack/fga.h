// FGA — fast gradient attack on the adjacency matrix (paper §A.4, after
// Chen et al. / the FGSM-style graph attack): relax A to a continuous
// matrix, take the gradient of the attack loss, and greedily add the
// candidate edge whose gradient entry promises the largest loss decrease.
//
// Two modes:
//   * untargeted FGA: maximize the loss of the currently-predicted label —
//     the paper uses this both as a baseline and to *choose* each target
//     node's specific target label (§5.1);
//   * FGA-T: minimize the loss of a specific target label ŷ (Eq. 4).
//
// Two execution paths: the historical dense one (gradient w.r.t. every
// n x n adjacency entry, O(n²·h) per step) and the default sparse one,
// where the only relaxed parameters are the candidate-edge values of a
// SubgraphView and each step costs O((|E| + m)·h).  Both evaluate the same
// gradient — q[v,j] + q[j,v] equals the candidate-value gradient — so they
// pick identical edges up to floating-point roundoff.

#ifndef GEATTACK_SRC_ATTACK_FGA_H_
#define GEATTACK_SRC_ATTACK_FGA_H_

#include "src/attack/attack.h"

namespace geattack {

/// Gradient-based add-edge attack.
class FgaAttack : public TargetedAttack {
 public:
  /// `targeted` selects FGA-T (true) vs. plain FGA (false); `use_sparse`
  /// selects the candidate-edge-value path (default) vs. the dense n x n
  /// relaxation.
  explicit FgaAttack(bool targeted, bool use_sparse = true)
      : targeted_(targeted), use_sparse_(use_sparse) {}

  std::string name() const override { return targeted_ ? "FGA-T" : "FGA"; }

  AttackResult Attack(const AttackContext& ctx, const AttackRequest& request,
                      Rng* rng) const override;

 protected:
  /// Hook for FGA-T&E: returns candidate endpoints to exclude given the
  /// current (possibly already perturbed) graph.  Base implementation
  /// excludes nothing.  The sparse paths call it only when
  /// ReadsPerturbedGraph() is true, so an override must return true there.
  virtual std::vector<int64_t> ExcludedNodes(const AttackContext& ctx,
                                             const Graph& current,
                                             const AttackRequest& request)
      const;

  /// Whether the greedy rounds read the perturbed graph: untargeted FGA
  /// re-predicts on it and FGA-T&E explains it, so both keep a copy of the
  /// clean graph plus the picks so far.  FGA-T reads neither and never
  /// copies the graph.
  virtual bool ReadsPerturbedGraph() const { return !targeted_; }

 private:
  AttackResult AttackDense(const AttackContext& ctx,
                           const AttackRequest& request) const;
  AttackResult AttackSparse(const AttackContext& ctx,
                            const AttackRequest& request) const;

  bool targeted_;
  bool use_sparse_;
};

/// Given the gradient Q = ∇_Â L of a loss to *minimize*, returns the
/// candidate j whose symmetric gradient score Q[target,j] + Q[j,target] is
/// most negative (adding that edge most decreases the loss), or -1 if no
/// candidate improves.  Shared by FGA/FGA-T/GEAttack edge selection.
int64_t BestCandidateByGradient(const Tensor& gradient, int64_t target,
                                const std::vector<int64_t>& candidates);

}  // namespace geattack

#endif  // GEATTACK_SRC_ATTACK_FGA_H_
