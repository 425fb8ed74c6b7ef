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
// The relaxed parameters are the candidate-edge values of a SubgraphView,
// so each step costs O((|E| + m)·h).  That is the paper's gradient on the
// n x n relaxation Â restricted to the candidates: q[v,j] + q[j,v] equals
// the candidate-value gradient (tests/sparse_attack_test.cc keeps the dense
// loop as the oracle that pins identical picks).

#ifndef GEATTACK_SRC_ATTACK_FGA_H_
#define GEATTACK_SRC_ATTACK_FGA_H_

#include "src/attack/attack.h"

namespace geattack {

/// Gradient-based add-edge attack.
class FgaAttack : public TargetedAttack {
 public:
  /// `targeted` selects FGA-T (true) vs. plain FGA (false).
  explicit FgaAttack(bool targeted) : targeted_(targeted) {}

  std::string name() const override { return targeted_ ? "FGA-T" : "FGA"; }

  AttackResult Attack(const AttackContext& ctx, const AttackRequest& request,
                      Rng* rng) const override;

 protected:
  /// Hook for FGA-T&E: returns candidate endpoints to exclude given the
  /// current (possibly already perturbed) graph.  Base implementation
  /// excludes nothing.  Attack calls it only when ReadsPerturbedGraph() is
  /// true, so an override must return true there.
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
  bool targeted_;
};

}  // namespace geattack

#endif  // GEATTACK_SRC_ATTACK_FGA_H_
