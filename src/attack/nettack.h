// Nettack (Zügner et al., KDD'18), targeted structure variant (paper §5.1):
// greedy edge addition scored on the linearized GCN surrogate, restricted
// to perturbations that preserve the graph's power-law degree distribution.
// Candidates are scored with LinearizedGcn::LogitsRowWithEdgeAdded on one
// normalized CSR with incrementally-maintained degrees — O(two-hop volume
// · c) per candidate instead of an O(n²) dense re-normalization.

#ifndef GEATTACK_SRC_ATTACK_NETTACK_H_
#define GEATTACK_SRC_ATTACK_NETTACK_H_

#include "src/attack/attack.h"
#include "src/nn/linearized_gcn.h"

namespace geattack {

/// Nettack configuration.
struct NettackConfig {
  /// Enable the degree-distribution unnoticeability constraint.
  bool enforce_degree_test = true;
  /// χ²(1) likelihood-ratio cutoff (Nettack default).
  double degree_test_threshold = 0.004;
  int64_t degree_test_d_min = 2;
};

/// The Nettack baseline.
class Nettack : public TargetedAttack {
 public:
  explicit Nettack(const NettackConfig& config = {}) : config_(config) {}

  std::string name() const override { return "Nettack"; }

  AttackResult Attack(const AttackContext& ctx, const AttackRequest& request,
                      Rng* rng) const override;

 private:
  NettackConfig config_;
};

}  // namespace geattack

#endif  // GEATTACK_SRC_ATTACK_NETTACK_H_
