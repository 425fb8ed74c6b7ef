// IG-Attack (Wu et al., IJCAI'19): scores candidate edge additions by the
// integrated gradient of the attack loss along the straight path from
// "edge absent" to "edge present", which reflects the true effect of the
// discrete flip better than the local gradient (paper §A.4).
//
//   IG(v,j) = ∫₀¹ ∂L/∂A[v,j] (A with A[v,j] = α) dα
//           ≈ (1/m) Σ_{k=1..m} ∂L/∂A[v,j] at α = k/m.
//
// The exact form needs m forward/backward passes per candidate.  To keep
// the greedy loop affordable we first shortlist candidates by the plain
// gradient (an FGA pass), then compute exact per-candidate IG on the
// shortlist — DESIGN.md §3 documents this substitution; `shortlist = 0`
// disables it and scores every candidate exactly.
//
// Each path sample relaxes only the scored candidate's value on the
// target's SubgraphView, O((|E| + m)·h) per forward/backward instead of
// the n x n relaxation's O(n²·h); the scores are the same.

#ifndef GEATTACK_SRC_ATTACK_IG_ATTACK_H_
#define GEATTACK_SRC_ATTACK_IG_ATTACK_H_

#include "src/attack/attack.h"

namespace geattack {

/// IG-Attack configuration.
struct IgAttackConfig {
  int64_t steps = 5;       ///< Riemann steps m of the path integral.
  int64_t shortlist = 32;  ///< Gradient-prefiltered candidate pool (0 = all).
};

/// The IG-Attack baseline.
class IgAttack : public TargetedAttack {
 public:
  explicit IgAttack(const IgAttackConfig& config = {}) : config_(config) {}

  std::string name() const override { return "IG-Attack"; }

  AttackResult Attack(const AttackContext& ctx, const AttackRequest& request,
                      Rng* rng) const override;

 private:
  IgAttackConfig config_;
};

}  // namespace geattack

#endif  // GEATTACK_SRC_ATTACK_IG_ATTACK_H_
