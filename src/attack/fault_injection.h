// Deterministic fault-injection decorator for attack robustness tests.
//
// Wraps any TargetedAttack and fires a configured fault when (and only
// when) the request's target_node matches an injected spec:
//
//   * kThrow — throws std::runtime_error before delegating, modelling an
//     arbitrary per-task crash;
//   * kNaN   — routes a quiet NaN through CheckFiniteScore, modelling a
//     numeric blowup caught by the attackers' finite-score tripwire
//     (throws NonFiniteError);
//   * kDelay — sleeps for delay_ms, then delegates, modelling a stuck
//     target for deadline tests.
//
// Faults are keyed by target node, so they are deterministic across thread
// counts and schedules.

#ifndef GEATTACK_SRC_ATTACK_FAULT_INJECTION_H_
#define GEATTACK_SRC_ATTACK_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/attack/attack.h"

namespace geattack {

enum class FaultKind {
  kThrow,
  kNaN,
  kDelay,
};

struct FaultSpec {
  FaultKind kind = FaultKind::kThrow;
  double delay_ms = 0.0;  ///< Sleep duration for kDelay; ignored otherwise.
};

class FaultInjectingAttack : public TargetedAttack {
 public:
  /// Decorates `inner` (not owned; must outlive this).
  explicit FaultInjectingAttack(const TargetedAttack* inner);

  /// Arms `spec` for requests on `target_node` (replaces a prior spec).
  void InjectAt(int64_t target_node, FaultSpec spec);

  /// Number of Attack() invocations that reached the point of delegating to
  /// (or faulting instead of) the inner attack — lets tests prove a resumed
  /// run recomputed only the missing targets.
  int64_t attack_calls() const {
    return attack_calls_->load(std::memory_order_relaxed);
  }

  std::string name() const override;
  AttackResult Attack(const AttackContext& ctx, const AttackRequest& request,
                      Rng* rng) const override;

 private:
  const TargetedAttack* inner_;
  std::map<int64_t, FaultSpec> faults_;  // Ordered: deterministic, lint-clean.
  // Shared counter (not a mutable member) so the const Attack override can
  // count concurrent calls from driver workers.
  std::shared_ptr<std::atomic<int64_t>> attack_calls_;
};

}  // namespace geattack

#endif  // GEATTACK_SRC_ATTACK_FAULT_INJECTION_H_
