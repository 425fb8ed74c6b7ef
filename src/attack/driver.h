// Parallel multi-target attack driver.
//
// The paper's evaluation protocol attacks ~40 victim nodes per dataset and
// seed, and each targeted attack is independent of every other: the context
// (trained model, clean CSR, folded X·W₁) is read-only, and all mutable
// state (SubgraphView, SparseAttackForward, autodiff graphs) is built per
// target.  That makes the per-target loop embarrassingly parallel — this
// module runs it as one task per target on a thread pool fed from one
// shared queue in caller order.
//
// Determinism contract: results are *bit-identical* to running the targets
// one by one in a single thread, regardless of thread count or scheduling.
// Two properties deliver that:
//
//   1. RNG isolation.  Each target gets its own seeded stream,
//      Rng(TargetSeed(base_seed, i)), instead of consuming draws from a
//      shared sequential stream — so the draws a target sees cannot depend
//      on which targets ran before it.
//   2. Kernel determinism.  Every floating-point kernel in the library
//      accumulates each output element sequentially (see SpmmAccumulate in
//      src/tensor/csr.cc); OpenMP row-parallelism assigns whole rows to
//      threads and never splits a reduction, so a target's attack computes
//      the same bits no matter which worker runs it or what else runs
//      concurrently.
//
// Shared-state audit (what makes concurrent Attack calls safe):
//   * The AttackScratch cache (CachedForward / CachedXw1) is
//     once_flag-guarded; the driver additionally pre-warms it so workers
//     only ever read.
//   * CsrPattern::Transpose() is call_once-cached — concurrent SpMM
//     backwards on the shared clean/normalized CSR patterns are safe.
//   * The autodiff node-id counter is atomic; graphs themselves are
//     per-target.
//   * Everything else a worker touches (Graph copies, Tensors, views) is
//     built inside the task.

#ifndef GEATTACK_SRC_ATTACK_DRIVER_H_
#define GEATTACK_SRC_ATTACK_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/attack/attack.h"

namespace geattack {

/// The per-target RNG seed: a SplitMix64 finalizer mix of (base_seed,
/// target_index).  Consecutive indices land in statistically independent
/// streams, and the mapping is stable across thread counts — it *is* the
/// determinism anchor of the driver.
uint64_t TargetSeed(uint64_t base_seed, int64_t target_index);

struct AttackDriverConfig {
  /// Worker threads.  <= 1 runs the tasks inline in the calling thread
  /// (same seeds, same results).  Values above the task count are clamped.
  int num_threads = 1;
  /// Base seed of the per-target streams.
  uint64_t base_seed = 0;
  /// Whole-run wall-clock deadline in milliseconds, armed when the run
  /// starts (<= 0 = none; must pass CheckDeadlines).  Targets whose task
  /// starts after it passed are marked kSkipped without running; targets
  /// caught mid-loop return their partial result as kTimedOut.
  double run_deadline_ms = 0.0;
  /// Per-target deadline in milliseconds, armed when the target's task
  /// STARTS (queue wait does not count), <= 0 = none; must pass
  /// CheckDeadlines.  Polled cooperatively at greedy-round /
  /// inner-mask-step granularity; an expired target returns the picks
  /// committed so far with kTimedOut.
  double target_deadline_ms = 0.0;
  /// When non-empty (must then match requests.size()), request i draws
  /// from Rng(request_seeds[i]) instead of Rng(TargetSeed(base_seed, i)).
  /// The attack service uses this to pin each accepted request to the
  /// stream of its admission order — and each *retry* to a distinct
  /// documented attempt stream (AttemptSeed) — no matter how requests are
  /// packed into dispatch waves.  All determinism guarantees are unchanged:
  /// a request's draws depend only on its own seed, never on scheduling.
  /// Incompatible with journal_path (the journal binds base_seed streams).
  std::vector<uint64_t> request_seeds;
  /// Non-empty enables the append-only fsync'd checkpoint journal
  /// (src/attack/journal.h): every completed target is durably recorded,
  /// and a re-run with the same path, requests and base_seed resumes —
  /// journaled targets are replayed, only missing ones are attacked, and
  /// the final results are byte-identical to an uninterrupted run (the
  /// per-target TargetSeed streams make resumed targets compute exactly
  /// what they would have).  The path must be writable (checked).
  std::string journal_path;
};

/// Ok when both deadlines can be armed now (DeadlineFits); otherwise the
/// kInvalidArgument that every target of a run configured with them gets,
/// without running: arming such a deadline would overflow the steady
/// clock, and AttackService::Submit rejects such a request the same way.
Status CheckDeadlines(double run_deadline_ms, double target_deadline_ms);

/// Runs `attack` on every request against the shared read-only `ctx` and
/// returns results in request order.  Bit-identical output for any
/// `num_threads`.  Each target is one task, and workers take tasks from
/// one shared queue in caller order: each idle worker takes the next
/// target.  List the costliest targets first (e.g. a hub node with a huge
/// candidate set, or the largest budget) so that no slow task starts last
/// and serializes the tail.  The schedule never affects seeds: request i
/// always draws from its own stream.
///
/// Fault containment: a configured deadline that fails CheckDeadlines
/// turns every target into kInvalidArgument without running; requests with
/// an out-of-range target_node / target_label or a negative budget come
/// back as kInvalidArgument without running; requests whose
/// caller-provided cancellation token (chained
/// under the per-target token) is already expired when their task starts
/// come back as kSkipped *before* any rng stream is consumed — a doomed
/// request never perturbs a survivor and never burns compute; a per-task
/// exception or non-finite score blowup yields a kError result for that
/// target only.  In both cases every other target's picks are
/// bit-identical to a run without the bad target — per-target RNG streams
/// mean a failed target cannot perturb a survivor.  Skipped targets are
/// never journaled, so a resumed run attacks them.
std::vector<AttackResult> RunMultiTargetAttack(
    const AttackContext& ctx, const TargetedAttack& attack,
    const std::vector<AttackRequest>& requests,
    const AttackDriverConfig& config = {});

}  // namespace geattack

#endif  // GEATTACK_SRC_ATTACK_DRIVER_H_
