// Experiment orchestration: target selection, target-label assignment, and
// the joint attack-then-inspect evaluation protocol of §5.1.
//
// Protocol per dataset and seed:
//   1. generate data, split 10/10/80, train the GCN;
//   2. select victim targets among correctly-classified test nodes:
//      10 with the highest classification margin, 10 with the lowest,
//      the rest random (IG-Attack's protocol, §5.1);
//   3. assign each target a *specific* incorrect label by running plain
//      (untargeted) FGA; nodes FGA cannot flip are dropped;
//   4. per attacker: perturb (budget Δ = degree), record ASR / ASR-T, then
//      run the explainer on the perturbed graph at the target and score the
//      detectability of the added edges (P/R/F1/NDCG @ K within the top-L
//      subgraph).

#ifndef GEATTACK_SRC_EVAL_PIPELINE_H_
#define GEATTACK_SRC_EVAL_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/attack/attack.h"
#include "src/defense/inspector_defense.h"
#include "src/service/attack_service.h"
#include "src/eval/metrics.h"
#include "src/eval/protocol.h"
#include "src/explain/explanation.h"
#include "src/graph/graph.h"
#include "src/nn/gcn.h"
#include "src/tensor/random.h"

namespace geattack {

/// How many victim nodes of each kind to select (paper: 10/10/20).
struct TargetSelectionConfig {
  int64_t top_margin = 10;
  int64_t bottom_margin = 10;
  int64_t random = 20;
};

/// Correctly-classified test nodes picked by margin extremes plus random
/// fill, per the paper's protocol.  Returns fewer if the test set is small.
std::vector<int64_t> SelectTargetNodes(const GraphData& data,
                                       const Tensor& clean_logits,
                                       const std::vector<int64_t>& test_nodes,
                                       const TargetSelectionConfig& config,
                                       Rng* rng);

/// A victim node with its assigned specific target label and budget.
struct PreparedTarget {
  int64_t node = -1;
  int64_t true_label = -1;
  int64_t target_label = -1;  ///< ŷ from the preparatory FGA run.
  int64_t budget = 0;         ///< Δ = clean degree (≥ 1).
};

/// Assigns target labels by running untargeted FGA per node (§5.1); nodes
/// that FGA fails to flip are excluded.  With `sparse`, post-attack logits
/// are computed on the O(|E|) CSR path.
std::vector<PreparedTarget> PrepareTargets(const AttackContext& ctx,
                                           const std::vector<int64_t>& nodes,
                                           Rng* rng, bool sparse = false);

/// Victim logits on an attack's perturbed graph.  Dense mode normalizes and
/// multiplies DensePerturbedAdjacency (O(n²·h)); sparse mode applies
/// `result.added_edges` to the clean CSR adjacency incrementally and runs
/// the SpMM forward (O(|E|·h)).  Both agree to floating-point roundoff.
/// `f32_values` additionally stores the sparse adjacency values as float32
/// (SpmmRawF32) — inference-only, ~1e-7 relative logit error, off by
/// default so every gradient/equivalence path stays double.
Tensor PerturbedLogits(const AttackContext& ctx, const AttackResult& result,
                       bool sparse, bool f32_values = false);

/// Aggregated outcome of one attacker over a set of prepared targets.
/// ASR / detection / defense means aggregate ONLY over targets whose attack
/// finished ok; failed, timed-out and skipped targets are counted below and
/// excluded from every mean (a crashed target must not drag asr toward 0).
struct JointAttackOutcome {
  double asr = 0.0;    ///< Fraction flipped to any wrong label.
  double asr_t = 0.0;  ///< Fraction flipped to the specific target label.
  DetectionMetrics detection;  ///< Mean over successfully evaluated targets.
  int64_t num_targets = 0;  ///< Targets whose attack finished ok.
  /// Targets whose attack faulted (exception / non-finite blowup) or whose
  /// request failed validation.
  int64_t num_failed = 0;
  int64_t num_timed_out = 0;  ///< Deadline hit mid-attack (partial result).
  int64_t num_skipped = 0;    ///< Run deadline passed before the target ran.
  /// Requests rejected at admission or shed by the attack service's
  /// overload policy (service-backed evaluation only; structured
  /// kResourceExhausted outcomes).
  int64_t num_shed = 0;
  /// Results computed at a snapshot epoch older than the graph's current
  /// epoch at collection time (service-backed evaluation under live churn
  /// only).  Stale results are still exact for THEIR epoch and are
  /// aggregated normally — this counter just surfaces how much of the
  /// evaluation predates the newest churn.
  int64_t num_stale = 0;
  // ----- Defense aggregates, populated only when EvalConfig::defend. -----
  /// Fraction of targets whose post-defense prediction returned to the true
  /// label (the paper's recovery notion).
  double defense_recovery = 0.0;
  double mean_pruned_edges = 0.0;  ///< Mean edges removed per target.
  /// Mean count of pruned edges that were truly adversarial per target.
  double mean_true_adversarial_pruned = 0.0;
};

/// Evaluation knobs (paper §A.2: L = 20, K = 15).
struct EvalConfig {
  int64_t subgraph_size = 20;  ///< L.
  int64_t k = 15;              ///< K.
  /// Compute post-attack victim logits on the sparse CSR path.
  bool sparse = false;
  /// Store post-attack adjacency values as float32 for the sparse logits
  /// (inference-only; see PerturbedLogits).  Off by default.
  bool f32_values = false;
  /// Attack-phase parallelism.  0 keeps the legacy serial loop in which
  /// every attack consumes draws from the shared `rng` stream (the
  /// fixed-seed pins of integration_test ride on that exact sequence).
  /// >= 1 routes the attacks through the multi-target driver
  /// (src/attack/driver.h) with one independent per-target RNG stream
  /// seeded off `rng` — bit-identical results for any thread count, so 1
  /// is the serial reference and N is the same answer, faster.
  int attack_threads = 0;
  /// Per-target attack deadline in milliseconds (<= 0 = none), honored on
  /// both the serial loop and the driver (AttackDriverConfig::
  /// target_deadline_ms).  An expired target keeps its partial picks and is
  /// counted in num_timed_out instead of the means.
  double target_deadline_ms = 0.0;
  /// Whole-run attack-phase deadline in milliseconds (<= 0 = none); targets
  /// starting after it are counted in num_skipped without running.  When
  /// either deadline fails CheckDeadlines (src/attack/driver.h), no target
  /// runs and every one counts in num_failed.
  double run_deadline_ms = 0.0;
  /// Non-empty enables the driver's checkpoint journal (attack_threads >= 1
  /// only; see AttackDriverConfig::journal_path).
  std::string journal_path;
  /// Run the inspector defense (InspectAndPrune, graph-native) on every
  /// attacked target after the explain step and aggregate recovery stats
  /// into the outcome.  Off by default — the §5.1 tables do not defend.
  bool defend = false;
  /// Defense knobs used when `defend` is set.
  InspectorDefenseConfig defense;
};

/// Runs `attack` on every prepared target and inspects each perturbed graph
/// with `explainer`.  With `eval_config.attack_threads >= 1` the attack
/// phase fans out over the thread-pool driver (see EvalConfig).
///
/// The inspect (and optional defend) phase is graph-native end-to-end: one
/// working Graph is patched with each result's `added_edges`, explained /
/// defended, and restored — so the whole protocol runs from a
/// MakeSparseAttackContext without any n×n tensor.
JointAttackOutcome EvaluateAttack(const AttackContext& ctx,
                                  const TargetedAttack& attack,
                                  const std::vector<PreparedTarget>& targets,
                                  const Explainer& explainer,
                                  const EvalConfig& eval_config, Rng* rng);

/// Service-backed twin of EvaluateAttack: submits every prepared target to
/// `service` against the registered graph `graph_version` (which must have
/// been registered from the same data and model as `ctx` — the inspect
/// phase reads `ctx` directly), takes each result, and aggregates the same
/// JointAttackOutcome.  Under live churn, results whose snapshot epoch is
/// older than the version's current epoch at collection time are counted
/// in num_stale (and still aggregated — they are exact for their epoch).
/// Differences from the driver path:
///
///   * admission is bounded — when the service's queue is full the
///     submission loop waits for it to drain and retries once; a request
///     still rejected (or shed under overload) lands in num_shed instead
///     of poisoning the means;
///   * `request_deadline_ms` / `priority` flow into every submission, so a
///     whole evaluation can run as low-priority background load against a
///     service that is also serving interactive callers;
///   * per-request retry/backoff and degradation are governed by the
///     service's own config, not EvalConfig (EvalConfig::attack_threads
///     and the deadline knobs are ignored on this path).
///
/// Determinism: targets that complete on their first attempt with an
/// undegraded budget carry picks bit-identical to EvaluateAttack with
/// attack_threads >= 1 over the same accepted sequence and base seed (see
/// AttemptSeed in src/service/attack_service.h).
JointAttackOutcome EvaluateAttackOnService(
    const AttackContext& ctx, AttackService* service,
    const std::string& graph_version,
    const std::vector<PreparedTarget>& targets, const Explainer& explainer,
    const EvalConfig& eval_config, double request_deadline_ms = 0.0,
    int32_t priority = 0);

/// Builds an AttackContext view over `data` and `model`: dense + CSR clean
/// adjacencies plus the shared normalized clean CSR and degree cache that
/// every target of a multi-target evaluation reads.
AttackContext MakeAttackContext(const GraphData& data, const Gcn& model);

/// Sparse-only twin for graphs too large to densify: clean_adjacency stays
/// empty (use PerturbedLogits(..., sparse=true)); every attacker runs on
/// it unchanged.
AttackContext MakeSparseAttackContext(const GraphData& data, const Gcn& model);

}  // namespace geattack

#endif  // GEATTACK_SRC_EVAL_PIPELINE_H_
