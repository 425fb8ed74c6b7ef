// Epoch-versioned immutable graph snapshots for the live attack service.
//
// A registered graph version is no longer a borrowed (context, attack)
// pointer pair: it is a chain of GraphSnapshot epochs, each an immutable,
// shared_ptr-owned copy of everything an attack wave needs (graph, features,
// labels, trained model, attack implementation, and the derived
// AttackContext).  Epoch 0 is built from the caller's data at registration;
// every UpdateGraph applies one validated ChurnBatch and produces epoch
// k + 1 *incrementally* — ApplyEdgeFlips on the CSR, integer degree deltas,
// GcnRenormalizeAfterFlips on the normalized values — instead of a full
// re-prepare.
//
// The bit-identity contract that makes incremental maintenance safe:
// every derived field of an ApplyChurn snapshot is bit-identical to a
// context built from scratch on the churned graph (MakeSparseAttackContext
// recipe).  CSR values are exact (0/1 copies), degrees are exact integer
// arithmetic in doubles, and GcnRenormalizeAfterFlips *recomputes* touched
// normalized entries with GcnNormalizeCsr's own expression rather than
// rescaling them.  tests/live_graph_test.cc pins this field by field, so a
// wave dispatched against epoch k computes exactly what an offline driver
// run on a frozen copy of epoch k would.
//
// Churn admission is all-or-nothing: ValidateChurnBatch checks every entry
// (range, self-loop, duplicate, add-present / remove-absent, non-finite or
// non-unit weight) before anything is applied, so a malformed batch yields
// a structured kInvalidArgument with zero partial mutation.

#ifndef GEATTACK_SRC_SERVICE_GRAPH_SNAPSHOT_H_
#define GEATTACK_SRC_SERVICE_GRAPH_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/attack/attack.h"
#include "src/base/status.h"
#include "src/graph/graph.h"
#include "src/nn/gcn.h"

namespace geattack {

/// One churn entry.  The graphs served here are unweighted, so `weight`
/// exists to make weighted upstream feeds fail loudly instead of silently
/// dropping information: validation requires exactly 1.0 (NaN, Inf, and any
/// other value are the "non-finite / malformed" rejection class).
struct ChurnEdge {
  int64_t u = -1;
  int64_t v = -1;
  double weight = 1.0;
};

/// One atomic edge-flip batch: applied in full or not at all.
struct ChurnBatch {
  std::vector<ChurnEdge> added;
  std::vector<ChurnEdge> removed;
};

/// All-or-nothing admission check against the CURRENT graph.  Returns Ok or
/// kInvalidArgument naming the first offending entry; performs no mutation
/// ever.  Rejected: empty batches, endpoints out of [0, n), self loops,
/// repeated undirected pairs anywhere in the batch (including the same pair
/// added and removed), adds of present edges, removes of absent edges, and
/// weights that are non-finite or != 1.0.
Status ValidateChurnBatch(const Graph& graph, const ChurnBatch& batch);

/// `batch`'s add (or remove) list as canonical Edge pairs, in batch order.
/// Requires a validated batch.
std::vector<Edge> ChurnEdgesOf(const std::vector<ChurnEdge>& entries);

/// One immutable epoch of a registered graph version.  `ctx` points at the
/// snapshot's own `data`/`model`, so a wave holding the shared_ptr can run
/// on it regardless of concurrent churn or deregistration — the raw-pointer
/// "must outlive the service" contract is retired.  Never copied after
/// construction (ctx would dangle).
///
/// What consecutive epochs share: the model, the attack, the AttackScratch
/// and every adjacency row of `data.graph` outside the batch's endpoints
/// (Graph copies share rows; see graph.h).  What each epoch still owns
/// outright: the features and labels, the degree column, and the CSR and
/// normalized CSR, each a fresh O(nnz) merge of the previous epoch's.
struct GraphSnapshot {
  GraphSnapshot() = default;
  GraphSnapshot(const GraphSnapshot&) = delete;
  GraphSnapshot& operator=(const GraphSnapshot&) = delete;

  std::string version;
  int64_t epoch = 0;
  GraphData data;
  std::shared_ptr<const Gcn> model;            ///< Shared across epochs.
  std::shared_ptr<const TargetedAttack> attack;  ///< Shared across epochs.
  AttackContext ctx;
};

/// Builds epoch 0 of `version` by copying `data` (its graph rows are shared
/// with the caller's, not duplicated) and `model` into the snapshot and
/// deriving the context with exactly the MakeSparseAttackContext recipe, so
/// service results are bit-identical to an offline driver run on the
/// caller's own context.
std::shared_ptr<const GraphSnapshot> MakeGraphSnapshot(
    const std::string& version, const GraphData& data, const Gcn& model,
    std::shared_ptr<const TargetedAttack> attack);

/// Applies a VALIDATED batch to `prev`, producing the next epoch.  All
/// derived state is maintained incrementally yet bit-identical to a fresh
/// build (see file comment).  The next epoch shares `prev`'s AttackScratch
/// (its cached X·W₁ fold is graph-independent) and its untouched graph
/// rows: the graph costs O(n) handles plus O(deg) per endpoint row, and
/// dropping `prev` later frees only the rows it alone held.  The features
/// (O(n·d)) and the two CSRs (O(nnz)) are still copied.  GEA_CHECKs on
/// unvalidated input.
std::shared_ptr<const GraphSnapshot> ApplyChurn(
    const std::shared_ptr<const GraphSnapshot>& prev, const ChurnBatch& batch);

}  // namespace geattack

#endif  // GEATTACK_SRC_SERVICE_GRAPH_SNAPSHOT_H_
