// Fault-containment tests: a poisoned target (throw / NaN / stall) must
// fail alone — every other target's picks stay bit-identical to a run
// without the fault, at any thread count; deadlines are honored
// cooperatively; a killed journaled run resumes to byte-identical results;
// malformed input files come back as structured load errors.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/attack/driver.h"
#include "src/attack/fault_injection.h"
#include "src/attack/fga.h"
#include "src/attack/journal.h"
#include "src/eval/pipeline.h"
#include "src/eval/protocol.h"
#include "src/explain/gnn_explainer.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/nn/trainer.h"

namespace geattack {
namespace {

struct Fixture {
  GraphData data;
  std::unique_ptr<Gcn> model;
  AttackContext ctx;
  std::vector<PreparedTarget> targets;
  std::vector<AttackRequest> requests;
};

Fixture* SharedFixture() {
  static Fixture* fixture = [] {
    auto* f = new Fixture();
    Rng rng(913);
    CitationGraphConfig cfg;
    cfg.num_nodes = 90;
    cfg.num_edges = 240;
    cfg.num_classes = 3;
    cfg.feature_dim = 32;
    f->data = KeepLargestConnectedComponent(GenerateCitationGraph(cfg, &rng));
    Split split = MakeSplit(f->data, 0.1, 0.1, &rng);
    TrainConfig tc;
    tc.epochs = 40;
    f->model = std::make_unique<Gcn>(TrainNewGcn(f->data, split, tc, &rng));
    f->ctx = MakeAttackContext(f->data, *f->model);
    const Tensor logits =
        f->model->LogitsFromRaw(f->ctx.clean_adjacency, f->data.features);
    auto nodes = SelectTargetNodes(
        f->data, logits, split.test,
        {.top_margin = 3, .bottom_margin = 3, .random = 2}, &rng);
    f->targets = PrepareTargets(f->ctx, nodes, &rng);
    for (const PreparedTarget& t : f->targets)
      f->requests.push_back(
          {t.node, t.target_label, std::min<int64_t>(t.budget, 2)});
    return f;
  }();
  return fixture;
}

void ExpectSameEdges(const AttackResult& got, const AttackResult& want,
                     const std::string& where) {
  ASSERT_EQ(got.added_edges.size(), want.added_edges.size()) << where;
  for (size_t e = 0; e < want.added_edges.size(); ++e)
    EXPECT_EQ(got.added_edges[e], want.added_edges[e]) << where << " edge "
                                                       << e;
}

// ---------------------------------------------------------------------------
// Per-target failure isolation.
// ---------------------------------------------------------------------------

void ExpectPoisonedTargetIsolated(FaultKind kind) {
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 3u);
  const size_t poisoned = f->requests.size() / 2;
  const FgaAttack inner(/*targeted=*/true);

  AttackDriverConfig baseline_config;
  baseline_config.base_seed = 21;
  const std::vector<AttackResult> baseline =
      RunMultiTargetAttack(f->ctx, inner, f->requests, baseline_config);
  for (const AttackResult& r : baseline) ASSERT_TRUE(r.status.ok());

  FaultInjectingAttack faulty(&inner);
  faulty.InjectAt(f->requests[poisoned].target_node, {kind, 0.0});
  for (int threads : {1, 2, 4}) {
    AttackDriverConfig config;
    config.base_seed = 21;
    config.num_threads = threads;
    const std::vector<AttackResult> results =
        RunMultiTargetAttack(f->ctx, faulty, f->requests, config);
    ASSERT_EQ(results.size(), baseline.size());
    for (size_t i = 0; i < results.size(); ++i) {
      const std::string where = "threads=" + std::to_string(threads) +
                                " target " + std::to_string(i);
      if (i == poisoned) {
        EXPECT_EQ(results[i].status.code(), StatusCode::kError) << where;
        EXPECT_TRUE(results[i].added_edges.empty()) << where;
      } else {
        EXPECT_TRUE(results[i].status.ok())
            << where << ": " << results[i].status.ToString();
        ExpectSameEdges(results[i], baseline[i], where);
      }
    }
  }
}

TEST(FaultIsolationTest, ThrownExceptionPoisonsOnlyItsTarget) {
  ExpectPoisonedTargetIsolated(FaultKind::kThrow);
}

TEST(FaultIsolationTest, NaNScorePoisonsOnlyItsTarget) {
  ExpectPoisonedTargetIsolated(FaultKind::kNaN);
}

TEST(FaultIsolationTest, NaNPoisonedModelTripsWireInsteadOfSilentEmptyPick) {
  // A NaN in the weights makes every gradient score NaN.  NaN never wins a
  // comparison, so without the tripwire the attack would silently return an
  // empty pick marked ok; with it, the driver reports a kError result.
  Fixture* f = SharedFixture();
  Gcn poisoned_model = *f->model;
  poisoned_model.mutable_w1()[0] = std::numeric_limits<double>::quiet_NaN();
  const AttackContext poisoned_ctx =
      MakeAttackContext(f->data, poisoned_model);
  const FgaAttack attack(/*targeted=*/true);
  const std::vector<AttackRequest> one(1, f->requests[0]);
  const std::vector<AttackResult> results =
      RunMultiTargetAttack(poisoned_ctx, attack, one, {});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kError);
  EXPECT_NE(results[0].status.message().find("non-finite"), std::string::npos)
      << results[0].status.ToString();
}

TEST(FaultIsolationTest, InvalidRequestsRejectedWithoutPerturbingSurvivors) {
  Fixture* f = SharedFixture();
  const FgaAttack attack(/*targeted=*/true);
  AttackDriverConfig config;
  config.base_seed = 33;
  const std::vector<AttackResult> baseline =
      RunMultiTargetAttack(f->ctx, attack, f->requests, config);

  // Invalid requests appended after the valid ones keep the valid request
  // indices (hence their TargetSeed streams) unchanged.
  const int64_t n = f->data.num_nodes();
  std::vector<AttackRequest> requests = f->requests;
  requests.push_back({n + 5, 0, 1});   // node out of range
  requests.push_back({-1, 0, 1});      // node negative
  requests.push_back({2, 99, 1});      // label out of range
  requests.push_back({2, -2, 1});      // label below the -1 sentinel
  requests.push_back({2, 0, -1});      // negative budget
  const std::vector<AttackResult> results =
      RunMultiTargetAttack(f->ctx, attack, requests, config);
  ASSERT_EQ(results.size(), requests.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_TRUE(results[i].status.ok());
    ExpectSameEdges(results[i], baseline[i], "target " + std::to_string(i));
  }
  for (size_t i = baseline.size(); i < results.size(); ++i) {
    EXPECT_EQ(results[i].status.code(), StatusCode::kInvalidArgument)
        << "request " << i;
    EXPECT_TRUE(results[i].added_edges.empty());
  }
}

TEST(FaultIsolationTest, PredictAtNodeReturnsSentinelOutOfRange) {
  Fixture* f = SharedFixture();
  GnnExplainerConfig ecfg;
  ecfg.epochs = 2;
  const GnnExplainer explainer(f->model.get(), &f->data.features, ecfg);
  const ProtocolContext pctx = MakeProtocolContext(f->ctx, explainer);
  EXPECT_EQ(PredictAtNode(pctx, f->data.graph, -1), -1);
  EXPECT_EQ(PredictAtNode(pctx, f->data.graph, f->data.num_nodes() + 7), -1);
  EXPECT_GE(PredictAtNode(pctx, f->data.graph, 0), 0);
}

// ---------------------------------------------------------------------------
// Deadlines & cancellation.
// ---------------------------------------------------------------------------

TEST(DeadlineTest, TargetDeadlineTimesOutStalledTargetOnly) {
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 3u);
  const size_t stalled = f->requests.size() / 2;
  const FgaAttack inner(/*targeted=*/true);

  AttackDriverConfig baseline_config;
  baseline_config.base_seed = 55;
  const std::vector<AttackResult> baseline =
      RunMultiTargetAttack(f->ctx, inner, f->requests, baseline_config);

  FaultInjectingAttack faulty(&inner);
  faulty.InjectAt(f->requests[stalled].target_node,
                  {FaultKind::kDelay, 120.0});
  for (int threads : {1, 2}) {
    AttackDriverConfig config;
    config.base_seed = 55;
    config.num_threads = threads;
    config.target_deadline_ms = 25.0;
    const std::vector<AttackResult> results =
        RunMultiTargetAttack(f->ctx, faulty, f->requests, config);
    ASSERT_EQ(results.size(), baseline.size());
    for (size_t i = 0; i < results.size(); ++i) {
      const std::string where =
          "threads=" + std::to_string(threads) + " target " +
          std::to_string(i);
      if (i == stalled) {
        // 120 ms stall >> 25 ms deadline: the first loop-top poll cancels
        // before any pick is committed.
        EXPECT_EQ(results[i].status.code(), StatusCode::kTimedOut) << where;
        EXPECT_TRUE(results[i].added_edges.empty()) << where;
      } else {
        // Fast targets finish well inside the deadline: their polls all
        // return false, so they take identical branches — identical picks.
        EXPECT_TRUE(results[i].status.ok())
            << where << ": " << results[i].status.ToString();
        ExpectSameEdges(results[i], baseline[i], where);
      }
    }
  }
}

TEST(DeadlineTest, RunDeadlineSkipsTargetsThatNeverStarted) {
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 3u);
  const FgaAttack inner(/*targeted=*/true);
  FaultInjectingAttack faulty(&inner);
  // Stall the FIRST scheduled target past the whole-run deadline; with one
  // worker the remaining targets deterministically start after it expired.
  faulty.InjectAt(f->requests[0].target_node, {FaultKind::kDelay, 120.0});

  AttackDriverConfig config;
  config.base_seed = 56;
  config.num_threads = 1;
  config.run_deadline_ms = 30.0;
  const std::vector<AttackResult> results =
      RunMultiTargetAttack(f->ctx, faulty, f->requests, config);
  ASSERT_EQ(results.size(), f->requests.size());
  // The stalled target was in flight when the run deadline passed: the
  // per-target token chains to the run token, so it times out.
  EXPECT_EQ(results[0].status.code(), StatusCode::kTimedOut);
  for (size_t i = 1; i < results.size(); ++i)
    EXPECT_EQ(results[i].status.code(), StatusCode::kSkipped) << "target "
                                                              << i;
}

TEST(DeadlineTest, PreExpiredCallerTokenSkipsBeforeAnyStreamIsConsumed) {
  // A request whose caller-provided token is already expired at submission
  // is doomed: running it would burn compute just to throw the result away.
  // The driver hands it back kSkipped *before* constructing its Rng or
  // calling the attack — so a doomed request never perturbs a survivor, at
  // any thread count.
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 3u);
  const FgaAttack inner(/*targeted=*/true);
  AttackDriverConfig baseline_config;
  baseline_config.base_seed = 57;
  const std::vector<AttackResult> baseline =
      RunMultiTargetAttack(f->ctx, inner, f->requests, baseline_config);

  const size_t doomed = f->requests.size() / 2;
  CancellationToken cancelled;
  cancelled.Cancel();
  std::vector<AttackRequest> requests = f->requests;
  requests[doomed].cancel = &cancelled;
  for (int threads : {1, 2, 4}) {
    AttackDriverConfig config;
    config.base_seed = 57;
    config.num_threads = threads;
    FaultInjectingAttack counted(&inner);
    const std::vector<AttackResult> results =
        RunMultiTargetAttack(f->ctx, counted, requests, config);
    const std::string at = "threads=" + std::to_string(threads);
    // Never attempted: the attack itself was not even called for it.
    EXPECT_EQ(counted.attack_calls(),
              static_cast<int64_t>(requests.size()) - 1)
        << at;
    ASSERT_EQ(results.size(), baseline.size());
    for (size_t i = 0; i < results.size(); ++i) {
      const std::string where = at + " target " + std::to_string(i);
      if (i == doomed) {
        EXPECT_EQ(results[i].status.code(), StatusCode::kSkipped) << where;
        EXPECT_TRUE(results[i].added_edges.empty()) << where;
      } else {
        EXPECT_TRUE(results[i].status.ok())
            << where << ": " << results[i].status.ToString();
        ExpectSameEdges(results[i], baseline[i], where);
      }
    }
  }
}

TEST(DeadlineTest, UnarmableDeadlinesRejectEveryTargetWithoutRunning) {
  // A deadline the steady clock cannot hold (infinite, NaN, or past its
  // ~292-year range) must not be armed: the double-to-tick cast overflows.
  // The driver and the legacy serial loop reject every target
  // kInvalidArgument instead, without calling the attack — no clock read
  // decides the outcome.
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 3u);
  const FgaAttack inner(/*targeted=*/true);
  GnnExplainerConfig icfg;
  icfg.epochs = 5;
  GnnExplainer inspector(f->model.get(), &f->data.features, icfg);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double ms :
       {inf, std::numeric_limits<double>::quiet_NaN(), 1e13}) {
    for (const bool run_field : {true, false}) {
      const std::string at = std::string(run_field ? "run" : "target") +
                             "_deadline_ms=" + std::to_string(ms);
      AttackDriverConfig config;
      config.num_threads = 2;
      (run_field ? config.run_deadline_ms : config.target_deadline_ms) = ms;
      FaultInjectingAttack counted(&inner);
      const std::vector<AttackResult> results =
          RunMultiTargetAttack(f->ctx, counted, f->requests, config);
      EXPECT_EQ(counted.attack_calls(), 0) << at;
      ASSERT_EQ(results.size(), f->requests.size()) << at;
      for (const AttackResult& r : results) {
        EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument) << at;
        EXPECT_TRUE(r.added_edges.empty()) << at;
      }

      for (const int threads : {0, 2}) {
        EvalConfig eval;
        eval.attack_threads = threads;
        (run_field ? eval.run_deadline_ms : eval.target_deadline_ms) = ms;
        FaultInjectingAttack evaluated(&inner);
        Rng rng(1);
        const JointAttackOutcome outcome = EvaluateAttack(
            f->ctx, evaluated, f->targets, inspector, eval, &rng);
        EXPECT_EQ(evaluated.attack_calls(), 0) << at << " threads=" << threads;
        EXPECT_EQ(outcome.num_failed,
                  static_cast<int64_t>(f->targets.size()))
            << at << " threads=" << threads;
        EXPECT_EQ(outcome.num_targets, 0) << at << " threads=" << threads;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint journal: kill-and-resume equals uninterrupted.
// ---------------------------------------------------------------------------

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << path;
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void WriteFileOrDie(const std::string& path, const std::string& contents) {
  std::ofstream os(path);
  os << contents;
  ASSERT_TRUE(os.good()) << path;
}

void ExpectSameResults(const std::vector<AttackResult>& got,
                       const std::vector<AttackResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const std::string where = "target " + std::to_string(i);
    EXPECT_EQ(got[i].status.code(), want[i].status.code()) << where;
    EXPECT_EQ(got[i].status.message(), want[i].status.message()) << where;
    ExpectSameEdges(got[i], want[i], where);
  }
}

TEST(JournalTest, KilledRunResumesToIdenticalResults) {
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 4u);
  const std::string path = testing::TempDir() + "geattack_fault_journal.txt";
  std::remove(path.c_str());
  const FgaAttack inner(/*targeted=*/true);

  AttackDriverConfig config;
  config.base_seed = 77;
  config.num_threads = 2;
  config.journal_path = path;

  FaultInjectingAttack first_run(&inner);
  const std::vector<AttackResult> uninterrupted =
      RunMultiTargetAttack(f->ctx, first_run, f->requests, config);
  EXPECT_EQ(first_run.attack_calls(),
            static_cast<int64_t>(f->requests.size()));

  // Simulate a kill: keep the header + the first two complete records, then
  // append a torn record (the write that was in flight when the process
  // died).
  const std::string full = ReadFileOrDie(path);
  size_t cut = 0;
  for (int record = 0; record < 2; ++record) {
    cut = full.find(" ;\n", cut);
    ASSERT_NE(cut, std::string::npos);
    cut += 3;
  }
  WriteFileOrDie(path, full.substr(0, cut) + "r 3 0 2 1");

  FaultInjectingAttack resumed_run(&inner);
  const std::vector<AttackResult> resumed =
      RunMultiTargetAttack(f->ctx, resumed_run, f->requests, config);
  // Only the targets whose records were lost are recomputed...
  EXPECT_EQ(resumed_run.attack_calls(),
            static_cast<int64_t>(f->requests.size()) - 2);
  // ...and the merged results are identical to the uninterrupted run,
  // including the journal file itself converging back to a full journal.
  ExpectSameResults(resumed, uninterrupted);

  FaultInjectingAttack replay_run(&inner);
  const std::vector<AttackResult> replayed =
      RunMultiTargetAttack(f->ctx, replay_run, f->requests, config);
  EXPECT_EQ(replay_run.attack_calls(), 0);
  ExpectSameResults(replayed, uninterrupted);
  std::remove(path.c_str());
}

TEST(JournalTest, JournaledFailureReplaysWithoutRecomputing) {
  Fixture* f = SharedFixture();
  const std::string path = testing::TempDir() + "geattack_fault_journal2.txt";
  std::remove(path.c_str());
  const FgaAttack inner(/*targeted=*/true);
  const size_t poisoned = 0;

  AttackDriverConfig config;
  config.base_seed = 78;
  config.journal_path = path;

  FaultInjectingAttack faulty(&inner);
  faulty.InjectAt(f->requests[poisoned].target_node, {FaultKind::kThrow, 0.0});
  const std::vector<AttackResult> first =
      RunMultiTargetAttack(f->ctx, faulty, f->requests, config);
  EXPECT_EQ(first[poisoned].status.code(), StatusCode::kError);

  // Resume with a fault-free attack: the journaled error is replayed as-is
  // (message bytes included) and nothing is recomputed.
  FaultInjectingAttack clean(&inner);
  const std::vector<AttackResult> second =
      RunMultiTargetAttack(f->ctx, clean, f->requests, config);
  EXPECT_EQ(clean.attack_calls(), 0);
  ExpectSameResults(second, first);

  // A different base_seed invalidates the journal: everything is recomputed
  // (and the fault-free attack now succeeds on the formerly poisoned
  // target).
  AttackDriverConfig reseeded = config;
  reseeded.base_seed = 79;
  const std::vector<AttackResult> third =
      RunMultiTargetAttack(f->ctx, clean, f->requests, reseeded);
  EXPECT_EQ(clean.attack_calls(), static_cast<int64_t>(f->requests.size()));
  EXPECT_TRUE(third[poisoned].status.ok());
  std::remove(path.c_str());
}

TEST(JournalTest, CallerSkippedTargetIsNotJournaledAndResumeAttacksIt) {
  // A target skipped because its caller token had expired computed
  // nothing, so the journal must not record it: a resumed run without the
  // token attacks it, and the merged results equal an uninterrupted run's.
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 3u);
  const std::string path =
      testing::TempDir() + "geattack_fault_journal_skip.txt";
  std::remove(path.c_str());
  const FgaAttack inner(/*targeted=*/true);
  const size_t doomed = f->requests.size() / 2;

  AttackDriverConfig config;
  config.base_seed = 81;
  config.num_threads = 2;
  const std::vector<AttackResult> uninterrupted =
      RunMultiTargetAttack(f->ctx, inner, f->requests, config);

  CancellationToken cancelled;
  cancelled.Cancel();
  std::vector<AttackRequest> requests = f->requests;
  requests[doomed].cancel = &cancelled;
  config.journal_path = path;
  const std::vector<AttackResult> first =
      RunMultiTargetAttack(f->ctx, inner, requests, config);
  ASSERT_EQ(first[doomed].status.code(), StatusCode::kSkipped);

  const JournalLoadResult journal = LoadAttackJournal(
      path, config.base_seed, static_cast<int64_t>(requests.size()));
  ASSERT_TRUE(journal.status.ok()) << journal.status.ToString();
  EXPECT_EQ(journal.records.size(), requests.size() - 1);
  for (const JournalRecord& record : journal.records)
    EXPECT_NE(record.request_index, static_cast<int64_t>(doomed));

  FaultInjectingAttack resumed_run(&inner);
  const std::vector<AttackResult> resumed =
      RunMultiTargetAttack(f->ctx, resumed_run, f->requests, config);
  ASSERT_EQ(resumed_run.attack_calls(), 1);
  ExpectSameResults(resumed, uninterrupted);
  std::remove(path.c_str());
}

TEST(JournalTest, BitFlipInsideCompleteRecordSurfacesAsDataLoss) {
  // A torn tail is the normal kill artifact and truncates silently; a
  // *complete* record whose bytes changed after the fsync is different —
  // the CRC catches it, the load reports structured kDataLoss, and the
  // resumed run recomputes the dropped targets instead of trusting a
  // wrong-but-plausible replay.
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 3u);
  const std::string path = testing::TempDir() + "geattack_crc_journal.txt";
  std::remove(path.c_str());
  const FgaAttack attack(/*targeted=*/true);

  AttackDriverConfig config;
  config.base_seed = 81;
  config.num_threads = 1;  // Deterministic record order: 0, 1, 2, ...
  config.journal_path = path;
  const std::vector<AttackResult> uninterrupted =
      RunMultiTargetAttack(f->ctx, attack, f->requests, config);

  // Flip the request-index digit of the SECOND record ("r 1 ..." -> "r 0
  // ..."): the record still parses — the index is in range, every field is
  // well-formed — so only the CRC can tell it was tampered with.
  std::string text = ReadFileOrDie(path);
  const size_t first_end = text.find(" ;\n");
  ASSERT_NE(first_end, std::string::npos);
  const size_t second = text.find("r 1 ", first_end);
  ASSERT_NE(second, std::string::npos);
  text[second + 2] = '0';
  WriteFileOrDie(path, text);

  const int64_t n = static_cast<int64_t>(f->requests.size());
  const JournalLoadResult loaded = LoadAttackJournal(path, 81, n);
  EXPECT_TRUE(loaded.header_ok);
  EXPECT_EQ(loaded.status.code(), StatusCode::kDataLoss)
      << loaded.status.ToString();
  // Replay stops BEFORE the corrupt record: only the first survives, and
  // the resume offset points at the corrupt tail so it gets truncated.
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.records[0].request_index, 0);

  // Resume: everything from the flipped record on is recomputed, and the
  // merged results converge back to the uninterrupted run byte for byte.
  FaultInjectingAttack counted(&attack);
  const std::vector<AttackResult> resumed =
      RunMultiTargetAttack(f->ctx, counted, f->requests, config);
  EXPECT_EQ(counted.attack_calls(), n - 1);
  ExpectSameResults(resumed, uninterrupted);

  // The rewritten journal is whole again: a third run replays everything.
  FaultInjectingAttack replay(&attack);
  const std::vector<AttackResult> replayed =
      RunMultiTargetAttack(f->ctx, replay, f->requests, config);
  EXPECT_EQ(replay.attack_calls(), 0);
  ExpectSameResults(replayed, uninterrupted);
  std::remove(path.c_str());
}

/// Downgrades a freshly written v3 journal to the v1 format a pre-CRC build
/// would have left behind ("v1" header, no "c <crc>" trailers), keeping
/// only the first `keep_records` records as if the run was killed mid-way.
std::string DowngradeToV1(const std::string& text, int keep_records) {
  std::string out = text;
  const size_t v3 = out.find("geajournal v3");
  EXPECT_NE(v3, std::string::npos);
  out.replace(v3, 13, "geajournal v1");
  size_t cut = 0;
  for (int record = 0; record < keep_records; ++record) {
    cut = out.find(" ;\n", cut);
    EXPECT_NE(cut, std::string::npos);
    cut += 3;
  }
  out = out.substr(0, cut);
  size_t crc_at;
  while ((crc_at = out.find("\nc ")) != std::string::npos) {
    const size_t term = out.find(" ;\n", crc_at);
    EXPECT_NE(term, std::string::npos);
    out.replace(crc_at, term + 3 - crc_at, "\n;\n");
  }
  return out;
}

TEST(JournalTest, LegacyV1JournalLoadsAndMigratesToV3OnResume) {
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 4u);
  const std::string path = testing::TempDir() + "geattack_v1_journal.txt";
  std::remove(path.c_str());
  const FgaAttack attack(/*targeted=*/true);

  AttackDriverConfig config;
  config.base_seed = 82;
  config.num_threads = 1;
  config.journal_path = path;
  const std::vector<AttackResult> uninterrupted =
      RunMultiTargetAttack(f->ctx, attack, f->requests, config);

  WriteFileOrDie(path, DowngradeToV1(ReadFileOrDie(path), 2));

  const int64_t n = static_cast<int64_t>(f->requests.size());
  const JournalLoadResult loaded = LoadAttackJournal(path, 82, n);
  EXPECT_TRUE(loaded.header_ok);
  EXPECT_TRUE(loaded.legacy);
  EXPECT_TRUE(loaded.status.ok()) << loaded.status.ToString();
  EXPECT_EQ(loaded.records.size(), 2u);

  // Resume replays the two v1 records, recomputes the rest, and rewrites
  // the file as v3 so the CRC protection covers the migrated records too.
  FaultInjectingAttack counted(&attack);
  const std::vector<AttackResult> resumed =
      RunMultiTargetAttack(f->ctx, counted, f->requests, config);
  EXPECT_EQ(counted.attack_calls(), n - 2);
  ExpectSameResults(resumed, uninterrupted);
  EXPECT_EQ(ReadFileOrDie(path).compare(0, 13, "geajournal v3"), 0);

  FaultInjectingAttack replay(&attack);
  const std::vector<AttackResult> replayed =
      RunMultiTargetAttack(f->ctx, replay, f->requests, config);
  EXPECT_EQ(replay.attack_calls(), 0);
  ExpectSameResults(replayed, uninterrupted);
  std::remove(path.c_str());
}

TEST(JournalTest, V2JournalResumesInPlaceWithoutRewrite) {
  // v2 differs from v3 only in the header byte — `r` records are
  // grammar-identical and CRC'd — so a v2 journal is NOT legacy: the
  // driver appends under the existing header instead of rewriting.
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 4u);
  const std::string path = testing::TempDir() + "geattack_v2_journal.txt";
  std::remove(path.c_str());
  const FgaAttack attack(/*targeted=*/true);

  AttackDriverConfig config;
  config.base_seed = 85;
  config.num_threads = 1;
  config.journal_path = path;
  const std::vector<AttackResult> uninterrupted =
      RunMultiTargetAttack(f->ctx, attack, f->requests, config);

  // Downgrade the header to v2 and keep two records, as a killed pre-v3
  // build would have left it.
  std::string text = ReadFileOrDie(path);
  const size_t v3 = text.find("geajournal v3");
  ASSERT_NE(v3, std::string::npos);
  text.replace(v3, 13, "geajournal v2");
  size_t cut = 0;
  for (int record = 0; record < 2; ++record) {
    cut = text.find(" ;\n", cut);
    ASSERT_NE(cut, std::string::npos);
    cut += 3;
  }
  WriteFileOrDie(path, text.substr(0, cut));

  const int64_t n = static_cast<int64_t>(f->requests.size());
  const JournalLoadResult loaded = LoadAttackJournal(path, 85, n);
  EXPECT_TRUE(loaded.header_ok);
  EXPECT_FALSE(loaded.legacy);
  EXPECT_EQ(loaded.records.size(), 2u);

  FaultInjectingAttack counted(&attack);
  const std::vector<AttackResult> resumed =
      RunMultiTargetAttack(f->ctx, counted, f->requests, config);
  EXPECT_EQ(counted.attack_calls(), n - 2);
  ExpectSameResults(resumed, uninterrupted);
  // Still v2: resume-in-place never rewrites a CRC-capable journal.
  EXPECT_EQ(ReadFileOrDie(path).compare(0, 13, "geajournal v2"), 0);
  std::remove(path.c_str());
}

TEST(JournalTest, MigrationInterruptedMidRewriteIsAtomic) {
  // The v1 -> v3 migration rewrites into `<path>.rewrite.tmp` and
  // rename(2)s it over the journal.  A kill at ANY point therefore leaves
  // one of exactly two states — the intact v1 file (plus a stale tmp the
  // next migration truncates) before the rename, or the complete v3 file
  // after it — never a half-rewritten hybrid.  This test pins both sides
  // of the rename.
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 4u);
  const std::string path = testing::TempDir() + "geattack_mid_rewrite.txt";
  const std::string tmp = path + ".rewrite.tmp";
  std::remove(path.c_str());
  std::remove(tmp.c_str());
  const FgaAttack attack(/*targeted=*/true);

  AttackDriverConfig config;
  config.base_seed = 86;
  config.num_threads = 1;
  config.journal_path = path;
  const std::vector<AttackResult> uninterrupted =
      RunMultiTargetAttack(f->ctx, attack, f->requests, config);
  const std::string v3_text = ReadFileOrDie(path);
  const std::string v1_text = DowngradeToV1(v3_text, 2);

  // --- Killed BEFORE the rename: intact v1 + a half-written tmp. ---
  WriteFileOrDie(path, v1_text);
  WriteFileOrDie(tmp, v3_text.substr(0, v3_text.size() / 2));

  const int64_t n = static_cast<int64_t>(f->requests.size());
  // The journal itself is untouched by the crashed migration: it still
  // loads as a healthy two-record v1 file (the loader never looks at tmp).
  const JournalLoadResult before = LoadAttackJournal(path, 86, n);
  EXPECT_TRUE(before.header_ok);
  EXPECT_TRUE(before.legacy);
  EXPECT_TRUE(before.status.ok()) << before.status.ToString();
  EXPECT_EQ(before.records.size(), 2u);

  // Resume: the retried migration truncates the stale tmp, completes the
  // rename, and the run converges byte-identically.
  FaultInjectingAttack counted(&attack);
  const std::vector<AttackResult> resumed =
      RunMultiTargetAttack(f->ctx, counted, f->requests, config);
  EXPECT_EQ(counted.attack_calls(), n - 2);
  ExpectSameResults(resumed, uninterrupted);
  EXPECT_EQ(ReadFileOrDie(path).compare(0, 13, "geajournal v3"), 0);
  // The rename consumed the tmp file.
  EXPECT_FALSE(std::ifstream(tmp).good());

  // --- Killed AFTER the rename (before any post-migration append): the
  // journal is a complete v3 file holding the migrated records. ---
  size_t cut = 0;
  for (int record = 0; record < 2; ++record) {
    cut = v3_text.find(" ;\n", cut);
    ASSERT_NE(cut, std::string::npos);
    cut += 3;
  }
  WriteFileOrDie(path, v3_text.substr(0, cut));
  const JournalLoadResult after = LoadAttackJournal(path, 86, n);
  EXPECT_TRUE(after.header_ok);
  EXPECT_FALSE(after.legacy);
  EXPECT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_EQ(after.records.size(), 2u);

  FaultInjectingAttack counted_after(&attack);
  const std::vector<AttackResult> resumed_after =
      RunMultiTargetAttack(f->ctx, counted_after, f->requests, config);
  EXPECT_EQ(counted_after.attack_calls(), n - 2);
  ExpectSameResults(resumed_after, uninterrupted);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// EvaluateAttack aggregation.
// ---------------------------------------------------------------------------

TEST(EvaluateAttackFaultTest, AggregatesOnlyOkTargets) {
  Fixture* f = SharedFixture();
  ASSERT_GE(f->targets.size(), 3u);
  GnnExplainerConfig icfg;
  icfg.epochs = 5;
  GnnExplainer inspector(f->model.get(), &f->data.features, icfg);
  const FgaAttack inner(/*targeted=*/true);

  const size_t poisoned = f->targets.size() / 2;
  std::vector<PreparedTarget> survivors = f->targets;
  survivors.erase(survivors.begin() + static_cast<std::ptrdiff_t>(poisoned));

  FaultInjectingAttack faulty(&inner);
  faulty.InjectAt(f->targets[poisoned].node, {FaultKind::kThrow, 0.0});

  // attack_threads 0 (legacy serial loop) and 2 (driver) must both isolate
  // the poisoned target and aggregate only the survivors.  FGA-T draws
  // nothing from the RNG, so the survivors-only reference run is the exact
  // expected aggregate.
  for (int threads : {0, 2}) {
    EvalConfig cfg;
    cfg.attack_threads = threads;
    Rng r1(42), r2(42);
    const JointAttackOutcome expected = EvaluateAttack(
        f->ctx, inner, survivors, inspector, cfg, &r1);
    const JointAttackOutcome got = EvaluateAttack(
        f->ctx, faulty, f->targets, inspector, cfg, &r2);
    EXPECT_EQ(got.num_failed, 1) << "threads=" << threads;
    EXPECT_EQ(got.num_timed_out, 0) << "threads=" << threads;
    EXPECT_EQ(got.num_skipped, 0) << "threads=" << threads;
    EXPECT_EQ(got.num_targets, expected.num_targets) << "threads=" << threads;
    EXPECT_EQ(got.asr, expected.asr) << "threads=" << threads;
    EXPECT_EQ(got.asr_t, expected.asr_t) << "threads=" << threads;
    EXPECT_EQ(got.detection.precision, expected.detection.precision);
    EXPECT_EQ(got.detection.recall, expected.detection.recall);
    EXPECT_EQ(got.detection.f1, expected.detection.f1);
    EXPECT_EQ(got.detection.ndcg, expected.detection.ndcg);
  }
}

// ---------------------------------------------------------------------------
// Malformed-file corpus: structured load errors, never trust-the-bytes.
// ---------------------------------------------------------------------------

std::string CorpusPath(const std::string& name) {
  return std::string(GEATTACK_SOURCE_DIR) + "/tests/io_corpus/" + name;
}

TEST(IoCorpusTest, GoodFixtureLoads) {
  GraphData data;
  const Status s = LoadGraphDataFromFile(CorpusPath("good_minimal.txt"), &data);
  ASSERT_TRUE(s) << s.ToString();
  EXPECT_EQ(data.num_nodes(), 3);
  EXPECT_EQ(data.graph.num_edges(), 2);
  EXPECT_EQ(data.num_classes, 2);
  EXPECT_EQ(data.features.at(2, 0), 0.5);
}

TEST(IoCorpusTest, MalformedFixturesFailWithDataLoss) {
  const std::vector<std::string> corpus = {
      "empty.txt",
      "bad_magic.txt",
      "truncated_header.txt",
      "bad_counts.txt",
      "truncated_labels.txt",
      "label_out_of_range.txt",
      "edge_out_of_range.txt",
      "self_loop.txt",
      "duplicate_edge.txt",
      "feature_out_of_range.txt",
      "nonfinite_feature.txt",
      "unknown_token.txt",
      "missing_end.txt",
      "edge_count_mismatch.txt",
  };
  for (const std::string& name : corpus) {
    GraphData data;
    const Status s = LoadGraphDataFromFile(CorpusPath(name), &data);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss)
        << name << ": " << s.ToString();
    EXPECT_FALSE(s.message().empty()) << name;
  }
}

TEST(IoCorpusTest, MissingFileIsAnError) {
  GraphData data;
  const Status s =
      LoadGraphDataFromFile(CorpusPath("does_not_exist.txt"), &data);
  EXPECT_EQ(s.code(), StatusCode::kError);
  EXPECT_NE(s.message().find("cannot open"), std::string::npos)
      << s.ToString();
}

}  // namespace
}  // namespace geattack
