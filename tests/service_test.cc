// Attack-service tests: admission control over the bounded queue, structured
// rejections, retry/backoff on distinct documented seed streams, priority
// shedding and budget degradation under overload, cancellation, and the
// open-loop fault soak — all pinned to the bit-identity contract: every
// completed request's picks must equal an offline RunMultiTargetAttack
// replay (admission-order reference for first attempts, recorded seed and
// effective budget for retried/degraded ones), at any thread count, queue
// bound and wave packing.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/attack/driver.h"
#include "src/attack/fault_injection.h"
#include "src/attack/fga.h"
#include "src/eval/pipeline.h"
#include "src/eval/protocol.h"
#include "src/explain/gnn_explainer.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/nn/trainer.h"
#include "src/service/attack_service.h"

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
        {.top_margin = 4, .bottom_margin = 4, .random = 4}, &rng);
    f->targets = PrepareTargets(f->ctx, nodes, &rng);
    for (const PreparedTarget& t : f->targets)
      f->requests.push_back(
          {t.node, t.target_label, std::min<int64_t>(t.budget, 2)});
    return f;
  }();
  return fixture;
}

/// Non-owning shared_ptr over a test-scoped attack (every test body keeps
/// its attack alive past the service, so the service need not own it).
std::shared_ptr<const TargetedAttack> NoOwn(const TargetedAttack* attack) {
  return std::shared_ptr<const TargetedAttack>(
      std::shared_ptr<const TargetedAttack>(), attack);
}

void ExpectSameEdges(const AttackResult& got, const AttackResult& want,
                     const std::string& where) {
  ASSERT_EQ(got.added_edges.size(), want.added_edges.size()) << where;
  for (size_t e = 0; e < want.added_edges.size(); ++e)
    EXPECT_EQ(got.added_edges[e], want.added_edges[e]) << where << " edge "
                                                       << e;
}

/// The offline reference for service completions: the plain driver over the
/// accepted requests in admission order with the service's base seed.
std::vector<AttackResult> OfflineReference(
    const AttackContext& ctx, const TargetedAttack& attack,
    const std::vector<AttackRequest>& requests, uint64_t base_seed,
    int threads) {
  AttackDriverConfig cfg;
  cfg.base_seed = base_seed;
  cfg.num_threads = threads;
  return RunMultiTargetAttack(ctx, attack, requests, cfg);
}

/// Replays one completed ServiceResult offline from its recorded seed and
/// effective budget — the documented reconciliation path for retried and
/// degraded completions.
AttackResult ReplayOne(const AttackContext& ctx, const TargetedAttack& attack,
                       int64_t target_node, int64_t target_label,
                       const ServiceResult& r) {
  AttackRequest request;
  request.target_node = target_node;
  request.target_label = target_label;
  request.budget = r.effective_budget;
  AttackDriverConfig cfg;
  cfg.request_seeds = {r.seed};
  const std::vector<AttackResult> out =
      RunMultiTargetAttack(ctx, attack, {request}, cfg);
  EXPECT_EQ(out.size(), 1u);
  return out.empty() ? AttackResult{} : out[0];
}

/// Blocks until the dispatcher has picked up the parked slow wave (queue
/// empty, wave in flight) so subsequent submissions pile up in the bounded
/// queue deterministically.
void WaitUntilWaveInFlight(const AttackService& service) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const ServiceStats st = service.stats();
    if (st.in_flight > 0 && st.queue_depth == 0) return;
    if (std::chrono::steady_clock::now() > give_up) {
      ADD_FAILURE() << "dispatcher never picked up the parked wave";
      return;
    }
    std::this_thread::yield();
  }
}

/// Fails (throws) only the FIRST Attack() call that reaches the configured
/// node, then delegates untouched — the transient-fault model for
/// retry-to-success tests.  State is shared and mutex-guarded because the
/// const Attack override can run concurrently on driver workers.
class FlakyAttack : public TargetedAttack {
 public:
  FlakyAttack(const TargetedAttack* inner, int64_t flaky_node)
      : inner_(inner),
        flaky_node_(flaky_node),
        state_(std::make_shared<State>()) {}

  std::string name() const override { return "flaky(" + inner_->name() + ")"; }

  AttackResult Attack(const AttackContext& ctx, const AttackRequest& request,
                      Rng* rng) const override {
    if (request.target_node == flaky_node_) {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (!state_->fired) {
        state_->fired = true;
        throw std::runtime_error("flaky: transient fault on first call");
      }
    }
    return inner_->Attack(ctx, request, rng);
  }

 private:
  struct State {
    std::mutex mu;
    bool fired = false;
  };
  const TargetedAttack* inner_;
  int64_t flaky_node_;
  std::shared_ptr<State> state_;
};

/// Holds the first Attack() call on `node` until Release(), then fails it
/// (throws); later calls on that node fail at once, and other nodes
/// delegate untouched.  WaitEntered() returns once the held call has
/// started, so a test can fill the queue behind an in-flight wave with no
/// sleep and no clock.
class LatchedFailure : public TargetedAttack {
 public:
  LatchedFailure(const TargetedAttack* inner, int64_t node)
      : inner_(inner), node_(node), state_(std::make_shared<State>()) {}

  std::string name() const override {
    return "latched(" + inner_->name() + ")";
  }

  AttackResult Attack(const AttackContext& ctx, const AttackRequest& request,
                      Rng* rng) const override {
    if (request.target_node != node_) return inner_->Attack(ctx, request, rng);
    if (!state_->held.exchange(true)) {
      state_->entered.count_down();
      state_->release.wait();
    }
    throw std::runtime_error("latched: failure after release");
  }

  void WaitEntered() const { state_->entered.wait(); }
  void Release() const { state_->release.count_down(); }

 private:
  struct State {
    std::atomic<bool> held{false};
    std::latch entered{1};
    std::latch release{1};
  };
  const TargetedAttack* inner_;
  int64_t node_;
  std::shared_ptr<State> state_;
};

// ---------------------------------------------------------------------------
// The per-attempt seed stream.
// ---------------------------------------------------------------------------

TEST(AttemptSeedTest, FirstAttemptMatchesOfflineStreamAndRetriesDiverge) {
  // Attempt 0 IS the offline driver's stream for the same position — that
  // equality is what makes un-retried service completions bit-identical to
  // RunMultiTargetAttack for free.
  for (uint64_t base : {uint64_t{0}, uint64_t{21}, uint64_t{0xDEADBEEF}})
    for (int64_t k : {int64_t{0}, int64_t{1}, int64_t{977}})
      EXPECT_EQ(AttemptSeed(base, k, 0), TargetSeed(base, k));

  // Retries land in the documented derived stream.
  EXPECT_EQ(AttemptSeed(33, 5, 2), TargetSeed(TargetSeed(33, 5), 2));

  // Spot-check disjointness across (index, attempt): 16 indices x 4
  // attempts under one base must give 64 distinct seeds.
  std::vector<uint64_t> seeds;
  for (int64_t k = 0; k < 16; ++k)
    for (int attempt = 0; attempt < 4; ++attempt)
      seeds.push_back(AttemptSeed(417, k, attempt));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

// ---------------------------------------------------------------------------
// Determinism: service == offline driver at any knob setting.
// ---------------------------------------------------------------------------

TEST(ServiceDeterminismTest, FirstAttemptPicksMatchOfflineDriverEverywhere) {
  Fixture* f = SharedFixture();
  const size_t n = f->requests.size();
  ASSERT_GE(n, 3u);
  const FgaAttack inner(/*targeted=*/true);
  const uint64_t kBase = 417;
  const std::vector<AttackResult> reference =
      OfflineReference(f->ctx, inner, f->requests, kBase, /*threads=*/2);
  for (const AttackResult& r : reference) ASSERT_TRUE(r.status.ok());

  for (int threads : {1, 2, 4}) {
    for (int64_t wave : {int64_t{1}, int64_t{3}, int64_t{8}}) {
      AttackServiceConfig cfg;
      cfg.base_seed = kBase;
      cfg.num_threads = threads;
      cfg.wave_size = wave;
      cfg.queue_capacity = 64;
      AttackService service(cfg);
      ASSERT_TRUE(service.RegisterGraph("g", f->data, *f->model,
                                        NoOwn(&inner)).ok());

      std::vector<int64_t> tickets;
      for (size_t i = 0; i < n; ++i) {
        AttackServiceRequest req;
        req.graph = "g";
        req.target_node = f->requests[i].target_node;
        req.target_label = f->requests[i].target_label;
        req.budget = f->requests[i].budget;
        const Admission a = service.Submit(req);
        ASSERT_TRUE(a.status.ok()) << a.status.ToString();
        tickets.push_back(a.ticket);
      }
      service.Drain();

      const std::string knobs = "threads=" + std::to_string(threads) +
                                " wave=" + std::to_string(wave);
      for (size_t i = 0; i < n; ++i) {
        const ServiceResult r = service.Take(tickets[i]);
        const std::string where = knobs + " target " + std::to_string(i);
        EXPECT_TRUE(r.result.status.ok())
            << where << ": " << r.result.status.ToString();
        EXPECT_EQ(r.accepted_index, static_cast<int64_t>(i)) << where;
        EXPECT_EQ(r.attempts, 1) << where;
        EXPECT_EQ(r.seed, TargetSeed(kBase, static_cast<int64_t>(i))) << where;
        EXPECT_EQ(r.effective_budget, f->requests[i].budget) << where;
        EXPECT_GE(r.latency_ms, 0.0) << where;
        ExpectSameEdges(r.result, reference[i], where);
      }
      const ServiceStats st = service.stats();
      EXPECT_EQ(st.accepted, static_cast<int64_t>(n)) << knobs;
      EXPECT_EQ(st.completed_ok, static_cast<int64_t>(n)) << knobs;
      EXPECT_EQ(st.retried, 0) << knobs;
      EXPECT_EQ(st.shed, 0) << knobs;
    }
  }
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

TEST(ServiceAdmissionTest, StructuredRejectionsAndUnknownTickets) {
  Fixture* f = SharedFixture();
  const FgaAttack inner(/*targeted=*/true);
  AttackServiceConfig cfg;
  cfg.base_seed = 5;
  cfg.min_feasible_deadline_ms = 50.0;
  AttackService service(cfg);

  // Registration validation.
  EXPECT_EQ(service.RegisterGraph("", f->data, *f->model, NoOwn(&inner)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.RegisterGraph("g", f->data, *f->model, nullptr).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(service.RegisterGraph("g", f->data, *f->model,
                                    NoOwn(&inner)).ok());
  EXPECT_EQ(
      service.RegisterGraph("g", f->data, *f->model, NoOwn(&inner)).code(),
      StatusCode::kInvalidArgument);  // Versions are immutable.

  AttackServiceRequest base;
  base.graph = "g";
  base.target_node = f->requests[0].target_node;
  base.target_label = f->requests[0].target_label;
  base.budget = f->requests[0].budget;

  AttackServiceRequest ghost = base;
  ghost.graph = "ghost";
  const Admission not_found = service.Submit(ghost);
  EXPECT_EQ(not_found.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(not_found.ticket, -1);

  AttackServiceRequest bad_node = base;
  bad_node.target_node = f->data.num_nodes() + 7;
  EXPECT_EQ(service.Submit(bad_node).status.code(),
            StatusCode::kInvalidArgument);
  bad_node.target_node = -1;
  EXPECT_EQ(service.Submit(bad_node).status.code(),
            StatusCode::kInvalidArgument);

  AttackServiceRequest bad_budget = base;
  bad_budget.budget = -3;
  EXPECT_EQ(service.Submit(bad_budget).status.code(),
            StatusCode::kInvalidArgument);

  AttackServiceRequest bad_label = base;
  bad_label.target_label = -5;
  EXPECT_EQ(service.Submit(bad_label).status.code(),
            StatusCode::kInvalidArgument);
  // One past the last class: the driver would reject it, so admission
  // does too instead of spending a ticket and an accepted_index on it.
  bad_label.target_label = f->data.num_classes;
  const Admission past_classes = service.Submit(bad_label);
  EXPECT_EQ(past_classes.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(past_classes.ticket, -1);

  // Deadlines that cannot be armed on the steady clock: NaN, +inf, and a
  // finite offset past the clock's range.
  for (const double ms : {std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(), 1e13}) {
    AttackServiceRequest bad_deadline = base;
    bad_deadline.deadline_ms = ms;
    const Admission rejected = service.Submit(bad_deadline);
    EXPECT_EQ(rejected.status.code(), StatusCode::kInvalidArgument) << ms;
    EXPECT_EQ(rejected.ticket, -1) << ms;
  }

  // A deadline below the feasibility floor is rejected up front, with the
  // overload code — it could never finish, so queueing it would only steal
  // a slot.
  AttackServiceRequest infeasible = base;
  infeasible.deadline_ms = 10.0;
  EXPECT_EQ(service.Submit(infeasible).status.code(),
            StatusCode::kResourceExhausted);

  // A generous deadline passes the floor.
  AttackServiceRequest feasible = base;
  feasible.deadline_ms = 5000.0;
  const Admission ok = service.Submit(feasible);
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();

  const ServiceStats st = service.stats();
  EXPECT_EQ(st.submitted, 11);
  EXPECT_EQ(st.accepted, 1);
  EXPECT_EQ(st.rejected_invalid, 9);  // kNotFound + 8 validation rejects.
  EXPECT_EQ(st.rejected_infeasible, 1);

  // Rejections issue no ticket, and unknown tickets are structured too.
  EXPECT_EQ(service.Take(-1).result.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Take(9999).result.status.code(), StatusCode::kNotFound);

  service.Drain();
  const ServiceResult taken = service.Take(ok.ticket);
  EXPECT_TRUE(taken.result.status.ok()) << taken.result.status.ToString();
  // No rejection consumed an accepted_index (the rng stream key).
  EXPECT_EQ(taken.accepted_index, 0);
  // A ticket is consumable exactly once.
  EXPECT_EQ(service.Take(ok.ticket).result.status.code(),
            StatusCode::kNotFound);
}

TEST(ServiceAdmissionTest, BoundedQueueRejectsAtCapacityAndRecovers) {
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 4u);
  const FgaAttack inner(/*targeted=*/true);
  FaultInjectingAttack faulty(&inner);
  faulty.InjectAt(f->requests[0].target_node, {FaultKind::kDelay, 150.0});

  const uint64_t kBase = 63;
  AttackServiceConfig cfg;
  cfg.base_seed = kBase;
  cfg.queue_capacity = 2;
  cfg.wave_size = 1;
  AttackService service(cfg);
  ASSERT_TRUE(service.RegisterGraph("g", f->data, *f->model,
                                    NoOwn(&faulty)).ok());

  auto submit = [&](size_t i) {
    AttackServiceRequest req;
    req.graph = "g";
    req.target_node = f->requests[i].target_node;
    req.target_label = f->requests[i].target_label;
    req.budget = f->requests[i].budget;
    return service.Submit(req);
  };

  // Park the dispatcher on the slow target, then fill the queue.
  const Admission slow = submit(0);
  ASSERT_TRUE(slow.status.ok());
  WaitUntilWaveInFlight(service);
  const Admission a = submit(1);
  const Admission b = submit(2);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  const Admission overflow = submit(3);
  EXPECT_EQ(overflow.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(overflow.ticket, -1);
  EXPECT_EQ(service.stats().rejected_queue_full, 1);

  // After the queue drains the service admits again — rejection is
  // backpressure, not a terminal state.
  service.Drain();
  const Admission again = submit(3);
  ASSERT_TRUE(again.status.ok()) << again.status.ToString();
  service.Drain();

  // Everything accepted matches the offline driver over the accepted
  // sequence (the rejected submission never consumed a stream, so the
  // re-submission simply took the next accepted index).
  const std::vector<AttackRequest> accepted = {
      f->requests[0], f->requests[1], f->requests[2], f->requests[3]};
  const std::vector<AttackResult> reference =
      OfflineReference(f->ctx, inner, accepted, kBase, /*threads=*/1);
  const std::vector<int64_t> tickets = {slow.ticket, a.ticket, b.ticket,
                                        again.ticket};
  for (size_t i = 0; i < tickets.size(); ++i) {
    const ServiceResult r = service.Take(tickets[i]);
    const std::string where = "accepted " + std::to_string(i);
    EXPECT_TRUE(r.result.status.ok())
        << where << ": " << r.result.status.ToString();
    EXPECT_EQ(r.accepted_index, static_cast<int64_t>(i)) << where;
    ExpectSameEdges(r.result, reference[i], where);
  }
}

// ---------------------------------------------------------------------------
// Cancellation.
// ---------------------------------------------------------------------------

TEST(ServiceCancelTest, QueuedCancellationSkipsWithoutConsumingStream) {
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 3u);
  const FgaAttack inner(/*targeted=*/true);
  FaultInjectingAttack faulty(&inner);
  faulty.InjectAt(f->requests[0].target_node, {FaultKind::kDelay, 150.0});

  const uint64_t kBase = 77;
  AttackServiceConfig cfg;
  cfg.base_seed = kBase;
  cfg.queue_capacity = 8;
  cfg.wave_size = 1;
  AttackService service(cfg);
  ASSERT_TRUE(service.RegisterGraph("g", f->data, *f->model,
                                    NoOwn(&faulty)).ok());

  auto submit = [&](size_t i) {
    AttackServiceRequest req;
    req.graph = "g";
    req.target_node = f->requests[i].target_node;
    req.target_label = f->requests[i].target_label;
    req.budget = f->requests[i].budget;
    return service.Submit(req);
  };

  const Admission slow = submit(0);
  ASSERT_TRUE(slow.status.ok());
  WaitUntilWaveInFlight(service);
  const Admission doomed = submit(1);
  const Admission survivor = submit(2);
  ASSERT_TRUE(doomed.status.ok());
  ASSERT_TRUE(survivor.status.ok());
  service.Cancel(doomed.ticket);
  service.Drain();

  // The cancelled-in-queue request skipped without consuming a single draw:
  // its neighbor still matches the offline reference at its OWN accepted
  // position, which would be impossible if streams shifted.
  const std::vector<AttackRequest> accepted = {f->requests[0], f->requests[1],
                                               f->requests[2]};
  const std::vector<AttackResult> reference =
      OfflineReference(f->ctx, inner, accepted, kBase, /*threads=*/1);

  const ServiceResult skipped = service.Take(doomed.ticket);
  EXPECT_EQ(skipped.result.status.code(), StatusCode::kSkipped)
      << skipped.result.status.ToString();
  EXPECT_EQ(skipped.attempts, 0);
  EXPECT_TRUE(skipped.result.added_edges.empty());

  const ServiceResult kept = service.Take(survivor.ticket);
  EXPECT_TRUE(kept.result.status.ok()) << kept.result.status.ToString();
  EXPECT_EQ(kept.attempts, 1);
  ExpectSameEdges(kept.result, reference[2], "survivor");

  const ServiceResult first = service.Take(slow.ticket);
  EXPECT_TRUE(first.result.status.ok()) << first.result.status.ToString();
  ExpectSameEdges(first.result, reference[0], "slow");

  EXPECT_EQ(service.stats().skipped, 1);
}

// ---------------------------------------------------------------------------
// Retry with backoff.
// ---------------------------------------------------------------------------

TEST(ServiceRetryTest, DeterministicFaultExhaustsAttemptsWithDistinctStreams) {
  Fixture* f = SharedFixture();
  const size_t n = f->requests.size();
  ASSERT_GE(n, 3u);
  const size_t poisoned = 2;
  const FgaAttack inner(/*targeted=*/true);
  FaultInjectingAttack faulty(&inner);
  faulty.InjectAt(f->requests[poisoned].target_node, {FaultKind::kThrow, 0.0});

  const uint64_t kBase = 518;
  AttackServiceConfig cfg;
  cfg.base_seed = kBase;
  cfg.queue_capacity = 64;
  cfg.wave_size = 4;
  cfg.max_attempts = 3;
  cfg.retry_backoff_ms = 0.1;
  AttackService service(cfg);
  ASSERT_TRUE(service.RegisterGraph("g", f->data, *f->model,
                                    NoOwn(&faulty)).ok());

  std::vector<int64_t> tickets;
  for (size_t i = 0; i < n; ++i) {
    AttackServiceRequest req;
    req.graph = "g";
    req.target_node = f->requests[i].target_node;
    req.target_label = f->requests[i].target_label;
    req.budget = f->requests[i].budget;
    const Admission a = service.Submit(req);
    ASSERT_TRUE(a.status.ok());
    tickets.push_back(a.ticket);
  }
  service.Drain();

  const std::vector<AttackResult> reference =
      OfflineReference(f->ctx, inner, f->requests, kBase, /*threads=*/2);
  for (size_t i = 0; i < n; ++i) {
    const ServiceResult r = service.Take(tickets[i]);
    const std::string where = "target " + std::to_string(i);
    if (i == poisoned) {
      // The fault is deterministic, so every attempt failed — but each
      // attempt drew from its own stream (a retry that replayed attempt
      // 0's draws would be guaranteed to reproduce a *seed-dependent*
      // failure, defeating the point of retrying).
      EXPECT_EQ(r.result.status.code(), StatusCode::kError) << where;
      EXPECT_EQ(r.attempts, 3) << where;
      EXPECT_EQ(r.seed, AttemptSeed(kBase, static_cast<int64_t>(i), 2))
          << where;
      EXPECT_NE(AttemptSeed(kBase, static_cast<int64_t>(i), 1),
                TargetSeed(kBase, static_cast<int64_t>(i)));
    } else {
      EXPECT_TRUE(r.result.status.ok())
          << where << ": " << r.result.status.ToString();
      EXPECT_EQ(r.attempts, 1) << where;
      ExpectSameEdges(r.result, reference[i], where);
    }
  }
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.retried, 2);
  EXPECT_EQ(st.failed, 1);
  EXPECT_EQ(st.completed_ok, static_cast<int64_t>(n) - 1);
}

TEST(ServiceRetryTest, TransientFaultRetriesToSuccessAndReplaysOffline) {
  Fixture* f = SharedFixture();
  const size_t n = f->requests.size();
  ASSERT_GE(n, 3u);
  const size_t flaky_pos = 1;
  const FgaAttack inner(/*targeted=*/true);
  const FlakyAttack flaky(&inner, f->requests[flaky_pos].target_node);

  const uint64_t kBase = 2027;
  AttackServiceConfig cfg;
  cfg.base_seed = kBase;
  cfg.queue_capacity = 64;
  cfg.wave_size = 4;
  cfg.max_attempts = 2;
  cfg.retry_backoff_ms = 0.1;
  AttackService service(cfg);
  ASSERT_TRUE(service.RegisterGraph("g", f->data, *f->model,
                                    NoOwn(&flaky)).ok());

  std::vector<int64_t> tickets;
  for (size_t i = 0; i < n; ++i) {
    AttackServiceRequest req;
    req.graph = "g";
    req.target_node = f->requests[i].target_node;
    req.target_label = f->requests[i].target_label;
    req.budget = f->requests[i].budget;
    const Admission a = service.Submit(req);
    ASSERT_TRUE(a.status.ok());
    tickets.push_back(a.ticket);
  }
  service.Drain();

  const std::vector<AttackResult> reference =
      OfflineReference(f->ctx, inner, f->requests, kBase, /*threads=*/2);
  for (size_t i = 0; i < n; ++i) {
    const ServiceResult r = service.Take(tickets[i]);
    const std::string where = "target " + std::to_string(i);
    EXPECT_TRUE(r.result.status.ok())
        << where << ": " << r.result.status.ToString();
    if (i == flaky_pos) {
      // One transient failure, then success on the documented retry
      // stream; the recorded seed replays to the exact same picks offline.
      EXPECT_EQ(r.attempts, 2) << where;
      EXPECT_EQ(r.seed, AttemptSeed(kBase, static_cast<int64_t>(i), 1))
          << where;
      const AttackResult replay =
          ReplayOne(f->ctx, inner, f->requests[i].target_node,
                    f->requests[i].target_label, r);
      ASSERT_TRUE(replay.status.ok()) << replay.status.ToString();
      ExpectSameEdges(r.result, replay, where + " replay");
    } else {
      EXPECT_EQ(r.attempts, 1) << where;
      ExpectSameEdges(r.result, reference[i], where);
    }
  }
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.retried, 1);
  EXPECT_EQ(st.failed, 0);
  EXPECT_EQ(st.completed_ok, static_cast<int64_t>(n));
}

TEST(ServiceRetryTest, RetryThatFindsQueueFullIsFinalizedWithItsFailure) {
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 3u);
  const FgaAttack inner(/*targeted=*/true);
  const LatchedFailure latched(&inner, f->requests[0].target_node);

  const uint64_t kBase = 71;
  AttackServiceConfig cfg;
  cfg.base_seed = kBase;
  cfg.queue_capacity = 2;
  cfg.wave_size = 1;
  cfg.max_attempts = 3;
  AttackService service(cfg);
  ASSERT_TRUE(service.RegisterGraph("g", f->data, *f->model,
                                    NoOwn(&latched)).ok());
  auto submit = [&](size_t i) {
    AttackServiceRequest req;
    req.graph = "g";
    req.target_node = f->requests[i].target_node;
    req.target_label = f->requests[i].target_label;
    req.budget = f->requests[i].budget;
    return service.Submit(req);
  };

  // Request 0's wave is held in flight while two more fill the queue.
  const Admission held = submit(0);
  ASSERT_TRUE(held.status.ok());
  latched.WaitEntered();
  const Admission a = submit(1);
  const Admission b = submit(2);
  EXPECT_TRUE(a.status.ok());
  EXPECT_TRUE(b.status.ok());
  EXPECT_EQ(service.stats().queue_depth, cfg.queue_capacity);

  // The held attempt fails with the queue full: its retry has no slot, so
  // the request is finalized with that attempt's failure.  (No ASSERT
  // before this point: an early return would leave the wave held.)
  latched.Release();
  service.Drain();
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.retries_refused, 1);
  EXPECT_EQ(st.retried, 0);
  EXPECT_LE(st.max_queue_depth, cfg.queue_capacity);
  EXPECT_EQ(st.failed, 1);
  EXPECT_EQ(st.completed_ok, 2);

  const ServiceResult r = service.Take(held.ticket);
  EXPECT_EQ(r.result.status.code(), StatusCode::kError);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.seed, AttemptSeed(kBase, 0, 0));
  EXPECT_TRUE(r.result.added_edges.empty());

  // The queued requests are untouched by the refusal.
  const std::vector<AttackResult> reference = OfflineReference(
      f->ctx, inner, {f->requests[0], f->requests[1], f->requests[2]}, kBase,
      /*threads=*/1);
  const std::vector<int64_t> tickets = {a.ticket, b.ticket};
  for (size_t i = 0; i < tickets.size(); ++i) {
    const ServiceResult done = service.Take(tickets[i]);
    const std::string where = "queued " + std::to_string(i);
    EXPECT_TRUE(done.result.status.ok())
        << where << ": " << done.result.status.ToString();
    ExpectSameEdges(done.result, reference[i + 1], where);
  }
}

// ---------------------------------------------------------------------------
// Overload: shedding and degradation.
// ---------------------------------------------------------------------------

TEST(ServiceOverloadTest, ShedsLowestPriorityFirstSurvivorsIdentical) {
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 5u);
  const FgaAttack inner(/*targeted=*/true);
  FaultInjectingAttack faulty(&inner);
  faulty.InjectAt(f->requests[0].target_node, {FaultKind::kDelay, 150.0});

  const uint64_t kBase = 903;
  AttackServiceConfig cfg;
  cfg.base_seed = kBase;
  cfg.queue_capacity = 16;
  cfg.wave_size = 4;
  cfg.shed_watermark = 4;
  AttackService service(cfg);
  ASSERT_TRUE(service.RegisterGraph("g", f->data, *f->model,
                                    NoOwn(&faulty)).ok());

  AttackServiceRequest slow_req;
  slow_req.graph = "g";
  slow_req.target_node = f->requests[0].target_node;
  slow_req.target_label = f->requests[0].target_label;
  slow_req.budget = f->requests[0].budget;
  const Admission slow = service.Submit(slow_req);
  ASSERT_TRUE(slow.status.ok());
  WaitUntilWaveInFlight(service);

  // Six requests pile up behind the parked wave: two marked low priority
  // (shed first), four normal.  Watermark 4 means exactly two get shed.
  std::vector<int64_t> tickets;
  std::vector<AttackRequest> accepted = {f->requests[0]};
  for (int j = 0; j < 6; ++j) {
    const size_t pick =
        1 + static_cast<size_t>(j) % (f->requests.size() - 1);
    AttackServiceRequest req;
    req.graph = "g";
    req.target_node = f->requests[pick].target_node;
    req.target_label = f->requests[pick].target_label;
    req.budget = f->requests[pick].budget;
    req.priority = j < 2 ? -1 : 0;
    const Admission a = service.Submit(req);
    ASSERT_TRUE(a.status.ok());
    tickets.push_back(a.ticket);
    accepted.push_back({req.target_node, req.target_label, req.budget});
  }
  service.Drain();

  const std::vector<AttackResult> reference =
      OfflineReference(f->ctx, inner, accepted, kBase, /*threads=*/1);
  for (int j = 0; j < 6; ++j) {
    const ServiceResult r = service.Take(tickets[static_cast<size_t>(j)]);
    const std::string where = "queued " + std::to_string(j);
    if (j < 2) {
      // Shed — structured, never silently dropped, no stream consumed.
      EXPECT_EQ(r.result.status.code(), StatusCode::kResourceExhausted)
          << where << ": " << r.result.status.ToString();
      EXPECT_EQ(r.attempts, 0) << where;
      EXPECT_TRUE(r.result.added_edges.empty()) << where;
    } else {
      EXPECT_TRUE(r.result.status.ok())
          << where << ": " << r.result.status.ToString();
      // Survivors keep their own accepted-index streams: identical to the
      // offline reference that still includes the shed positions.
      ExpectSameEdges(r.result, reference[static_cast<size_t>(j) + 1], where);
    }
  }
  const ServiceResult first = service.Take(slow.ticket);
  EXPECT_TRUE(first.result.status.ok());
  ExpectSameEdges(first.result, reference[0], "slow");

  const ServiceStats st = service.stats();
  EXPECT_EQ(st.shed, 2);
  EXPECT_EQ(st.completed_ok, 5);
}

TEST(ServiceOverloadTest, DegradedWavesCapBudgetAndReplayOffline) {
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 5u);
  const FgaAttack inner(/*targeted=*/true);
  FaultInjectingAttack faulty(&inner);
  faulty.InjectAt(f->requests[0].target_node, {FaultKind::kDelay, 150.0});

  const uint64_t kBase = 6401;
  AttackServiceConfig cfg;
  cfg.base_seed = kBase;
  cfg.queue_capacity = 16;
  cfg.wave_size = 2;
  cfg.degrade_watermark = 2;
  cfg.degraded_budget_cap = 1;
  AttackService service(cfg);
  ASSERT_TRUE(service.RegisterGraph("g", f->data, *f->model,
                                    NoOwn(&faulty)).ok());

  auto make_req = [&](size_t pick) {
    AttackServiceRequest req;
    req.graph = "g";
    req.target_node = f->requests[pick].target_node;
    req.target_label = f->requests[pick].target_label;
    req.budget = 2;  // Big enough for the degraded cap of 1 to bite.
    return req;
  };

  const Admission slow = service.Submit(make_req(0));
  ASSERT_TRUE(slow.status.ok());
  WaitUntilWaveInFlight(service);

  // Five requests queue up: two waves of two dispatch above the watermark
  // (degraded, budget capped to 1), the final singleton dispatches below it
  // (full budget).
  std::vector<int64_t> tickets;
  std::vector<size_t> picks;
  for (int j = 0; j < 5; ++j) {
    const size_t pick =
        1 + static_cast<size_t>(j) % (f->requests.size() - 1);
    const Admission a = service.Submit(make_req(pick));
    ASSERT_TRUE(a.status.ok());
    tickets.push_back(a.ticket);
    picks.push_back(pick);
  }
  service.Drain();

  int64_t capped = 0;
  for (size_t j = 0; j < tickets.size(); ++j) {
    const ServiceResult r = service.Take(tickets[j]);
    const std::string where = "queued " + std::to_string(j);
    ASSERT_TRUE(r.result.status.ok())
        << where << ": " << r.result.status.ToString();
    EXPECT_LE(static_cast<int64_t>(r.result.added_edges.size()),
              r.effective_budget)
        << where;
    if (r.effective_budget < 2) {
      EXPECT_EQ(r.effective_budget, 1) << where;
      ++capped;
    }
    // Degraded or not, the recorded (seed, effective budget) pair replays
    // offline to the exact same picks — degradation trades answer size,
    // never reproducibility.
    const AttackResult replay =
        ReplayOne(f->ctx, inner, f->requests[picks[j]].target_node,
                  f->requests[picks[j]].target_label, r);
    ASSERT_TRUE(replay.status.ok()) << replay.status.ToString();
    ExpectSameEdges(r.result, replay, where + " replay");
  }
  EXPECT_EQ(capped, 4);
  const ServiceResult first = service.Take(slow.ticket);
  EXPECT_TRUE(first.result.status.ok());
  EXPECT_EQ(first.effective_budget, 2);  // Dispatched below the watermark.
  EXPECT_EQ(service.stats().degraded_waves, 2);
}

// ---------------------------------------------------------------------------
// Lifecycle.
// ---------------------------------------------------------------------------

TEST(ServiceLifecycleTest, StopFinalizesQueuedAsStructuredRejection) {
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 3u);
  const FgaAttack inner(/*targeted=*/true);
  FaultInjectingAttack faulty(&inner);
  faulty.InjectAt(f->requests[0].target_node, {FaultKind::kDelay, 150.0});

  AttackServiceConfig cfg;
  cfg.base_seed = 11;
  cfg.queue_capacity = 8;
  cfg.wave_size = 1;
  AttackService service(cfg);
  ASSERT_TRUE(service.RegisterGraph("g", f->data, *f->model,
                                    NoOwn(&faulty)).ok());

  auto submit = [&](size_t i) {
    AttackServiceRequest req;
    req.graph = "g";
    req.target_node = f->requests[i].target_node;
    req.target_label = f->requests[i].target_label;
    req.budget = f->requests[i].budget;
    return service.Submit(req);
  };

  const Admission running = submit(0);
  ASSERT_TRUE(running.status.ok());
  WaitUntilWaveInFlight(service);
  const Admission q1 = submit(1);
  const Admission q2 = submit(2);
  ASSERT_TRUE(q1.status.ok());
  ASSERT_TRUE(q2.status.ok());
  service.Stop();

  // The in-flight wave completes normally; queued work is finalized with a
  // structured rejection so every Take() unblocks — nothing is dropped.
  EXPECT_TRUE(service.Take(running.ticket).result.status.ok());
  const ServiceResult r1 = service.Take(q1.ticket);
  const ServiceResult r2 = service.Take(q2.ticket);
  EXPECT_EQ(r1.result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r2.result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r1.attempts, 0);

  // Submissions after Stop are rejected, not queued into the void.
  EXPECT_EQ(submit(1).status.code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// The open-loop fault soak (the PR's headline robustness scenario).
// ---------------------------------------------------------------------------

TEST(ServiceSoakTest, OpenLoopFaultSoakLosesNothingAtAnyThreadCount) {
  Fixture* f = SharedFixture();
  const size_t num_targets = f->targets.size();
  ASSERT_GE(num_targets, 5u);
  const FgaAttack inner(/*targeted=*/true);
  const int64_t delay_node = f->requests[0].target_node;
  const int64_t flaky_node = f->requests[1].target_node;
  const int64_t throw_node = f->requests[2].target_node;
  const int64_t nan_node = f->requests[3].target_node;
  constexpr int kSubmissions = 40;

  for (int threads : {1, 2, 4}) {
    // Fresh fault chain per thread count (the flaky fault is one-shot).
    const FlakyAttack flaky(&inner, flaky_node);
    FaultInjectingAttack faulty(&flaky);
    faulty.InjectAt(delay_node, {FaultKind::kDelay, 20.0});
    faulty.InjectAt(throw_node, {FaultKind::kThrow, 0.0});
    faulty.InjectAt(nan_node, {FaultKind::kNaN, 0.0});

    const uint64_t base = 9000 + static_cast<uint64_t>(threads);
    AttackServiceConfig cfg;
    cfg.base_seed = base;
    cfg.num_threads = threads;
    cfg.queue_capacity = 6;
    cfg.wave_size = 4;
    cfg.max_attempts = 2;
    cfg.retry_backoff_ms = 0.2;
    AttackService service(cfg);
    ASSERT_TRUE(service.RegisterGraph("g", f->data, *f->model,
                                      NoOwn(&faulty)).ok());
    const std::string knobs = "threads=" + std::to_string(threads);

    // Open-loop submission: a fixed arrival schedule that does not wait for
    // completions.  The delay-node requests throttle the dispatcher far
    // below the offered rate, so the bounded queue must overflow and reject.
    struct Submitted {
      int64_t ticket = -1;
      size_t pick = 0;
      bool cancelled = false;
    };
    std::vector<Submitted> live;
    std::vector<AttackRequest> accepted;
    int64_t rejected = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kSubmissions; ++i) {
      const size_t pick = static_cast<size_t>(i) % num_targets;
      AttackServiceRequest req;
      req.graph = "g";
      req.target_node = f->requests[pick].target_node;
      req.target_label = f->requests[pick].target_label;
      req.budget = f->requests[pick].budget;
      const Admission a = service.Submit(req);
      if (a.status.ok()) {
        Submitted s;
        s.ticket = a.ticket;
        s.pick = pick;
        // Cancel a few clean-node submissions right away (never the fault
        // nodes — their outcomes are pinned below).
        if (i % 9 == 4 && pick >= 4) {
          service.Cancel(a.ticket);
          s.cancelled = true;
        }
        live.push_back(s);
        accepted.push_back(
            {req.target_node, req.target_label, req.budget});
      } else {
        EXPECT_EQ(a.status.code(), StatusCode::kResourceExhausted) << knobs;
        EXPECT_EQ(a.ticket, -1) << knobs;
        ++rejected;
      }
      // Pace arrivals at ~0.3 ms regardless of service progress.
      const auto next =
          start + std::chrono::microseconds(300) * (i + 1);
      while (std::chrono::steady_clock::now() < next)
        std::this_thread::yield();
    }
    service.Drain();

    ServiceStats st = service.stats();
    EXPECT_EQ(st.submitted, kSubmissions) << knobs;
    EXPECT_EQ(st.accepted, static_cast<int64_t>(accepted.size())) << knobs;
    EXPECT_GT(st.rejected_queue_full, 0) << knobs;
    EXPECT_EQ(st.rejected_queue_full, rejected) << knobs;
    EXPECT_EQ(st.queue_depth, 0) << knobs;
    EXPECT_EQ(st.in_flight, 0) << knobs;
    // Conservation: every accepted request reached exactly one terminal
    // bucket — nothing lost, nothing double-counted.
    EXPECT_EQ(st.accepted, st.completed_ok + st.failed + st.timed_out +
                               st.skipped + st.shed)
        << knobs;
    EXPECT_EQ(st.shed, 0) << knobs;  // Watermark disabled in this run.
    // Throw/NaN/flaky failures all retry once, unless the retry found the
    // queue full (then the request ends with that attempt's failure).
    EXPECT_GE(st.retried + st.retries_refused, 1) << knobs;
    EXPECT_LE(st.max_queue_depth, cfg.queue_capacity) << knobs;

    // The offline reference strips the fault decorators: for every request
    // the service completed ok, the picks must match the plain attack run
    // at the same accepted position (or, for the retried flaky completion,
    // the recorded-seed replay).
    const std::vector<AttackResult> reference =
        OfflineReference(f->ctx, inner, accepted, base, threads);
    std::vector<bool> seen(accepted.size(), false);
    int64_t retried_ok = 0;
    int64_t refused = 0;
    for (const Submitted& s : live) {
      const ServiceResult r = service.Take(s.ticket);
      const std::string where =
          knobs + " ticket " + std::to_string(s.ticket);
      ASSERT_NE(r.result.status.code(), StatusCode::kNotFound) << where;
      ASSERT_GE(r.accepted_index, 0) << where;
      ASSERT_LT(r.accepted_index, static_cast<int64_t>(accepted.size()))
          << where;
      // No duplicated results: each accepted index is delivered once.
      EXPECT_FALSE(seen[static_cast<size_t>(r.accepted_index)]) << where;
      seen[static_cast<size_t>(r.accepted_index)] = true;

      const int64_t node = f->requests[s.pick].target_node;
      switch (r.result.status.code()) {
        case StatusCode::kOk:
          if (r.attempts <= 1) {
            EXPECT_EQ(r.seed, TargetSeed(base, r.accepted_index)) << where;
            ExpectSameEdges(
                r.result, reference[static_cast<size_t>(r.accepted_index)],
                where);
          } else {
            // Retry-to-success: only the flaky node's first call can do
            // this, and the recorded seed replays it exactly.
            EXPECT_EQ(node, flaky_node) << where;
            EXPECT_EQ(r.seed, AttemptSeed(base, r.accepted_index, 1))
                << where;
            const AttackResult replay = ReplayOne(
                f->ctx, inner, node, f->requests[s.pick].target_label, r);
            ASSERT_TRUE(replay.status.ok()) << where;
            ExpectSameEdges(r.result, replay, where + " replay");
            ++retried_ok;
          }
          break;
        case StatusCode::kError:
          EXPECT_TRUE(r.result.added_edges.empty()) << where;
          if (r.attempts == cfg.max_attempts) {
            // Deterministic faults exhaust both attempts and stay
            // contained.
            EXPECT_TRUE(node == throw_node || node == nan_node) << where;
          } else {
            // A failed first attempt whose retry found the queue full.
            EXPECT_EQ(r.attempts, 1) << where;
            EXPECT_TRUE(node == throw_node || node == nan_node ||
                        node == flaky_node)
                << where;
            ++refused;
          }
          break;
        case StatusCode::kSkipped:
          // Cancelled while queued: no attempt, no stream consumed.
          EXPECT_TRUE(s.cancelled) << where;
          EXPECT_EQ(r.attempts, 0) << where;
          EXPECT_TRUE(r.result.added_edges.empty()) << where;
          break;
        case StatusCode::kTimedOut:
          // Cancelled mid-run: partial picks are allowed but never
          // compared — the caller sees the structured code.
          EXPECT_TRUE(s.cancelled) << where;
          break;
        default:
          ADD_FAILURE() << where << ": unexpected terminal status "
                        << r.result.status.ToString();
      }
      // A ticket is consumable exactly once.
      EXPECT_EQ(service.Take(s.ticket).result.status.code(),
                StatusCode::kNotFound)
          << where;
    }
    // No lost results: every accepted index was delivered.
    EXPECT_EQ(std::count(seen.begin(), seen.end(), true),
              static_cast<int64_t>(accepted.size()))
        << knobs;
    EXPECT_LE(retried_ok, 1) << knobs;  // The flaky fault fires once.
    EXPECT_EQ(refused, st.retries_refused) << knobs;
  }
}

// ---------------------------------------------------------------------------
// The service-backed evaluation pipeline.
// ---------------------------------------------------------------------------

TEST(PipelineServiceTest, EvaluateAttackOnServiceMatchesDriverPath) {
  Fixture* f = SharedFixture();
  ASSERT_GE(f->targets.size(), 3u);
  const FgaAttack inner(/*targeted=*/true);
  GnnExplainerConfig icfg;
  icfg.epochs = 5;
  GnnExplainer inspector(f->model.get(), &f->data.features, icfg);

  // EvaluateAttack's driver path draws its base seed as the first engine
  // word of the caller's rng; give the service the same seed so the two
  // paths attack from identical streams.
  Rng probe(4242);
  const uint64_t base = probe.engine()();

  AttackServiceConfig scfg;
  scfg.base_seed = base;
  scfg.num_threads = 2;
  scfg.wave_size = 4;
  scfg.queue_capacity = 64;
  AttackService service(scfg);
  ASSERT_TRUE(service.RegisterGraph("snapshot-1", f->data, *f->model,
                                    NoOwn(&inner)).ok());

  EvalConfig ecfg;
  const JointAttackOutcome svc = EvaluateAttackOnService(
      f->ctx, &service, "snapshot-1", f->targets, inspector, ecfg);

  Rng rng(4242);
  EvalConfig dcfg;
  dcfg.attack_threads = 1;
  const JointAttackOutcome drv =
      EvaluateAttack(f->ctx, inner, f->targets, inspector, dcfg, &rng);

  EXPECT_EQ(svc.num_targets, drv.num_targets);
  EXPECT_EQ(svc.num_failed, drv.num_failed);
  EXPECT_EQ(svc.num_shed, 0);
  EXPECT_DOUBLE_EQ(svc.asr, drv.asr);
  EXPECT_DOUBLE_EQ(svc.asr_t, drv.asr_t);
  EXPECT_DOUBLE_EQ(svc.detection.precision, drv.detection.precision);
  EXPECT_DOUBLE_EQ(svc.detection.recall, drv.detection.recall);
  EXPECT_DOUBLE_EQ(svc.detection.f1, drv.detection.f1);
  EXPECT_DOUBLE_EQ(svc.detection.ndcg, drv.detection.ndcg);
}

// ---------------------------------------------------------------------------
// Shutdown races (the TSan job runs this binary under -fsanitize=thread).
// ---------------------------------------------------------------------------

TEST(ServiceRaceTest, StopRacesSubmitChurnAndTake) {
  Fixture* f = SharedFixture();
  const FgaAttack inner(/*targeted=*/true);
  AttackServiceConfig cfg;
  cfg.base_seed = 5077;
  cfg.num_threads = 2;
  cfg.wave_size = 2;
  cfg.queue_capacity = 16;
  AttackService service(cfg);
  ASSERT_TRUE(service.RegisterGraph("g", f->data, *f->model,
                                    NoOwn(&inner)).ok());

  // A chord the churner toggles on and off; any absent pair works.
  int64_t chord_u = -1;
  int64_t chord_v = -1;
  const int64_t n = f->data.num_nodes();
  for (int64_t u = 0; u < n && chord_u < 0; ++u)
    for (int64_t v = u + 1; v < n; ++v)
      if (!f->data.graph.HasEdge(u, v)) {
        chord_u = u;
        chord_v = v;
        break;
      }
  ASSERT_GE(chord_u, 0);

  std::mutex tickets_mu;
  std::vector<int64_t> tickets;
  std::atomic<bool> submit_done{false};

  std::thread submitter([&] {
    for (int i = 0; i < 48; ++i) {
      const AttackRequest& r =
          f->requests[static_cast<size_t>(i) % f->requests.size()];
      AttackServiceRequest req;
      req.graph = "g";
      req.target_node = r.target_node;
      req.target_label = r.target_label;
      req.budget = r.budget;
      const Admission a = service.Submit(req);
      if (a.status.ok()) {
        std::lock_guard<std::mutex> lock(tickets_mu);
        tickets.push_back(a.ticket);
      }
      std::this_thread::yield();
    }
    submit_done = true;
  });

  std::thread churner([&] {
    bool present = false;
    for (int i = 0; i < 24; ++i) {
      ChurnBatch batch;
      if (present)
        batch.removed.push_back({chord_u, chord_v, 1.0});
      else
        batch.added.push_back({chord_u, chord_v, 1.0});
      // Rejections (e.g. after Stop lands) are fine; only track the toggle
      // on acceptance so the next batch stays valid.
      const ChurnResult cr = service.UpdateGraph("g", batch);
      if (cr.status.ok()) present = !present;
      std::this_thread::yield();
    }
  });

  std::thread taker([&] {
    size_t taken = 0;
    for (;;) {
      int64_t ticket = -1;
      {
        std::lock_guard<std::mutex> lock(tickets_mu);
        if (taken < tickets.size()) ticket = tickets[taken];
      }
      if (ticket >= 0) {
        // Blocks until the ticket finalizes — post-Stop, queued entries
        // finalize as structured kResourceExhausted, so this always returns.
        const ServiceResult r = service.Take(ticket);
        EXPECT_NE(r.result.status.code(), StatusCode::kNotFound);
        ++taken;
        continue;
      }
      if (submit_done.load()) {
        std::lock_guard<std::mutex> lock(tickets_mu);
        if (taken >= tickets.size()) return;
        continue;
      }
      std::this_thread::yield();
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  service.Stop();
  submitter.join();
  churner.join();
  taker.join();

  // Quiescent now: the conservation identity must balance to the ticket.
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.queue_depth, 0);
  EXPECT_EQ(st.in_flight, 0);
  EXPECT_EQ(st.accepted, st.completed_ok + st.failed + st.timed_out +
                             st.skipped + st.shed + st.queue_depth +
                             st.in_flight);
  {
    std::lock_guard<std::mutex> lock(tickets_mu);
    EXPECT_LE(static_cast<int64_t>(tickets.size()), st.accepted);
  }
}

}  // namespace
}  // namespace geattack
