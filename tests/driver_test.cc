// Determinism tests for the multi-target thread-pool driver: for every
// attacker, the parallel edge picks must be bit-identical to the serial
// (num_threads = 1) reference at 2/4/8 workers — the per-target RNG streams
// and the reassociation-free kernels make scheduling invisible.  Also pins
// the schedule itself: workers take targets in caller order.

#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/attack/driver.h"
#include "src/attack/fga.h"
#include "src/attack/fga_te.h"
#include "src/attack/ig_attack.h"
#include "src/attack/nettack.h"
#include "src/core/geattack.h"
#include "src/core/geattack_pg.h"
#include "src/eval/pipeline.h"
#include "src/explain/gnn_explainer.h"
#include "src/graph/generators.h"
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
    Rng rng(654);
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
    for (const PreparedTarget& t : f->targets) {
      // Budget 2 keeps each greedy loop short while still exercising the
      // commit/renormalize machinery across outer iterations.
      f->requests.push_back(
          {t.node, t.target_label, std::min<int64_t>(t.budget, 2)});
    }
    return f;
  }();
  return fixture;
}

void ExpectIdenticalAcrossThreadCounts(const TargetedAttack& attack,
                                       uint64_t seed) {
  Fixture* f = SharedFixture();
  ASSERT_GE(f->requests.size(), 3u);
  AttackDriverConfig serial_config;
  serial_config.num_threads = 1;
  serial_config.base_seed = seed;
  const std::vector<AttackResult> serial =
      RunMultiTargetAttack(f->ctx, attack, f->requests, serial_config);
  for (int threads : {2, 4, 8}) {
    AttackDriverConfig config;
    config.num_threads = threads;
    config.base_seed = seed;
    const std::vector<AttackResult> parallel =
        RunMultiTargetAttack(f->ctx, attack, f->requests, config);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i].added_edges.size(), serial[i].added_edges.size())
          << attack.name() << " target " << i << " threads=" << threads;
      for (size_t e = 0; e < serial[i].added_edges.size(); ++e)
        EXPECT_EQ(parallel[i].added_edges[e], serial[i].added_edges[e])
            << attack.name() << " target " << i << " edge " << e
            << " threads=" << threads;
    }
  }
}

TEST(DriverDeterminismTest, FgaTargeted) {
  ExpectIdenticalAcrossThreadCounts(FgaAttack(/*targeted=*/true), 11);
}

TEST(DriverDeterminismTest, FgaTargetedAndEvasive) {
  GnnExplainerConfig cfg;
  cfg.epochs = 10;
  ExpectIdenticalAcrossThreadCounts(FgaTeAttack(cfg, /*subgraph_size=*/10),
                                    12);
}

TEST(DriverDeterminismTest, IgAttack) {
  IgAttackConfig cfg;
  cfg.steps = 3;
  cfg.shortlist = 10;
  ExpectIdenticalAcrossThreadCounts(IgAttack(cfg), 13);
}

TEST(DriverDeterminismTest, Nettack) {
  ExpectIdenticalAcrossThreadCounts(Nettack(), 14);
}

TEST(DriverDeterminismTest, GeAttack) {
  // Random mask init ON: this is the case where determinism genuinely
  // depends on the per-target RNG streams, not just on kernel order.
  GeAttackConfig cfg;
  cfg.inner_steps = 2;
  ExpectIdenticalAcrossThreadCounts(GeAttack(cfg), 15);
}

TEST(DriverDeterminismTest, GeAttackPg) {
  Fixture* f = SharedFixture();
  PgExplainerConfig pg_cfg;
  pg_cfg.epochs = 8;
  PgExplainer pg(f->model.get(), &f->data.features, pg_cfg);
  std::vector<int64_t> instances;
  for (int64_t v = 0; v < 6; ++v) instances.push_back(v);
  const Tensor logits =
      f->model->LogitsFromRaw(f->ctx.clean_adjacency, f->data.features);
  pg.Train(f->ctx.clean_adjacency, instances, PredictLabels(logits));
  ExpectIdenticalAcrossThreadCounts(GeAttackPg(&pg), 16);
}

TEST(DriverTest, TargetSeedStreamsAreDistinct) {
  // Same base seed, different targets — and adjacent base seeds — must all
  // land on distinct stream seeds.
  std::set<uint64_t> seen;
  for (uint64_t base : {0ull, 1ull, 77ull})
    for (int64_t t = 0; t < 64; ++t) seen.insert(TargetSeed(base, t));
  EXPECT_EQ(seen.size(), 3u * 64u);
}

TEST(DriverTest, EvaluateAttackThreadedMatchesSerialDriver) {
  // The pipeline wiring: attack_threads = 1 (serial driver) and
  // attack_threads = 4 must produce the same outcome numbers from the same
  // caller seed.
  Fixture* f = SharedFixture();
  GnnExplainerConfig icfg;
  icfg.epochs = 10;
  GnnExplainer inspector(f->model.get(), &f->data.features, icfg);
  const FgaAttack attack(/*targeted=*/true);

  EvalConfig serial_cfg;
  serial_cfg.attack_threads = 1;
  EvalConfig threaded_cfg = serial_cfg;
  threaded_cfg.attack_threads = 4;

  Rng r1(42), r2(42);
  const JointAttackOutcome a = EvaluateAttack(f->ctx, attack, f->targets,
                                              inspector, serial_cfg, &r1);
  const JointAttackOutcome b = EvaluateAttack(f->ctx, attack, f->targets,
                                              inspector, threaded_cfg, &r2);
  EXPECT_EQ(a.num_targets, b.num_targets);
  EXPECT_EQ(a.asr, b.asr);
  EXPECT_EQ(a.asr_t, b.asr_t);
  EXPECT_EQ(a.detection.precision, b.detection.precision);
  EXPECT_EQ(a.detection.recall, b.detection.recall);
  EXPECT_EQ(a.detection.f1, b.detection.f1);
  EXPECT_EQ(a.detection.ndcg, b.detection.ndcg);
}

// Holds request 0 until the other requests have all run, and records the
// order they ran in.  Each request's target_node is its index.
class OrderRecordingAttack : public TargetedAttack {
 public:
  explicit OrderRecordingAttack(size_t others) : others_(others) {}
  std::string name() const override { return "order-recording"; }
  AttackResult Attack(const AttackContext&, const AttackRequest& request,
                      Rng*) const override {
    std::unique_lock<std::mutex> lock(mutex_);
    if (request.target_node == 0) {
      others_done_.wait(lock, [&] { return order_.size() == others_; });
    } else {
      order_.push_back(request.target_node);
      others_done_.notify_all();
    }
    return AttackResult();
  }
  std::vector<int64_t> order() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return order_;
  }

 private:
  const size_t others_;
  mutable std::mutex mutex_;
  mutable std::condition_variable others_done_;
  mutable std::vector<int64_t> order_;
};

TEST(DriverTest, WorkersTakeTargetsInCallerOrder) {
  // One worker is held by request 0, so the other must take requests 1..5
  // in the order the caller listed them: the driver hands out targets from
  // one shared queue, so a caller that lists its costliest targets first
  // never finds one of them started last.
  Fixture* f = SharedFixture();
  std::vector<AttackRequest> requests;
  for (int64_t i = 0; i < 6; ++i) requests.push_back({i, -1, 1});
  const OrderRecordingAttack attack(requests.size() - 1);
  AttackDriverConfig config;
  config.num_threads = 2;
  const std::vector<AttackResult> results =
      RunMultiTargetAttack(f->ctx, attack, requests, config);
  for (const AttackResult& r : results) EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(attack.order(), (std::vector<int64_t>{1, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace geattack
