// Tests for the attack baselines, including parameterized property tests of
// the invariants every attacker must respect (DESIGN.md §6).

#include <memory>

#include "gtest/gtest.h"
#include "src/attack/attack.h"
#include "src/attack/fga.h"
#include "src/attack/fga_te.h"
#include "src/attack/ig_attack.h"
#include "src/attack/nettack.h"
#include "src/attack/rna.h"
#include "src/core/geattack.h"
#include "src/eval/pipeline.h"
#include "src/graph/generators.h"
#include "src/nn/trainer.h"

namespace geattack {
namespace {

struct AttackFixture {
  GraphData data;
  Split split;
  std::unique_ptr<Gcn> model;
  AttackContext ctx;
  std::vector<PreparedTarget> targets;
};

// Shared across tests (expensive to build); intentionally leaked.
AttackFixture* SharedFixture() {
  static AttackFixture* fixture = [] {
    auto* f = new AttackFixture();
    Rng rng(42);
    CitationGraphConfig cfg;
    cfg.num_nodes = 140;
    cfg.num_edges = 360;
    cfg.num_classes = 3;
    cfg.feature_dim = 48;
    f->data = KeepLargestConnectedComponent(GenerateCitationGraph(cfg, &rng));
    f->split = MakeSplit(f->data, 0.1, 0.1, &rng);
    f->model = std::make_unique<Gcn>(
        TrainNewGcn(f->data, f->split, TrainConfig{}, &rng));
    f->ctx = MakeAttackContext(f->data, *f->model);
    Tensor logits = f->model->LogitsFromRaw(f->ctx.clean_adjacency,
                                            f->data.features);
    auto nodes = SelectTargetNodes(
        f->data, logits, f->split.test,
        {.top_margin = 3, .bottom_margin = 3, .random = 4}, &rng);
    f->targets = PrepareTargets(f->ctx, nodes, &rng);
    return f;
  }();
  return fixture;
}

std::unique_ptr<TargetedAttack> MakeAttack(const std::string& name) {
  if (name == "RNA") return std::make_unique<RandomAttack>();
  if (name == "FGA") return std::make_unique<FgaAttack>(false);
  if (name == "FGA-T") return std::make_unique<FgaAttack>(true);
  if (name == "FGA-T&E") {
    GnnExplainerConfig cfg;
    cfg.epochs = 30;
    return std::make_unique<FgaTeAttack>(cfg);
  }
  if (name == "Nettack") return std::make_unique<Nettack>();
  if (name == "IG-Attack") {
    IgAttackConfig cfg;
    cfg.steps = 3;
    cfg.shortlist = 16;
    return std::make_unique<IgAttack>(cfg);
  }
  if (name == "GEAttack") return std::make_unique<GeAttack>();
  return nullptr;
}

class AttackPropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AttackPropertyTest, RespectsInvariants) {
  AttackFixture* f = SharedFixture();
  ASSERT_GE(f->targets.size(), 3u);
  auto attack = MakeAttack(GetParam());
  ASSERT_NE(attack, nullptr);
  Rng rng(7);

  for (size_t i = 0; i < 3; ++i) {
    const PreparedTarget& t = f->targets[i];
    AttackRequest req{t.node, t.target_label, t.budget};
    AttackResult result = attack->Attack(f->ctx, req, &rng);

    // Budget respected.
    EXPECT_LE(static_cast<int64_t>(result.added_edges.size()), t.budget);
    // Symmetric, zero-diagonal, add-only, direct.
    const Tensor a = DensePerturbedAdjacency(f->ctx, result.added_edges);
    EXPECT_LE(a.MaxAbsDiff(a.Transposed()), 0.0);
    int64_t changed = 0;
    for (int64_t u = 0; u < a.rows(); ++u) {
      EXPECT_DOUBLE_EQ(a.at(u, u), 0.0);
      for (int64_t v2 = u + 1; v2 < a.cols(); ++v2) {
        const double before = f->ctx.clean_adjacency.at(u, v2);
        const double after = a.at(u, v2);
        EXPECT_GE(after, before);  // Add-only.
        if (after != before) {
          ++changed;
          EXPECT_TRUE(u == t.node || v2 == t.node);  // Direct attack.
        }
      }
    }
    EXPECT_EQ(changed, static_cast<int64_t>(result.added_edges.size()));
    // Every reported edge is new and incident to the target.
    for (const Edge& e : result.added_edges) {
      EXPECT_DOUBLE_EQ(f->ctx.clean_adjacency.at(e.u, e.v), 0.0);
      EXPECT_TRUE(e.u == t.node || e.v == t.node);
    }
  }
}

TEST_P(AttackPropertyTest, DeterministicGivenRngState) {
  AttackFixture* f = SharedFixture();
  auto attack = MakeAttack(GetParam());
  const PreparedTarget& t = f->targets[0];
  AttackRequest req{t.node, t.target_label, t.budget};
  Rng rng1(9), rng2(9);
  AttackResult a = attack->Attack(f->ctx, req, &rng1);
  AttackResult b = attack->Attack(f->ctx, req, &rng2);
  EXPECT_EQ(a.added_edges.size(), b.added_edges.size());
  for (size_t i = 0; i < a.added_edges.size(); ++i)
    EXPECT_EQ(a.added_edges[i], b.added_edges[i]);
}

INSTANTIATE_TEST_SUITE_P(AllAttackers, AttackPropertyTest,
                         ::testing::Values("RNA", "FGA", "FGA-T", "FGA-T&E",
                                           "Nettack", "IG-Attack",
                                           "GEAttack"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string n = i.param;
                           for (char& c : n)
                             if (!isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return n;
                         });

double MeasureAsrT(const TargetedAttack& attack, int64_t max_targets = 6) {
  AttackFixture* f = SharedFixture();
  Rng rng(11);
  int64_t success = 0, total = 0;
  for (const auto& t : f->targets) {
    if (total >= max_targets) break;
    ++total;
    AttackRequest req{t.node, t.target_label, t.budget};
    AttackResult result = attack.Attack(f->ctx, req, &rng);
    if (PredictsLabel(*f->model,
                      DensePerturbedAdjacency(f->ctx, result.added_edges),
                      f->data.features, t.node, t.target_label))
      ++success;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(success) / static_cast<double>(total);
}

TEST(FgaTTest, HighTargetedSuccessRate) {
  EXPECT_GE(MeasureAsrT(FgaAttack(/*targeted=*/true)), 0.8);
}

TEST(NettackTest, HighTargetedSuccessRate) {
  EXPECT_GE(MeasureAsrT(Nettack()), 0.6);
}

TEST(IgAttackTest, HighTargetedSuccessRate) {
  IgAttackConfig cfg;
  cfg.steps = 3;
  cfg.shortlist = 16;
  EXPECT_GE(MeasureAsrT(IgAttack(cfg)), 0.6);
}

TEST(RnaTest, WeakerThanGradientAttacks) {
  // RNA's ASR-T should not beat FGA-T (it is the weakest attacker).
  const double rna = MeasureAsrT(RandomAttack());
  const double fga_t = MeasureAsrT(FgaAttack(true));
  EXPECT_LE(rna, fga_t + 1e-9);
}

TEST(RnaTest, OnlyConnectsTargetLabelNodes) {
  AttackFixture* f = SharedFixture();
  Rng rng(13);
  const PreparedTarget& t = f->targets[0];
  AttackRequest req{t.node, t.target_label, t.budget};
  AttackResult result = RandomAttack().Attack(f->ctx, req, &rng);
  for (const Edge& e : result.added_edges) {
    const int64_t other = e.u == t.node ? e.v : e.u;
    EXPECT_EQ(f->data.labels[ZU(other)], t.target_label);
  }
}

TEST(NettackTest, DegreeTestCanRejectCandidates) {
  // With an extreme threshold every candidate is rejected: no edges added.
  AttackFixture* f = SharedFixture();
  NettackConfig cfg;
  cfg.degree_test_threshold = -1.0;  // Impossible to satisfy.
  Nettack nettack(cfg);
  Rng rng(15);
  const PreparedTarget& t = f->targets[0];
  AttackRequest req{t.node, t.target_label, t.budget};
  AttackResult result = nettack.Attack(f->ctx, req, &rng);
  EXPECT_TRUE(result.added_edges.empty());
}

TEST(DirectAddCandidatesTest, ExcludesNeighborsAndSelf) {
  AttackFixture* f = SharedFixture();
  const int64_t v = f->targets[0].node;
  auto candidates = DirectAddCandidates(*f->ctx.clean_csr.pattern(), v,
                                        f->data.labels, -1);
  for (int64_t j : candidates) {
    EXPECT_NE(j, v);
    EXPECT_DOUBLE_EQ(f->ctx.clean_adjacency.at(v, j), 0.0);
  }
  const int64_t expected = f->data.num_nodes() - 1 - f->data.graph.Degree(v);
  EXPECT_EQ(static_cast<int64_t>(candidates.size()), expected);
}

TEST(PrepareTargetsTest, AssignsWrongLabelsAndDegreeBudgets) {
  AttackFixture* f = SharedFixture();
  for (const auto& t : f->targets) {
    EXPECT_NE(t.target_label, t.true_label);
    EXPECT_GE(t.target_label, 0);
    EXPECT_LT(t.target_label, f->data.num_classes);
    EXPECT_EQ(t.budget, std::max<int64_t>(1, f->data.graph.Degree(t.node)));
  }
}

}  // namespace
}  // namespace geattack
