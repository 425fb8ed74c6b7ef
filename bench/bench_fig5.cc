// Reproduces Figure 5: effect of the explanation subgraph size L on the
// detection rate of GEAttack's edges (Precision/Recall/F1/NDCG @15) on
// CORA.  Detection first rises with L (more adversarial edges clear the
// subgraph cut) then saturates around L ≈ 20.

#include <iostream>

#include "bench/bench_util.h"

int main() {
  using namespace geattack;
  using namespace geattack::bench;
  BenchKnobs knobs = BenchKnobs::FromEnv();
  // Figures default to a single seed (tables carry the ±std columns).
  knobs.seeds = EnvInt("GEATTACK_BENCH_SEEDS", 1);
  knobs.Describe(std::cout, "Figure 5 — effect of subgraph size L on CORA");

  const std::vector<int64_t> sizes = {5, 10, 20, 40, 60, 80, 100};
  std::vector<MetricColumns> columns(sizes.size());
  for (uint64_t seed = 0; seed < static_cast<uint64_t>(knobs.seeds); ++seed) {
    auto world =
        MakeWorld(DatasetId::kCora, knobs.scale, seed, knobs.targets);
    GnnExplainer inspector(world->model.get(), &world->data.features,
                           InspectorConfig(seed));
    const GeAttack attack;
    // One attack+explanation per target; re-scored at every L (the ranking
    // is L-independent, only the truncation changes).
    Rng rng(seed * 17 + 1);
    for (const PreparedTarget& t : world->targets) {
      AttackRequest req{t.node, t.target_label, t.budget};
      const AttackResult result = attack.Attack(world->ctx, req, &rng);
      const Tensor attacked =
          DensePerturbedAdjacency(world->ctx, result.added_edges);
      const Tensor logits =
          world->model->LogitsFromRaw(attacked, world->data.features);
      const Explanation e =
          inspector.Explain(attacked, t.node, logits.ArgMaxRow(t.node));
      for (size_t i = 0; i < sizes.size(); ++i) {
        const DetectionMetrics d =
            ComputeDetection(e, result.added_edges, sizes[i], 15);
        JointAttackOutcome o;
        o.detection = d;
        columns[i].Add(o);
      }
    }
  }

  TablePrinter table({"L", "Precision@15", "Recall@15", "F1@15", "NDCG@15"});
  for (size_t i = 0; i < sizes.size(); ++i) {
    table.AddRow({std::to_string(sizes[i]), columns[i].precision.Cell(),
                  columns[i].recall.Cell(), columns[i].f1.Cell(),
                  columns[i].ndcg.Cell()});
  }
  table.Print(std::cout);
  return 0;
}
