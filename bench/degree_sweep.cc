#include "bench/degree_sweep.h"

namespace geattack {
namespace bench {

std::vector<DegreeCell> NettackDegreeSweep(
    DatasetId id, const BenchKnobs& knobs, int64_t max_degree,
    int64_t per_degree,
    const std::function<std::unique_ptr<Explainer>(const World&)>&
        make_inspector) {
  std::vector<DegreeCell> cells(static_cast<size_t>(max_degree));
  for (int64_t d = 1; d <= max_degree; ++d)
    cells[static_cast<size_t>(d - 1)].degree = d;

  for (uint64_t seed = 0; seed < static_cast<uint64_t>(knobs.seeds); ++seed) {
    auto world = MakeWorld(id, knobs.scale, seed, /*num_targets=*/4);
    auto inspector = make_inspector(*world);
    const Nettack nettack;
    Rng rng(seed * 101 + 5);

    for (int64_t d = 1; d <= max_degree; ++d) {
      // Candidate victims: correctly classified test nodes of degree d.
      std::vector<int64_t> victims;
      for (int64_t node : world->split.test) {
        if (world->data.graph.Degree(node) != d) continue;
        if (world->clean_logits.ArgMaxRow(node) !=
            world->data.labels[ZU(node)])
          continue;
        victims.push_back(node);
      }
      rng.Shuffle(&victims);
      if (static_cast<int64_t>(victims.size()) > per_degree)
        victims.resize(static_cast<size_t>(per_degree));
      const auto prepared = PrepareTargets(world->ctx, victims, &rng);

      DegreeCell& cell = cells[static_cast<size_t>(d - 1)];
      for (const PreparedTarget& t : prepared) {
        AttackRequest req{t.node, t.target_label, t.budget};
        const AttackResult result = nettack.Attack(world->ctx, req, &rng);
        const Tensor attacked =
            DensePerturbedAdjacency(world->ctx, result.added_edges);
        const Tensor logits =
            world->model->LogitsFromRaw(attacked, world->data.features);
        const int64_t predicted = logits.ArgMaxRow(t.node);
        cell.asr += predicted != t.true_label ? 1.0 : 0.0;
        const Explanation e = inspector->Explain(attacked, t.node, predicted);
        const DetectionMetrics dm =
            ComputeDetection(e, result.added_edges, 20, 15);
        cell.detection.precision += dm.precision;
        cell.detection.recall += dm.recall;
        cell.detection.f1 += dm.f1;
        cell.detection.ndcg += dm.ndcg;
        ++cell.num_targets;
      }
    }
  }

  for (DegreeCell& cell : cells) {
    if (cell.num_targets == 0) continue;
    const double n = static_cast<double>(cell.num_targets);
    cell.asr /= n;
    cell.detection.precision /= n;
    cell.detection.recall /= n;
    cell.detection.f1 /= n;
    cell.detection.ndcg /= n;
  }
  return cells;
}

}  // namespace bench
}  // namespace geattack
