// Inspector workflow: GNNExplainer as an adversarial-edge detector.
//
// This example plays the *defender's* side of the paper (§3): a system
// designer notices a suspicious prediction, runs GNNExplainer on it, and
// checks the top-ranked edges.  We attack a node with three different
// attackers and show what the inspector would see in each case —
// demonstrating the paper's premise that ordinary attacks leave footprints
// an explainer surfaces, and that GEAttack does not.
//
// Build & run:  ./build/examples/inspector_workflow

#include <iostream>

#include "src/attack/fga.h"
#include "src/attack/nettack.h"
#include "src/core/geattack.h"
#include "src/eval/metrics.h"
#include "src/eval/pipeline.h"
#include "src/eval/report.h"
#include "src/explain/gnn_explainer.h"
#include "src/graph/datasets.h"
#include "src/nn/trainer.h"

namespace {

void InspectOne(const geattack::AttackContext& ctx,
                const geattack::Gcn& model,
                const geattack::GnnExplainer& inspector,
                const geattack::TargetedAttack& attack,
                const geattack::PreparedTarget& target,
                geattack::Rng* rng) {
  using namespace geattack;
  AttackRequest request{target.node, target.target_label, target.budget};
  AttackResult result = attack.Attack(ctx, request, rng);
  const Tensor attacked = DensePerturbedAdjacency(ctx, result.added_edges);
  const Tensor logits = model.LogitsFromRaw(attacked, ctx.data->features);
  const int64_t predicted = logits.ArgMaxRow(target.node);

  Explanation explanation =
      inspector.Explain(attacked, target.node, predicted);
  DetectionMetrics d =
      ComputeDetection(explanation, result.added_edges, 20, 15);

  std::cout << "\n--- attacker: " << attack.name() << " ---\n";
  std::cout << "prediction after attack: " << predicted << " (target "
            << target.target_label << ", true " << target.true_label
            << ")\n";
  std::cout << "inspector's top-10 explanation edges (* = adversarial):\n";
  const auto top = explanation.TopEdges(10);
  for (size_t i = 0; i < top.size(); ++i) {
    bool adversarial = false;
    for (const Edge& e : result.added_edges)
      if (e == top[i]) adversarial = true;
    std::cout << "  #" << i + 1 << "  (" << top[i].u << "," << top[i].v
              << ")  w=" << FormatDouble(explanation.ranked_edges[i].weight, 3)
              << (adversarial ? "   *ADVERSARIAL*" : "") << "\n";
  }
  std::cout << "detection: F1@15=" << FormatDouble(d.f1, 3)
            << " NDCG@15=" << FormatDouble(d.ndcg, 3) << "\n";
}

}  // namespace

int main() {
  using namespace geattack;
  Rng rng(7);
  GraphData data = MakeDataset(DatasetId::kCora, /*scale=*/0.1, &rng);
  Split split = MakeSplit(data, 0.1, 0.1, &rng);
  TrainResult tr;
  Gcn model = TrainNewGcn(data, split, TrainConfig{}, &rng, &tr);
  AttackContext ctx = MakeAttackContext(data, model);

  auto victims = SelectTargetNodes(
      data, tr.final_logits, split.test,
      {.top_margin = 2, .bottom_margin = 2, .random = 2}, &rng);
  auto prepared = PrepareTargets(ctx, victims, &rng);
  if (prepared.empty()) {
    std::cout << "no flippable victim; try another seed\n";
    return 1;
  }
  // Prefer a higher-degree victim: with budget = degree there is more room
  // for the joint attack to choose stealthy edges.
  PreparedTarget target = prepared.front();
  for (const PreparedTarget& t : prepared)
    if (t.budget > target.budget) target = t;
  std::cout << "victim node " << target.node << " (degree " << target.budget
            << ")\n";

  GnnExplainer inspector(&model, &data.features, GnnExplainerConfig{});
  InspectOne(ctx, model, inspector, FgaAttack(/*targeted=*/true), target,
             &rng);
  InspectOne(ctx, model, inspector, Nettack(), target, &rng);
  InspectOne(ctx, model, inspector, GeAttack(), target, &rng);

  std::cout << "\nTakeaway: all three attackers flip the prediction, and the "
               "inspector surfaces their\nedges — on average GEAttack's rank "
               "lower (run bench_table1 for the aggregate\ncomparison; a "
               "single low-degree victim's edges are load-bearing and can "
               "stay visible).\n";
  return 0;
}
