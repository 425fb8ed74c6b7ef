// Quickstart: the end-to-end GEAttack workflow in ~60 lines.
//
//   1. build an attributed graph (synthetic CITESEER stand-in),
//   2. train the victim GCN,
//   3. pick a victim node and a target label,
//   4. run GEAttack,
//   5. verify the prediction flipped AND check where GNNExplainer ranks the
//      adversarial edges.
//
// Build & run:  ./build/examples/quickstart

#include <iostream>

#include "src/core/geattack.h"
#include "src/eval/metrics.h"
#include "src/eval/pipeline.h"
#include "src/explain/gnn_explainer.h"
#include "src/graph/datasets.h"
#include "src/nn/trainer.h"

int main() {
  using namespace geattack;

  // 1. Data: a homophilous citation graph with bag-of-words features.
  Rng rng(2026);
  GraphData data = MakeDataset(DatasetId::kCiteseer, /*scale=*/0.1, &rng);
  Split split = MakeSplit(data, 0.1, 0.1, &rng);
  std::cout << "graph: " << data.num_nodes() << " nodes, "
            << data.graph.num_edges() << " edges, " << data.num_classes
            << " classes\n";

  // 2. Victim model.
  TrainResult train_result;
  Gcn model = TrainNewGcn(data, split, TrainConfig{}, &rng, &train_result);
  std::cout << "GCN test accuracy: " << train_result.test_accuracy << "\n";

  // 3. Victim node + specific (wrong) target label, assigned the paper's
  //    way: whatever label a plain gradient attack flips the node to.
  AttackContext ctx = MakeAttackContext(data, model);
  auto victims = SelectTargetNodes(
      data, train_result.final_logits, split.test,
      {.top_margin = 1, .bottom_margin = 1, .random = 2}, &rng);
  auto prepared = PrepareTargets(ctx, victims, &rng);
  if (prepared.empty()) {
    std::cout << "no flippable victim found; try another seed\n";
    return 1;
  }
  const PreparedTarget target = prepared.front();
  std::cout << "victim node " << target.node << ": true label "
            << target.true_label << ", attack target label "
            << target.target_label << ", budget " << target.budget << "\n";

  // 4. The joint attack.
  GeAttack attack;  // λ=2, T=5, η=0.3 — see GeAttackConfig.
  AttackRequest request{target.node, target.target_label, target.budget};
  AttackResult result = attack.Attack(ctx, request, &rng);
  std::cout << "added " << result.added_edges.size() << " adversarial edges:";
  for (const Edge& e : result.added_edges)
    std::cout << " (" << e.u << "," << e.v << ")";
  std::cout << "\n";

  // 5. Did it work, and can the inspector see it?
  const Tensor attacked = DensePerturbedAdjacency(ctx, result.added_edges);
  const Tensor logits = model.LogitsFromRaw(attacked, data.features);
  const int64_t predicted = logits.ArgMaxRow(target.node);
  std::cout << "post-attack prediction: " << predicted
            << (predicted == target.target_label ? "  (attack succeeded)"
                                                 : "  (attack failed)")
            << "\n";

  GnnExplainer inspector(&model, &data.features, GnnExplainerConfig{});
  Explanation explanation = inspector.Explain(attacked, target.node, predicted);
  DetectionMetrics detection =
      ComputeDetection(explanation, result.added_edges, /*L=*/20, /*K=*/15);
  std::cout << "inspector ranks of the adversarial edges:";
  for (const Edge& e : result.added_edges)
    std::cout << " " << explanation.RankOf(e);
  std::cout << "\ndetection F1@15 = " << detection.f1
            << ", NDCG@15 = " << detection.ndcg
            << "  (lower = better hidden)\n";
  return 0;
}
