// FGA-T&E baseline (paper §A.4): FGA-T that additionally tries to evade the
// explainer heuristically — before selecting each adversarial edge, it runs
// GNNExplainer on the current graph and excludes the nodes of the generated
// explanation subgraph from the candidate set.  Table 1 shows this naive
// evasion barely helps, which is what motivates GEAttack's bilevel design.

#ifndef GEATTACK_SRC_ATTACK_FGA_TE_H_
#define GEATTACK_SRC_ATTACK_FGA_TE_H_

#include "src/attack/fga.h"
#include "src/explain/gnn_explainer.h"

namespace geattack {

/// FGA-T with heuristic explainer evasion.
class FgaTeAttack : public FgaAttack {
 public:
  /// `subgraph_size` is the explanation size L whose nodes are avoided.
  explicit FgaTeAttack(GnnExplainerConfig explainer_config,
                       int64_t subgraph_size = 20)
      : FgaAttack(/*targeted=*/true),
        explainer_config_(explainer_config),
        subgraph_size_(subgraph_size) {}

  std::string name() const override { return "FGA-T&E"; }

 protected:
  std::vector<int64_t> ExcludedNodes(const AttackContext& ctx,
                                     const Graph& current,
                                     const AttackRequest& request)
      const override;
  bool ReadsPerturbedGraph() const override { return true; }

 private:
  GnnExplainerConfig explainer_config_;
  int64_t subgraph_size_;
};

}  // namespace geattack

#endif  // GEATTACK_SRC_ATTACK_FGA_TE_H_
