// GEAttack-PG — the joint attack instantiated against PGExplainer
// (paper §5.3, Table 2): "we adopt a similar manner to the search of
// adversarial edges via the gradient computation of PGExplainer".
//
// Structure mirrors core/geattack.h with the inner loop replaced by
// differentiable training steps of PGExplainer's MLP ψ (warm-started from
// the trained explainer), and the penalty replaced by the pre-sigmoid edge
// weights ω_ψ(v, j) that PGExplainer would assign to the candidate edges —
// pushing ω down means the adversarial edge is ranked low by the explainer.
// The node embeddings feeding ω depend on Â through the GCN's first layer,
// so the outer gradient again backprops through the inner updates.  The
// relaxed adjacency and the gate-masked forward live on the target's
// SubgraphView slots, as in GEAttack.

#ifndef GEATTACK_SRC_CORE_GEATTACK_PG_H_
#define GEATTACK_SRC_CORE_GEATTACK_PG_H_

#include "src/attack/attack.h"
#include "src/explain/pg_explainer.h"

namespace geattack {

/// GEAttack-PG hyperparameters.
struct GeAttackPgConfig {
  double lambda = 0.15;
  double eta = 0.005;       ///< Inner step size for the ψ updates.
  int64_t inner_steps = 2;  ///< T.
  bool keep_penalty_on_added = false;  ///< As in GeAttackConfig.
  /// View radius (-1 = every node; exact).  See GeAttackConfig.
  /// Values >= 0 are widened to at least the explainer's own `hops` so the
  /// view always contains the computation subgraph being gated.
  int hops = -1;
};

/// Joint GNN + PGExplainer attack.
class GeAttackPg : public TargetedAttack {
 public:
  /// `explainer` must be trained and outlive the attack; its ψ parameters
  /// warm-start the differentiable inner loop.
  GeAttackPg(const PgExplainer* explainer,
             const GeAttackPgConfig& config = {})
      : explainer_(explainer), config_(config) {}

  std::string name() const override { return "GEAttack"; }

  AttackResult Attack(const AttackContext& ctx, const AttackRequest& request,
                      Rng* rng) const override;

 private:
  const PgExplainer* explainer_;
  GeAttackPgConfig config_;
};

}  // namespace geattack

#endif  // GEATTACK_SRC_CORE_GEATTACK_PG_H_
