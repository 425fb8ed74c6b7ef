// GEAttack — the paper's primary contribution (Section 4, Algorithm 1):
// jointly attack a GNN and its GNNExplainer by greedy edge addition on the
// bilevel objective of Eq. (7):
//
//   min_Â  L_GNN(f_θ(Â, X)_v, ŷ)  +  λ Σ_{j ∈ N(v)} M_A^T[v,j] · B[v,j]
//
// where M_A^T is the explainer's adjacency mask after T *differentiable*
// gradient-descent steps (Eq. 8) — the dependence of M_A^T on Â is kept on
// the autodiff graph, so the outer gradient Q = ∇_Â L_GEAttack backprops
// through the whole inner optimization path M⁰→M¹→…→M^T (the high-order
// gradient the paper obtains from PyTorch's create_graph).
//
// B = 11ᵀ − I − A masks the penalty off the clean graph's edges so the
// explainer still behaves normally on them; each added adversarial edge
// additionally zeroes its B entry (Algorithm 1, line 10).
//
// The relaxed adjacency, the explainer mask and the penalty all live on the
// target's SubgraphView edge list, so one outer iteration (T inner steps +
// the hypergradient) costs O(T·(|E_sub| + m)·h) instead of the n x n
// relaxation's O(T·n²·h).  With mask_init_scale = 0 it picks the same edges
// as the n x n loop (tests/sparse_attack_test.cc keeps that loop as its
// oracle); with a random init it draws one normal per edge slot instead of
// n², so a fixed seed lands on a different (equally valid) M⁰.

#ifndef GEATTACK_SRC_CORE_GEATTACK_H_
#define GEATTACK_SRC_CORE_GEATTACK_H_

#include "src/attack/attack.h"
#include "src/explain/gnn_explainer.h"

namespace geattack {

/// GEAttack hyperparameters (paper §A.1).  The defaults are this
/// reproduction's operating point: gradient magnitudes scale inversely with
/// graph size, so λ = 2 on our (smaller) synthetic benchmarks corresponds
/// to the paper's λ = 20 sweet spot — ASR-T stays at ~100% while detection
/// drops; larger λ trades ASR for stealth exactly as in Fig. 4.  T ≤ 5
/// inner steps provide sufficient hypergradient signal (Fig. 6).
struct GeAttackConfig {
  double lambda = 2.0;   ///< Trade-off between Eq. (4) and the mask penalty.
  double eta = 0.3;      ///< Inner-loop step size η of Eq. (8).
  int64_t inner_steps = 5;  ///< T.
  double mask_init_scale = 0.1;  ///< Scale of the random M⁰ (line 3).
  /// Ablation switch: when true, B entries of *added* adversarial edges are
  /// NOT zeroed, so the penalty keeps suppressing their mask in later outer
  /// iterations.  Algorithm 1 zeroes them (false).
  bool keep_penalty_on_added = false;
  /// View radius: -1 keeps every node (numerically exact); k >= 2
  /// restricts the view to the k-hop ball around the target in the
  /// augmented graph (boundary edges enter normalization as unmasked
  /// constants — the standard subgraph-explanation approximation).
  int hops = -1;
};

/// The joint GNN + GNNExplainer attack.
class GeAttack : public TargetedAttack {
 public:
  explicit GeAttack(const GeAttackConfig& config = {}) : config_(config) {}

  std::string name() const override { return "GEAttack"; }

  AttackResult Attack(const AttackContext& ctx, const AttackRequest& request,
                      Rng* rng) const override;

  const GeAttackConfig& config() const { return config_; }

 private:
  GeAttackConfig config_;
};

}  // namespace geattack

#endif  // GEATTACK_SRC_CORE_GEATTACK_H_
