#include "src/attack/rna.h"

namespace geattack {

AttackResult RandomAttack::Attack(const AttackContext& ctx,
                                  const AttackRequest& request,
                                  Rng* rng) const {
  GEA_CHECK(rng != nullptr);
  AttackResult result;
  // The clean row's candidates in ascending order; each pick is erased in
  // place, so every step draws from the clean candidates minus the picks so
  // far, in that order.
  std::vector<int64_t> candidates =
      DirectAddCandidates(*ctx.clean_csr.pattern(), request.target_node,
                          ctx.data->labels, request.target_label);
  for (int64_t step = 0; step < request.budget; ++step) {
    if (Cancelled(request)) {
      result.status = Status::TimedOut("deadline exceeded");
      break;
    }
    if (candidates.empty()) break;
    const auto pick = candidates.begin() + rng->UniformInt(
        0, static_cast<int64_t>(candidates.size()) - 1);
    result.added_edges.emplace_back(request.target_node, *pick);
    candidates.erase(pick);
  }
  return result;
}

}  // namespace geattack
