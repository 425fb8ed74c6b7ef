#include "src/service/graph_snapshot.h"

#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "src/tensor/csr.h"

namespace geattack {

namespace {

std::string EntryName(const char* kind, size_t i, const ChurnEdge& e) {
  return std::string("churn ") + kind + "[" + std::to_string(i) + "] = (" +
         std::to_string(e.u) + ", " + std::to_string(e.v) + ")";
}

}  // namespace

Status ValidateChurnBatch(const Graph& graph, const ChurnBatch& batch) {
  if (batch.added.empty() && batch.removed.empty())
    return Status::InvalidArgument(
        "empty churn batch (an epoch must change something)");
  const int64_t n = graph.num_nodes();
  std::set<std::pair<int64_t, int64_t>> seen;
  auto check = [&](const char* kind, const std::vector<ChurnEdge>& entries,
                   bool adding) -> Status {
    for (size_t i = 0; i < entries.size(); ++i) {
      const ChurnEdge& e = entries[i];
      if (!std::isfinite(e.weight) || e.weight != 1.0)
        return Status::InvalidArgument(
            EntryName(kind, i, e) + ": weight " + std::to_string(e.weight) +
            " is not the unit weight this unweighted graph supports");
      if (e.u < 0 || e.u >= n || e.v < 0 || e.v >= n)
        return Status::InvalidArgument(EntryName(kind, i, e) +
                                       ": endpoint out of range [0, " +
                                       std::to_string(n) + ")");
      if (e.u == e.v)
        return Status::InvalidArgument(EntryName(kind, i, e) + ": self loop");
      const auto key = std::minmax(e.u, e.v);
      if (!seen.insert({key.first, key.second}).second)
        return Status::InvalidArgument(
            EntryName(kind, i, e) + ": duplicate undirected pair in batch");
      if (adding && graph.HasEdge(e.u, e.v))
        return Status::InvalidArgument(EntryName(kind, i, e) +
                                       ": edge already present");
      if (!adding && !graph.HasEdge(e.u, e.v))
        return Status::InvalidArgument(EntryName(kind, i, e) +
                                       ": edge not present");
    }
    return Status::Ok();
  };
  Status s = check("add", batch.added, /*adding=*/true);
  if (!s.ok()) return s;
  return check("remove", batch.removed, /*adding=*/false);
}

std::vector<Edge> ChurnEdgesOf(const std::vector<ChurnEdge>& entries) {
  std::vector<Edge> out;
  out.reserve(entries.size());
  for (const ChurnEdge& e : entries) out.emplace_back(e.u, e.v);
  return out;
}

std::shared_ptr<const GraphSnapshot> MakeGraphSnapshot(
    const std::string& version, const GraphData& data, const Gcn& model,
    std::shared_ptr<const TargetedAttack> attack) {
  GEA_CHECK(!version.empty());
  GEA_CHECK(attack != nullptr);
  auto snap = std::make_shared<GraphSnapshot>();
  snap->version = version;
  snap->epoch = 0;
  snap->data = data;
  snap->model = std::make_shared<const Gcn>(model);
  snap->attack = std::move(attack);
  // Exactly the MakeSparseAttackContext recipe (src/eval/pipeline.cc)
  // over the snapshot-owned copies, pinned by
  // tests/live_graph_test.cc, so epoch 0 is bit-identical to the caller's
  // own offline context.
  AttackContext& ctx = snap->ctx;
  ctx.data = &snap->data;
  ctx.model = snap->model.get();
  ctx.clean_csr = snap->data.graph.CsrAdjacency();
  ctx.clean_norm_csr = GcnNormalizeCsr(ctx.clean_csr);
  ctx.clean_degp1 = Tensor(snap->data.num_nodes(), 1);
  for (int64_t i = 0; i < snap->data.num_nodes(); ++i)
    ctx.clean_degp1.at(i, 0) =
        static_cast<double>(snap->data.graph.Degree(i)) + 1.0;
  return snap;
}

std::shared_ptr<const GraphSnapshot> ApplyChurn(
    const std::shared_ptr<const GraphSnapshot>& prev,
    const ChurnBatch& batch) {
  GEA_CHECK(prev != nullptr);
  GEA_CHECK(ValidateChurnBatch(prev->data.graph, batch).ok());
  const std::vector<Edge> added = ChurnEdgesOf(batch.added);
  const std::vector<Edge> removed = ChurnEdgesOf(batch.removed);

  auto next = std::make_shared<GraphSnapshot>();
  next->version = prev->version;
  next->epoch = prev->epoch + 1;
  // The graph copy shares prev's rows; the flips below copy only the
  // endpoints' rows.
  next->data = prev->data;
  next->model = prev->model;
  next->attack = prev->attack;
  for (const Edge& e : added) GEA_CHECK(next->data.graph.AddEdge(e.u, e.v));
  for (const Edge& e : removed)
    GEA_CHECK(next->data.graph.RemoveEdge(e.u, e.v));

  AttackContext& ctx = next->ctx;
  ctx.data = &next->data;
  ctx.model = next->model.get();
  ctx.clean_csr = ApplyEdgeFlips(prev->ctx.clean_csr, added, removed);
  ctx.clean_norm_csr = GcnRenormalizeAfterFlips(
      prev->ctx.clean_norm_csr, prev->ctx.clean_degp1, added, removed);
  // Integer degree deltas on integer-valued doubles: exact, so the column
  // matches a fresh Degree(i) + 1.0 rebuild bit for bit.
  ctx.clean_degp1 = prev->ctx.clean_degp1;
  for (const Edge& e : added) {
    ctx.clean_degp1.at(e.u, 0) += 1.0;
    ctx.clean_degp1.at(e.v, 0) += 1.0;
  }
  for (const Edge& e : removed) {
    ctx.clean_degp1.at(e.u, 0) -= 1.0;
    ctx.clean_degp1.at(e.v, 0) -= 1.0;
  }
  // The cached folded forward (X·W₁) is a function of features and
  // weights only — both shared across epochs — so reuse it.
  ctx.scratch = prev->ctx.scratch;
  return next;
}

}  // namespace geattack
