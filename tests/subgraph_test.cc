// Tests of the SubgraphView candidate-edge layer and the sparse
// differentiable forward built on it: structural invariants, the one-pass
// builder against the former two-pass builder field by field, exact
// agreement with the dense normalization/forward, the attackers' dense
// outputs, and the Nettack trial-row helper.

#include "src/graph/subgraph.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/attack/attack.h"
#include "src/attack/fga.h"
#include "src/attack/fga_te.h"
#include "src/attack/ig_attack.h"
#include "src/core/geattack.h"
#include "src/eval/pipeline.h"
#include "src/graph/generators.h"
#include "src/nn/linearized_gcn.h"
#include "src/nn/sparse_forward.h"
#include "src/nn/trainer.h"
#include "tests/test_util.h"

namespace geattack {
namespace {

struct Fixture {
  GraphData data;
  std::unique_ptr<Gcn> model;
  Tensor xw1;
};

Fixture* SharedFixture() {
  static Fixture* fixture = [] {
    auto* f = new Fixture();
    Rng rng(77);
    CitationGraphConfig cfg;
    cfg.num_nodes = 80;
    cfg.num_edges = 200;
    cfg.num_classes = 3;
    cfg.feature_dim = 24;
    f->data = KeepLargestConnectedComponent(GenerateCitationGraph(cfg, &rng));
    Split split = MakeSplit(f->data, 0.1, 0.1, &rng);
    TrainConfig tc;
    tc.epochs = 30;
    f->model = std::make_unique<Gcn>(TrainNewGcn(f->data, split, tc, &rng));
    f->xw1 = f->data.features.MatMul(f->model->w1());
    return f;
  }();
  return fixture;
}

std::vector<int64_t> SomeCandidates(const Graph& g, int64_t target,
                                    size_t max_count) {
  std::vector<int64_t> candidates;
  for (int64_t j = 0; j < g.num_nodes() && candidates.size() < max_count;
       ++j) {
    if (j == target || g.HasEdge(target, j)) continue;
    candidates.push_back(j);
  }
  return candidates;
}

TEST(SubgraphViewTest, FullViewStructure) {
  Fixture* f = SharedFixture();
  const Graph& g = f->data.graph;
  const int64_t target = 0;
  const auto candidates = SomeCandidates(g, target, 5);
  const SubgraphView view = BuildSubgraphView(g, target, -1, candidates);

  EXPECT_TRUE(view.full());
  EXPECT_EQ(view.num_nodes(), g.num_nodes());
  EXPECT_EQ(view.num_edges(), g.num_edges());
  EXPECT_EQ(view.num_candidates(), static_cast<int64_t>(candidates.size()));
  EXPECT_TRUE(view.pattern->CheckInvariants());
  // nnz = 2 edges + 2 candidates + diagonal.
  EXPECT_EQ(view.pattern->nnz(),
            2 * g.num_edges() + 2 * view.num_candidates() + g.num_nodes());
  // Full view: no out-of-view edges.
  for (int64_t i = 0; i < view.num_nodes(); ++i)
    EXPECT_EQ(view.out_degree.at(i, 0), 0.0);
  // Every undirected slot has exactly two directed positions.
  for (const auto& [a, b] : view.slot_nnz) {
    EXPECT_GE(a, 0);
    EXPECT_GE(b, 0);
    EXPECT_NE(a, b);
  }
  // EdgeSlot round-trips edges and candidates.
  for (int64_t s = 0; s < view.num_edges(); ++s) {
    const IndexPair& e = view.edges_local[static_cast<size_t>(s)];
    EXPECT_EQ(view.EdgeSlot(e.u, e.v), s);
    EXPECT_EQ(view.EdgeSlot(e.v, e.u), s);
  }
  for (int64_t k = 0; k < view.num_candidates(); ++k) {
    EXPECT_EQ(view.EdgeSlot(view.target_local,
                            view.candidates_local[static_cast<size_t>(k)]),
              view.num_edges() + k);
  }
}

TEST(SubgraphViewTest, KHopBallAndOutDegrees) {
  Fixture* f = SharedFixture();
  const Graph& g = f->data.graph;
  const int64_t target = 3;
  const auto candidates = SomeCandidates(g, target, 4);
  const SubgraphView view = BuildSubgraphView(g, target, 2, candidates);

  // Node set: the 2-hop ball around the target in the augmented graph.
  Graph augmented = g;
  for (int64_t c : candidates) augmented.AddEdge(target, c);
  const auto expected = augmented.KHopNeighborhood(target, 2);
  ASSERT_EQ(view.nodes.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(view.nodes[i], expected[i]);

  // out_degree + internal degree == global degree.
  for (int64_t l = 0; l < view.num_nodes(); ++l) {
    const int64_t global = view.nodes[static_cast<size_t>(l)];
    int64_t internal = 0;
    for (const IndexPair& e : view.edges_local)
      if (e.u == l || e.v == l) ++internal;
    EXPECT_EQ(view.out_degree.at(l, 0) + static_cast<double>(internal),
              g.Degree(global));
  }
}

// ---------------------------------------------------------------------------
// Builder oracle: the former builder, kept verbatim as the reference.  It
// grew and sorted one vector per row and found every clean nonzero's slot
// by binary search over edges_local; BuildSubgraphView must equal it field
// by field from both row sources.
// ---------------------------------------------------------------------------

/// CSR with at most one unit entry per row: row r carries a 1.0 at column
/// col_of_row[r], or nothing when col_of_row[r] < 0.
std::shared_ptr<const CsrMatrix> ReferenceUnitSelector(
    int64_t rows, int64_t cols, const std::vector<int64_t>& col_of_row) {
  auto p = std::make_shared<CsrPattern>();
  p->rows = rows;
  p->cols = cols;
  p->row_ptr.reserve(ZU(rows) + 1);
  p->row_ptr.push_back(0);
  for (int64_t r = 0; r < rows; ++r) {
    if (col_of_row[ZU(r)] >= 0)
      p->col_idx.push_back(col_of_row[ZU(r)]);
    p->row_ptr.push_back(static_cast<int64_t>(p->col_idx.size()));
  }
  std::vector<double> values(p->col_idx.size(), 1.0);
  return std::make_shared<const CsrMatrix>(std::move(p), std::move(values));
}

SubgraphView ReferenceBuildSubgraphView(
    const Graph& graph, int64_t target, int hops,
    const std::vector<int64_t>& candidates_global) {
  const int64_t n = graph.num_nodes();
  GEA_CHECK(target >= 0 && target < n);
  for (int64_t c : candidates_global) {
    GEA_CHECK(c >= 0 && c < n && c != target);
    GEA_CHECK(!graph.HasEdge(target, c));
  }

  SubgraphView view;
  view.candidates_global = candidates_global;
  view.global_to_local.assign(ZU(n), -1);

  // ----- Node set: hops-hop ball around the target in the augmented graph
  // (the candidate edges put every candidate at distance 1). -----
  if (hops < 0) {
    view.nodes.resize(ZU(n));
    for (int64_t i = 0; i < n; ++i) view.nodes[ZU(i)] = i;
  } else {
    std::vector<int> dist(ZU(n), -1);
    std::queue<int64_t> q;
    dist[ZU(target)] = 0;
    q.push(target);
    if (hops >= 1) {
      for (int64_t c : candidates_global) {
        if (dist[ZU(c)] < 0) {
          dist[ZU(c)] = 1;
          q.push(c);
        }
      }
    }
    while (!q.empty()) {
      const int64_t u = q.front();
      q.pop();
      if (dist[ZU(u)] >= hops) continue;
      for (int64_t w : graph.Neighbors(u)) {
        if (dist[ZU(w)] < 0) {
          dist[ZU(w)] = dist[ZU(u)] + 1;
          q.push(w);
        }
      }
    }
    for (int64_t i = 0; i < n; ++i)
      if (dist[ZU(i)] >= 0) view.nodes.push_back(i);
  }
  for (size_t l = 0; l < view.nodes.size(); ++l)
    view.global_to_local[ZU(view.nodes[l])] =
        static_cast<int64_t>(l);
  view.target_local = view.global_to_local[ZU(target)];
  const int64_t ns = view.num_nodes();

  view.candidates_local.reserve(candidates_global.size());
  for (int64_t c : candidates_global) {
    const int64_t lc = view.global_to_local[ZU(c)];
    GEA_CHECK(lc >= 0);  // Candidates are in the ball by construction.
    view.candidates_local.push_back(lc);
  }
  const int64_t m = view.num_candidates();

  // ----- Induced clean edges and out-degrees. -----
  view.out_degree = Tensor(ns, 1);
  for (int64_t l = 0; l < ns; ++l) {
    const int64_t g = view.nodes[ZU(l)];
    int64_t internal = 0;
    for (int64_t w : graph.Neighbors(g)) {
      const int64_t lw = view.global_to_local[ZU(w)];
      if (lw < 0) continue;
      ++internal;
      if (l < lw) view.edges_local.push_back({l, lw});
    }
    view.out_degree.at(l, 0) =
        static_cast<double>(graph.Degree(g) - internal);
  }
  // edges_local is already canonical-sorted: outer loop ascends l and
  // Neighbors() is an ordered set, so (l, lw) pairs with l < lw come out in
  // (u, v) lexicographic order.
  const int64_t num_edges = view.num_edges();
  const int64_t num_slots = num_edges + m;

  // ----- Augmented pattern: per-row sorted columns. -----
  std::vector<std::vector<int64_t>> rows(ZU(ns));
  for (int64_t l = 0; l < ns; ++l) rows[ZU(l)].push_back(l);
  for (const IndexPair& e : view.edges_local) {
    rows[ZU(e.u)].push_back(e.v);
    rows[ZU(e.v)].push_back(e.u);
  }
  for (int64_t lc : view.candidates_local) {
    rows[ZU(view.target_local)].push_back(lc);
    rows[ZU(lc)].push_back(view.target_local);
  }
  auto pattern = std::make_shared<CsrPattern>();
  pattern->rows = pattern->cols = ns;
  pattern->row_ptr.reserve(ZU(ns) + 1);
  pattern->row_ptr.push_back(0);
  for (int64_t l = 0; l < ns; ++l) {
    auto& row = rows[ZU(l)];
    std::sort(row.begin(), row.end());
    pattern->col_idx.insert(pattern->col_idx.end(), row.begin(), row.end());
    pattern->row_ptr.push_back(static_cast<int64_t>(pattern->col_idx.size()));
  }
  const int64_t nnz = pattern->nnz();

  // ----- Slot bookkeeping: classify every nnz position. -----
  // slot_of_local_pair: for (u,v) with u < v, the undirected slot id.
  view.slot_nnz.assign(ZU(num_slots), {-1, -1});
  view.diag_nnz.assign(ZU(ns), -1);
  std::vector<int64_t> slot_of_nnz(ZU(nnz), -1);
  std::vector<int64_t> cand_of_nnz(ZU(nnz), -1);
  // Candidate lookup for rows incident to the target.
  std::vector<int64_t> cand_index_of_local(ZU(ns), -1);
  for (int64_t k = 0; k < m; ++k)
    cand_index_of_local[ZU(view.candidates_local[ZU(k)])] = k;

  // Walk rows, resolving each (i, j) to diag / clean-edge / candidate.
  // Clean-edge slot ids are recovered by the same lexicographic order used
  // to emit edges_local.
  {
    // Map canonical pair -> slot via binary search on edges_local.
    auto edge_slot = [&view](int64_t u, int64_t v) {
      const IndexPair key{std::min(u, v), std::max(u, v)};
      const auto it = std::lower_bound(
          view.edges_local.begin(), view.edges_local.end(), key,
          [](const IndexPair& a, const IndexPair& b) {
            return a.u != b.u ? a.u < b.u : a.v < b.v;
          });
      GEA_CHECK(it != view.edges_local.end() && it->u == key.u &&
                it->v == key.v);
      return static_cast<int64_t>(it - view.edges_local.begin());
    };
    for (int64_t i = 0; i < ns; ++i) {
      for (int64_t e = pattern->row_ptr[ZU(i)]; e < pattern->row_ptr[ZU(i + 1)];
           ++e) {
        const int64_t j = pattern->col_idx[ZU(e)];
        if (i == j) {
          view.diag_nnz[ZU(i)] = e;
          continue;
        }
        int64_t slot;
        const bool target_row = i == view.target_local ||
                                j == view.target_local;
        const int64_t other = i == view.target_local ? j : i;
        const int64_t cand =
            target_row ? cand_index_of_local[ZU(other)] : -1;
        if (cand >= 0) {
          slot = num_edges + cand;
          cand_of_nnz[ZU(e)] = cand;
        } else {
          slot = edge_slot(i, j);
        }
        slot_of_nnz[ZU(e)] = slot;
        auto& pair = view.slot_nnz[ZU(slot)];
        (pair.first < 0 ? pair.first : pair.second) = e;
      }
    }
  }

  // ----- Base values. -----
  view.base_values = Tensor(nnz, 1);
  for (int64_t e = 0; e < nnz; ++e) {
    const int64_t slot = slot_of_nnz[ZU(e)];
    view.base_values.at(e, 0) =
        (slot < 0 /* diag */ || slot < num_edges) ? 1.0 : 0.0;
  }
  view.und_base = Tensor(num_slots, 1);
  for (int64_t s = 0; s < num_edges; ++s) view.und_base.at(s, 0) = 1.0;

  // ----- Constant operators. -----
  view.slot_expand = ReferenceUnitSelector(nnz, num_slots, slot_of_nnz);
  view.cand_expand = ReferenceUnitSelector(nnz, m, cand_of_nnz);
  {
    std::vector<int64_t> pad(ZU(num_slots), -1);
    for (int64_t k = 0; k < m; ++k)
      pad[ZU(num_edges + k)] = k;
    view.cand_slot_pad = ReferenceUnitSelector(num_slots, m, pad);
    std::vector<int64_t> take(ZU(m));
    for (int64_t k = 0; k < m; ++k)
      take[ZU(k)] = num_edges + k;
    view.cand_slot_take = ReferenceUnitSelector(m, num_slots, take);
  }

  view.pattern = std::move(pattern);
  return view;
}

void ExpectSameTensor(const Tensor& got, const Tensor& want,
                      const std::string& what) {
  EXPECT_EQ(got.rows(), want.rows()) << what;
  EXPECT_EQ(got.cols(), want.cols()) << what;
  EXPECT_EQ(got.data(), want.data()) << what;
}

void ExpectSamePattern(const CsrPattern& got, const CsrPattern& want,
                       const std::string& what) {
  EXPECT_EQ(got.rows, want.rows) << what;
  EXPECT_EQ(got.cols, want.cols) << what;
  EXPECT_EQ(got.row_ptr, want.row_ptr) << what;
  EXPECT_EQ(got.col_idx, want.col_idx) << what;
}

void ExpectSameOperator(const CsrMatrix& got, const CsrMatrix& want,
                        const std::string& what) {
  ExpectSamePattern(*got.pattern(), *want.pattern(), what);
  EXPECT_EQ(got.values(), want.values()) << what;
}

void ExpectSameView(const SubgraphView& got, const SubgraphView& want,
                    const std::string& where) {
  EXPECT_EQ(got.nodes, want.nodes) << where;
  EXPECT_EQ(got.global_to_local, want.global_to_local) << where;
  EXPECT_EQ(got.target_local, want.target_local) << where;
  EXPECT_EQ(got.candidates_global, want.candidates_global) << where;
  EXPECT_EQ(got.candidates_local, want.candidates_local) << where;
  ASSERT_EQ(got.edges_local.size(), want.edges_local.size()) << where;
  for (size_t s = 0; s < want.edges_local.size(); ++s) {
    EXPECT_EQ(got.edges_local[s].u, want.edges_local[s].u) << where;
    EXPECT_EQ(got.edges_local[s].v, want.edges_local[s].v) << where;
  }
  ExpectSamePattern(*got.pattern, *want.pattern, where + " pattern");
  EXPECT_EQ(got.slot_nnz, want.slot_nnz) << where;
  EXPECT_EQ(got.diag_nnz, want.diag_nnz) << where;
  ExpectSameTensor(got.base_values, want.base_values, where + " base");
  ExpectSameTensor(got.und_base, want.und_base, where + " und_base");
  ExpectSameTensor(got.out_degree, want.out_degree, where + " out_degree");
  ExpectSameOperator(*got.slot_expand, *want.slot_expand,
                     where + " slot_expand");
  ExpectSameOperator(*got.cand_expand, *want.cand_expand,
                     where + " cand_expand");
  ExpectSameOperator(*got.cand_slot_pad, *want.cand_slot_pad,
                     where + " cand_slot_pad");
  ExpectSameOperator(*got.cand_slot_take, *want.cand_slot_take,
                     where + " cand_slot_take");
}

/// Candidate lists the callers pass: every non-neighbour ascending (the
/// attackers), the same shuffled, one label's non-neighbours, and none (the
/// explainers).
std::vector<std::pair<std::string, std::vector<int64_t>>> CandidateLists(
    const GraphData& data, int64_t target, Rng* rng) {
  const std::vector<int64_t> all =
      DirectAddCandidates(data.graph, target, data.labels, -1);
  std::vector<int64_t> shuffled = all;
  rng->Shuffle(&shuffled);
  return {{"ascending", all},
          {"shuffled", shuffled},
          {"label-filtered",
           DirectAddCandidates(data.graph, target, data.labels,
                               (data.labels[ZU(target)] + 1) %
                                   data.num_classes)},
          {"empty", {}}};
}

void ExpectBuilderMatchesReference(const GraphData& data,
                                   const std::string& name) {
  const Graph& g = data.graph;
  const CsrMatrix csr = g.CsrAdjacency();
  int64_t hub = 0;
  for (int64_t i = 1; i < g.num_nodes(); ++i)
    if (g.Degree(i) > g.Degree(hub)) hub = i;
  Rng rng(11);
  for (const int64_t target : {int64_t{0}, g.num_nodes() / 2, hub,
                               g.num_nodes() - 1}) {
    for (const auto& [kind, candidates] : CandidateLists(data, target, &rng)) {
      for (const int hops : {-1, 0, 1, 2}) {
        // A 0-hop ball holds only the target, so it admits no candidate.
        if (hops == 0 && !candidates.empty()) continue;
        const std::string where = name + " target " + std::to_string(target) +
                                  " hops " + std::to_string(hops) + " " +
                                  kind;
        const SubgraphView want =
            ReferenceBuildSubgraphView(g, target, hops, candidates);
        ExpectSameView(BuildSubgraphView(g, target, hops, candidates), want,
                       where + " (graph rows)");
        ExpectSameView(
            BuildSubgraphView(*csr.pattern(), target, hops, candidates), want,
            where + " (csr rows)");
      }
    }
  }
}

TEST(SubgraphBuilderOracleTest, OnePassViewEqualsReferenceFieldByField) {
  ExpectBuilderMatchesReference(SharedFixture()->data, "fixture");
  Rng rng(5);
  CitationGraphConfig cfg;
  cfg.num_nodes = 400;
  cfg.num_edges = 1200;
  cfg.num_classes = 4;
  cfg.feature_dim = 8;
  ExpectBuilderMatchesReference(GenerateCitationGraph(cfg, &rng), "n400");
}

TEST(SubgraphBuilderOracleTest, CsrCandidatesMatchGraphCandidates) {
  const GraphData& data = SharedFixture()->data;
  const CsrMatrix csr = data.graph.CsrAdjacency();
  for (int64_t v = 0; v < data.num_nodes(); v += 7) {
    for (const int64_t label : {int64_t{-1}, int64_t{0}, int64_t{2}}) {
      EXPECT_EQ(DirectAddCandidates(*csr.pattern(), v, data.labels, label),
                DirectAddCandidates(data.graph, v, data.labels, label))
          << "node " << v << " label " << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Attackers that no longer copy the clean graph.
// ---------------------------------------------------------------------------

/// The clean Graph with the picks added, densified — what
/// DensePerturbedAdjacency must equal without copying the Graph.
Tensor DenseOfPerturbedGraph(const Graph& clean,
                             const std::vector<Edge>& added) {
  Graph perturbed = clean;
  for (const Edge& e : added) perturbed.AddEdge(e.u, e.v);
  return perturbed.DenseAdjacency();
}

std::vector<AttackRequest> SomeRequests(const Fixture& f,
                                        const AttackContext& ctx) {
  const Tensor logits =
      f.model->LogitsFromRaw(ctx.clean_adjacency, f.data.features);
  std::vector<AttackRequest> requests;
  for (const int64_t v : {int64_t{1}, int64_t{13}}) {
    const int64_t label = (logits.ArgMaxRow(v) + 1) % f.data.num_classes;
    requests.push_back({v, label, /*budget=*/2});
  }
  return requests;
}

TEST(DensePerturbedAdjacencyTest, EqualsDensifiedPerturbedGraph) {
  Fixture* f = SharedFixture();
  const AttackContext ctx = MakeAttackContext(f->data, *f->model);
  const std::vector<AttackRequest> requests = SomeRequests(*f, ctx);
  GeAttackConfig ge_config;
  ge_config.inner_steps = 1;
  IgAttackConfig ig_config;
  ig_config.steps = 2;
  ig_config.shortlist = 3;
  const FgaAttack fga_t(/*targeted=*/true);
  const GeAttack geattack(ge_config);
  const IgAttack ig(ig_config);
  for (const TargetedAttack* attack :
       std::vector<const TargetedAttack*>{&fga_t, &geattack, &ig}) {
    for (size_t i = 0; i < requests.size(); ++i) {
      const std::string where =
          attack->name() + " request " + std::to_string(i);
      Rng rng(40 + i);
      const AttackResult single = attack->Attack(ctx, requests[i], &rng);
      EXPECT_FALSE(single.added_edges.empty()) << where;
      ExpectSameTensor(DensePerturbedAdjacency(ctx, single.added_edges),
                       DenseOfPerturbedGraph(f->data.graph,
                                             single.added_edges),
                       where);
    }
  }
}

/// FGA-T&E that records, per greedy round, the graph its exclusion set was
/// computed on and the nodes it excluded.
class RecordingFgaTe : public FgaTeAttack {
 public:
  struct Round {
    std::vector<Edge> graph_edges;
    std::vector<int64_t> excluded;
  };
  explicit RecordingFgaTe(std::vector<Round>* rounds)
      : FgaTeAttack(GnnExplainerConfig{.epochs = 10}), rounds_(rounds) {}

 protected:
  std::vector<int64_t> ExcludedNodes(const AttackContext& ctx,
                                     const Graph& current,
                                     const AttackRequest& request)
      const override {
    std::vector<int64_t> excluded =
        FgaTeAttack::ExcludedNodes(ctx, current, request);
    rounds_->push_back({current.Edges(), excluded});
    return excluded;
  }

 private:
  std::vector<Round>* rounds_;
};

TEST(DensePerturbedAdjacencyTest, FgaTeExclusionSeesEarlierPicks) {
  Fixture* f = SharedFixture();
  const AttackContext ctx = MakeAttackContext(f->data, *f->model);
  for (const AttackRequest& request : SomeRequests(*f, ctx)) {
    std::vector<RecordingFgaTe::Round> rounds;
    const RecordingFgaTe attack(&rounds);
    Rng rng(1);
    const AttackResult result = attack.Attack(ctx, request, &rng);
    const std::string where = "target " + std::to_string(request.target_node);
    ASSERT_GE(result.added_edges.size(), 2u) << where;
    ASSERT_GE(rounds.size(), result.added_edges.size()) << where;
    for (size_t r = 0; r < result.added_edges.size(); ++r) {
      // Round r explains the clean graph plus picks 0..r-1 ...
      Graph expected = f->data.graph;
      for (size_t p = 0; p < r; ++p)
        expected.AddEdge(result.added_edges[p].u, result.added_edges[p].v);
      EXPECT_EQ(rounds[r].graph_edges, expected.Edges())
          << where << " round " << r;
      // ... and its pick avoids that round's explanation nodes.
      const Edge& pick = result.added_edges[r];
      const int64_t other =
          pick.u == request.target_node ? pick.v : pick.u;
      EXPECT_EQ(std::count(rounds[r].excluded.begin(),
                           rounds[r].excluded.end(), other),
                0)
          << where << " round " << r;
    }
  }
}

TEST(SparseForwardTest, MatchesDenseNormalizationAndLogits) {
  Fixture* f = SharedFixture();
  const Graph& g = f->data.graph;
  const int64_t target = 1;
  const auto candidates = SomeCandidates(g, target, 6);
  const SubgraphView view = BuildSubgraphView(g, target, -1, candidates);
  const SparseAttackForward sf =
      MakeSparseAttackForward(view, *f->model, f->xw1);

  // Relax two candidates to fractional values; the rest stay 0.
  Tensor w = Tensor::Zeros(view.num_candidates(), 1);
  w.at(0, 0) = 0.7;
  w.at(2, 0) = 0.3;
  Tensor dense_adj = g.DenseAdjacency();
  dense_adj.at(target, candidates[0]) = 0.7;
  dense_adj.at(candidates[0], target) = 0.7;
  dense_adj.at(target, candidates[2]) = 0.3;
  dense_adj.at(candidates[2], target) = 0.3;

  const Var wv = Var::Leaf(w);
  const Var logits =
      SparseGcnLogitsVar(sf, RawValuesFromCandidates(sf, wv));
  const Tensor dense_logits =
      f->model->LogitsFromRaw(dense_adj, f->data.features);
  // Local node l maps to global view.nodes[l] (identity on a full view).
  EXPECT_LE(logits.value().MaxAbsDiff(dense_logits), 1e-9);
}

TEST(SparseForwardTest, KHopViewExactAtTargetRow) {
  // A 2-hop view (the GCN's depth) with out-degree correction reproduces
  // the dense logits *row* of the target exactly.
  Fixture* f = SharedFixture();
  const Graph& g = f->data.graph;
  const int64_t target = 5;
  const auto candidates = SomeCandidates(g, target, 3);
  const SubgraphView view = BuildSubgraphView(g, target, 2, candidates);
  const SparseAttackForward sf =
      MakeSparseAttackForward(view, *f->model, f->xw1);

  Tensor w = Tensor::Zeros(view.num_candidates(), 1);
  w.at(1, 0) = 0.5;
  Tensor dense_adj = g.DenseAdjacency();
  dense_adj.at(target, candidates[1]) = 0.5;
  dense_adj.at(candidates[1], target) = 0.5;

  const Var logits =
      SparseGcnLogitsVar(sf, RawValuesFromCandidates(sf, Var::Leaf(w)));
  const Tensor dense_logits =
      f->model->LogitsFromRaw(dense_adj, f->data.features);
  for (int64_t c = 0; c < dense_logits.cols(); ++c)
    EXPECT_NEAR(logits.value().at(view.target_local, c),
                dense_logits.at(target, c), 1e-9);
}

TEST(SparseForwardTest, CommitCandidateMatchesDiscreteEdge) {
  Fixture* f = SharedFixture();
  const Graph& g = f->data.graph;
  const int64_t target = 2;
  const auto candidates = SomeCandidates(g, target, 4);
  const SubgraphView view = BuildSubgraphView(g, target, -1, candidates);
  SparseAttackForward sf = MakeSparseAttackForward(view, *f->model, f->xw1);
  CommitCandidate(&sf, 1);

  Graph perturbed = g;
  perturbed.AddEdge(target, candidates[1]);
  const Var logits = SparseGcnLogitsVar(
      sf, RawValuesFromCandidates(
              sf, Var::Leaf(Tensor::Zeros(view.num_candidates(), 1))));
  const Tensor expected =
      f->model->LogitsFromGraph(perturbed, f->data.features);
  EXPECT_LE(logits.value().MaxAbsDiff(expected), 1e-9);
}

TEST(SparseForwardTest, CandidateGradientMatchesDenseAdjacencyGradient) {
  Fixture* f = SharedFixture();
  const Graph& g = f->data.graph;
  const int64_t target = 4;
  const auto candidates = SomeCandidates(g, target, 8);
  const SubgraphView view = BuildSubgraphView(g, target, -1, candidates);
  const SparseAttackForward sf =
      MakeSparseAttackForward(view, *f->model, f->xw1);

  Var w = Var::Leaf(Tensor::Zeros(view.num_candidates(), 1), true, "w");
  Var loss = NllRow(SparseGcnLogitsVar(sf, RawValuesFromCandidates(sf, w)),
                    view.target_local, 1);
  const Tensor gw = GradOne(loss, w).value();

  const GcnForwardContext fwd = MakeForwardContext(*f->model,
                                                   f->data.features);
  Var adj = Var::Leaf(g.DenseAdjacency(), true, "A");
  Var dense_loss = TargetedAttackLoss(fwd, adj, target, 1);
  const Tensor q = GradOne(dense_loss, adj).value();
  for (size_t k = 0; k < candidates.size(); ++k) {
    const double dense_score =
        q.at(target, candidates[k]) + q.at(candidates[k], target);
    EXPECT_NEAR(gw.at(static_cast<int64_t>(k), 0), dense_score, 1e-9);
  }
}

TEST(SparseForwardTest, SecondOrderThroughNormalizedValues) {
  // Double backward through the normalized candidate-value forward (the
  // machinery the GEAttack hypergradient rides on).
  Fixture* f = SharedFixture();
  const Graph& g = f->data.graph;
  const int64_t target = 4;
  const auto candidates = SomeCandidates(g, target, 3);
  const SubgraphView view = BuildSubgraphView(g, target, 2, candidates);
  const SparseAttackForward sf =
      MakeSparseAttackForward(view, *f->model, f->xw1);
  auto fn = [&](const Var& w) {
    return NllRow(SparseGcnLogitsVar(sf, RawValuesFromCandidates(sf, w)),
                  view.target_local, 1);
  };
  Rng rng(5);
  Tensor w0 = rng.UniformTensor(view.num_candidates(), 1, 0.1, 0.9);
  geattack::testing::ExpectGradientsMatch(fn, w0, 2e-5);
  geattack::testing::ExpectSecondOrderMatch(fn, w0, 5e-4);
}

TEST(LinearizedTrialRowTest, MatchesDenseTrialNormalization) {
  Fixture* f = SharedFixture();
  const Graph& g = f->data.graph;
  const LinearizedGcn surrogate(*f->model, f->data.features);
  const CsrMatrix norm = NormalizeAdjacencyCsr(g);
  std::vector<double> degp1(static_cast<size_t>(g.num_nodes()));
  for (int64_t i = 0; i < g.num_nodes(); ++i)
    degp1[static_cast<size_t>(i)] = static_cast<double>(g.Degree(i)) + 1.0;

  const int64_t v = 7;
  const Tensor dense = g.DenseAdjacency();
  int64_t checked = 0;
  for (int64_t j = 0; j < g.num_nodes() && checked < 5; ++j) {
    if (j == v || g.HasEdge(v, j)) continue;
    ++checked;
    Tensor trial = dense;
    AddEdgeDense(&trial, v, j);
    const Tensor expected = surrogate.LogitsRow(trial, v);
    const Tensor got = surrogate.LogitsRowWithEdgeAdded(norm, degp1, v, j);
    EXPECT_LE(got.MaxAbsDiff(expected), 1e-9) << "candidate " << j;
  }
  EXPECT_EQ(checked, 5);
}

}  // namespace
}  // namespace geattack
