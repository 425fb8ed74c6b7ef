// Unit tests for the Graph structure and GCN normalization.

#include "src/graph/graph.h"

#include <cmath>
#include <latch>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/tensor/autodiff.h"
#include "src/tensor/random.h"
#include "tests/test_util.h"

namespace geattack {
namespace {

Graph PathGraph(int64_t n) {
  Graph g(n);
  for (int64_t i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
  return g;
}

TEST(EdgeTest, CanonicalOrder) {
  Edge e(5, 2);
  EXPECT_EQ(e.u, 2);
  EXPECT_EQ(e.v, 5);
  EXPECT_EQ(e, Edge(2, 5));
  EXPECT_LT(Edge(1, 2), Edge(1, 3));
  EXPECT_LT(Edge(1, 9), Edge(2, 3));
}

TEST(GraphTest, AddRemoveEdge) {
  Graph g(4);
  EXPECT_TRUE(g.AddEdge(0, 1));
  EXPECT_FALSE(g.AddEdge(1, 0));  // Duplicate (undirected).
  EXPECT_FALSE(g.AddEdge(2, 2));  // Self loop rejected.
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.RemoveEdge(0, 1));
  EXPECT_FALSE(g.RemoveEdge(0, 1));
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(GraphTest, DegreesAndNeighbors) {
  Graph g = PathGraph(4);
  EXPECT_EQ(g.Degree(0), 1);
  EXPECT_EQ(g.Degree(1), 2);
  EXPECT_EQ(g.Neighbors(1).count(0), 1u);
  EXPECT_EQ(g.Neighbors(1).count(2), 1u);
}

TEST(GraphTest, EdgesCanonical) {
  Graph g = PathGraph(3);
  auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], Edge(0, 1));
  EXPECT_EQ(edges[1], Edge(1, 2));
}

TEST(GraphTest, DenseAdjacencySymmetricZeroDiagonal) {
  Graph g = PathGraph(5);
  Tensor a = g.DenseAdjacency();
  EXPECT_LE(a.MaxAbsDiff(a.Transposed()), 0.0);
  for (int64_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(a.at(i, i), 0.0);
  EXPECT_DOUBLE_EQ(a.Sum(), 8.0);  // 4 edges * 2.
}

TEST(GraphTest, FromDenseRoundTrip) {
  Rng rng(3);
  Graph g(8);
  for (int i = 0; i < 10; ++i)
    g.AddEdge(rng.UniformInt(0, 7), rng.UniformInt(0, 7));
  Graph h = Graph::FromDense(g.DenseAdjacency());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (int64_t u = 0; u < 8; ++u)
    for (int64_t v = 0; v < 8; ++v)
      EXPECT_EQ(g.HasEdge(u, v), h.HasEdge(u, v)) << u << "," << v;
}

TEST(GraphTest, KHopNeighborhood) {
  Graph g = PathGraph(6);
  auto one_hop = g.KHopNeighborhood(2, 1);
  EXPECT_EQ(one_hop, (std::vector<int64_t>{1, 2, 3}));
  auto two_hop = g.KHopNeighborhood(2, 2);
  EXPECT_EQ(two_hop, (std::vector<int64_t>{0, 1, 2, 3, 4}));
  auto zero_hop = g.KHopNeighborhood(2, 0);
  EXPECT_EQ(zero_hop, (std::vector<int64_t>{2}));
}

TEST(GraphTest, ConnectedComponents) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  auto comp = g.ConnectedComponents();
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[5], comp[0]);
  EXPECT_NE(comp[5], comp[3]);
}

TEST(GraphTest, LargestConnectedComponent) {
  Graph g(7);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);  // Component of size 4.
  g.AddEdge(4, 5);  // Component of size 2; node 6 isolated.
  std::vector<int64_t> mapping;
  Graph lcc = g.LargestConnectedComponent(&mapping);
  EXPECT_EQ(lcc.num_nodes(), 4);
  EXPECT_EQ(lcc.num_edges(), 3);
  EXPECT_EQ(mapping, (std::vector<int64_t>{0, 1, 2, 3}));
  EXPECT_TRUE(lcc.CheckInvariants());
}

TEST(GraphTest, CheckInvariantsHolds) {
  Rng rng(5);
  Graph g(30);
  for (int i = 0; i < 60; ++i)
    g.AddEdge(rng.UniformInt(0, 29), rng.UniformInt(0, 29));
  EXPECT_TRUE(g.CheckInvariants());
}

TEST(NormalizeAdjacencyTest, SymmetricAndRowStructure) {
  Graph g = PathGraph(4);
  Tensor norm = NormalizeAdjacency(g.DenseAdjacency());
  EXPECT_LE(norm.MaxAbsDiff(norm.Transposed()), 1e-12);
  // Path graph: node 0 has degree 1 (+self = 2), node 1 degree 2 (+self = 3).
  EXPECT_NEAR(norm.at(0, 0), 1.0 / 2.0, 1e-12);
  EXPECT_NEAR(norm.at(0, 1), 1.0 / std::sqrt(6.0), 1e-12);
  EXPECT_NEAR(norm.at(1, 1), 1.0 / 3.0, 1e-12);
}

TEST(NormalizeAdjacencyTest, IsolatedGraphGivesIdentity) {
  Tensor a(3, 3);
  Tensor norm = NormalizeAdjacency(a);
  EXPECT_LE(norm.MaxAbsDiff(Tensor::Identity(3)), 1e-12);
}

TEST(NormalizeAdjacencyTest, VarMatchesTensorPath) {
  Rng rng(9);
  Tensor a = rng.UniformTensor(6, 6, 0, 1).Map(
      [](double v) { return v > 0.6 ? 1.0 : 0.0; });
  // Symmetrize, zero diagonal.
  a = a.BroadcastBinary(a, [](double x, double) { return x; });
  Tensor sym(6, 6);
  for (int64_t i = 0; i < 6; ++i)
    for (int64_t j = 0; j < 6; ++j)
      sym.at(i, j) = i == j ? 0.0 : std::max(a.at(i, j), a.at(j, i));
  Tensor fixed = NormalizeAdjacency(sym);
  Var v = NormalizeAdjacencyVar(Constant(sym));
  EXPECT_LE(v.value().MaxAbsDiff(fixed), 1e-12);
}

TEST(NormalizeAdjacencyTest, GradientMatchesFiniteDifferences) {
  Rng rng(21);
  Tensor a = rng.UniformTensor(5, 5, 0.1, 0.9);
  auto fn = [&rng](const Var& adj) {
    Rng local(77);
    Var x = Constant(local.NormalTensor(adj.rows(), 3, 0, 1));
    return Sum(Mul(MatMul(NormalizeAdjacencyVar(adj), x),
                   MatMul(NormalizeAdjacencyVar(adj), x)));
  };
  geattack::testing::ExpectGradientsMatch(fn, a, 2e-5);
}

// ----- CSR views and incremental updates. -----------------------------------

Graph RandomGraph(int64_t n, double p, uint64_t seed) {
  Rng rng(seed);
  Graph g(n);
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = i + 1; j < n; ++j)
      if (rng.Bernoulli(p)) g.AddEdge(i, j);
  return g;
}

TEST(GraphCsrTest, CsrAdjacencyMatchesDense) {
  Graph g = RandomGraph(12, 0.3, 31);
  CsrMatrix csr = g.CsrAdjacency();
  EXPECT_TRUE(csr.pattern()->CheckInvariants());
  EXPECT_EQ(csr.nnz(), 2 * g.num_edges());
  EXPECT_LE(csr.ToDense().MaxAbsDiff(g.DenseAdjacency()), 0.0);
}

TEST(GraphCsrTest, NormalizeAdjacencyCsrMatchesDense) {
  Graph g = RandomGraph(15, 0.25, 32);
  Tensor dense = NormalizeAdjacency(g.DenseAdjacency());
  CsrMatrix sparse = NormalizeAdjacencyCsr(g);
  EXPECT_LE(sparse.ToDense().MaxAbsDiff(dense), 1e-12);
}

TEST(GraphCsrTest, ApplyEdgeFlipsMatchesRebuild) {
  Graph g = RandomGraph(10, 0.3, 33);
  const CsrMatrix base = g.CsrAdjacency();

  // Pick two absent edges to add and two present edges to remove.
  std::vector<Edge> added, removed;
  for (int64_t i = 0; i < 10 && added.size() < 2; ++i)
    for (int64_t j = i + 1; j < 10 && added.size() < 2; ++j)
      if (!g.HasEdge(i, j)) added.emplace_back(i, j);
  const std::vector<Edge> edges = g.Edges();
  ASSERT_GE(edges.size(), 2u);
  removed.push_back(edges.front());
  removed.push_back(edges.back());

  const CsrMatrix patched = ApplyEdgeFlips(base, added, removed);
  EXPECT_TRUE(patched.pattern()->CheckInvariants());

  for (const Edge& e : added) g.AddEdge(e.u, e.v);
  for (const Edge& e : removed) g.RemoveEdge(e.u, e.v);
  EXPECT_LE(patched.ToDense().MaxAbsDiff(g.DenseAdjacency()), 0.0);
}

TEST(GraphCsrTest, ApplyEdgeFlipsEmptyIsIdentity) {
  Graph g = RandomGraph(8, 0.4, 34);
  const CsrMatrix base = g.CsrAdjacency();
  const CsrMatrix same = ApplyEdgeFlips(base, {}, {});
  EXPECT_LE(same.ToDense().MaxAbsDiff(base.ToDense()), 0.0);
}

// ----- Copies share rows until written. -------------------------------------

TEST(GraphTest, CopySharesRowsUntilWritten) {
  Graph a(7);  // Path 0-1-...-5; node 6 stays isolated.
  for (int64_t i = 0; i < 5; ++i) a.AddEdge(i, i + 1);
  Graph b = a;
  for (int64_t u = 0; u < 7; ++u)
    EXPECT_EQ(&b.Neighbors(u), &a.Neighbors(u)) << u;

  ASSERT_TRUE(b.AddEdge(0, 3));
  EXPECT_TRUE(b.HasEdge(3, 0));
  EXPECT_FALSE(a.HasEdge(3, 0));
  EXPECT_EQ(b.Degree(0), 2);
  EXPECT_EQ(a.Degree(0), 1);
  EXPECT_EQ(b.Degree(3), 3);
  EXPECT_EQ(a.Degree(3), 2);
  EXPECT_EQ(b.num_edges(), 6);
  EXPECT_EQ(a.num_edges(), 5);

  ASSERT_TRUE(a.RemoveEdge(4, 5));
  EXPECT_FALSE(a.HasEdge(4, 5));
  EXPECT_TRUE(b.HasEdge(4, 5));
  EXPECT_EQ(a.Degree(5), 0);
  EXPECT_EQ(b.Degree(5), 1);
  EXPECT_EQ(a.num_edges(), 4);
  EXPECT_EQ(b.num_edges(), 6);
  EXPECT_TRUE(a.CheckInvariants());
  EXPECT_TRUE(b.CheckInvariants());

  // Only the rows written stop being shared.
  for (int64_t u = 0; u < 7; ++u) {
    const bool written = u == 0 || u == 3 || u == 4 || u == 5;
    EXPECT_EQ(&b.Neighbors(u) == &a.Neighbors(u), !written) << u;
  }
  // A row no other graph holds is written in place.
  const std::set<int64_t>* b0 = &b.Neighbors(0);
  ASSERT_TRUE(b.AddEdge(0, 2));
  EXPECT_EQ(&b.Neighbors(0), b0);
  EXPECT_FALSE(a.HasEdge(0, 2));
}

/// Toggles (u, v) for u among the first 8 rows and v over the rest, so every
/// thread writes rows the source and the other threads also hold.
void ToggleEdges(Graph* g, int64_t thread, int rounds) {
  const int64_t n = g->num_nodes();
  for (int r = 0; r < rounds; ++r) {
    const int64_t u = r % 8;
    const int64_t v = 8 + (thread * 13 + r * 5) % (n - 8);
    if (!g->RemoveEdge(u, v)) g->AddEdge(u, v);
  }
}

TEST(GraphTest, ConcurrentCopiesWriteIndependently) {
  constexpr int64_t kNodes = 64;
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  auto source = std::make_unique<const Graph>(RandomGraph(kNodes, 0.2, 7));
  // Serial references, rebuilt edge by edge so they hold none of the
  // source's rows.
  std::vector<Graph> expected;
  for (int t = 0; t < kThreads; ++t) {
    Graph ref(kNodes);
    for (const Edge& e : source->Edges()) ref.AddEdge(e.u, e.v);
    ToggleEdges(&ref, t, kRounds);
    expected.push_back(std::move(ref));
  }

  // Every copy exists before any is written, so each row is shared four
  // ways plus the source: the last thread to write a row after the others
  // copied it away and the source is gone writes it in place.
  std::latch copied(kThreads + 1);
  std::vector<Graph> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Graph g = *source;
      copied.arrive_and_wait();
      ToggleEdges(&g, t, kRounds);
      got[static_cast<size_t>(t)] = std::move(g);
    });
  }
  copied.arrive_and_wait();
  source.reset();  // Destroyed while the copies are being written.
  for (std::thread& th : threads) th.join();

  for (size_t t = 0; t < got.size(); ++t) {
    EXPECT_TRUE(got[t].CheckInvariants()) << t;
    EXPECT_EQ(got[t].num_edges(), expected[t].num_edges()) << t;
    EXPECT_EQ(got[t].Edges(), expected[t].Edges()) << t;
  }
}

}  // namespace
}  // namespace geattack
