#include "src/graph/graph.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_map>

namespace geattack {

Graph::Graph(int64_t num_nodes) : adj_(ZU(num_nodes)) {
  GEA_CHECK(num_nodes >= 0);
}

const Graph::Row& Graph::row(int64_t u) const {
  static const Row empty;
  const std::shared_ptr<Row>& r = adj_[ZU(u)];
  return r != nullptr ? *r : empty;
}

// Copy-on-write.  A row another graph still holds is copied before the
// write, so that graph keeps its contents.  A row this graph holds alone is
// written in place; but libstdc++'s use_count() is a relaxed load, so
// reading 1 does not order this write after the reads the other, former
// owners made before they dropped their handles.  Copying the handle does:
// the copy is an acq_rel increment of the same count, and it reads the value
// those release decrements left, so it synchronizes with them.  The copy is
// dropped at once.  (An acquire fence would do under the C++ memory model,
// but ThreadSanitizer does not model fences: GCC warns "not supported with
// -fsanitize=thread", an error under this build's -Werror.)
Graph::Row& Graph::MutableRow(int64_t u) {
  std::shared_ptr<Row>& r = adj_[ZU(u)];
  if (r == nullptr) {
    r = std::make_shared<Row>();
  } else if (r.use_count() > 1) {
    r = std::make_shared<Row>(*r);
  } else {
    const std::shared_ptr<Row> acquire = r;
  }
  return *r;
}

Graph Graph::FromDense(const Tensor& adjacency) {
  GEA_CHECK(adjacency.rows() == adjacency.cols());
  Graph g(adjacency.rows());
  for (int64_t i = 0; i < adjacency.rows(); ++i) {
    for (int64_t j = i + 1; j < adjacency.cols(); ++j) {
      if (adjacency.at(i, j) > 0.5 || adjacency.at(j, i) > 0.5) {
        g.AddEdge(i, j);
      }
    }
  }
  return g;
}

bool Graph::AddEdge(int64_t u, int64_t v) {
  GEA_CHECK(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes());
  if (u == v) return false;
  if (row(u).count(v)) return false;
  MutableRow(u).insert(v);
  MutableRow(v).insert(u);
  ++num_edges_;
  return true;
}

bool Graph::RemoveEdge(int64_t u, int64_t v) {
  GEA_CHECK(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes());
  if (!row(u).count(v)) return false;
  MutableRow(u).erase(v);
  MutableRow(v).erase(u);
  --num_edges_;
  return true;
}

bool Graph::HasEdge(int64_t u, int64_t v) const {
  GEA_CHECK(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes());
  return row(u).count(v) > 0;
}

int64_t Graph::Degree(int64_t u) const {
  GEA_CHECK(u >= 0 && u < num_nodes());
  return static_cast<int64_t>(row(u).size());
}

const std::set<int64_t>& Graph::Neighbors(int64_t u) const {
  GEA_CHECK(u >= 0 && u < num_nodes());
  return row(u);
}

std::vector<Edge> Graph::Edges() const {
  std::vector<Edge> edges;
  edges.reserve(ZU(num_edges_));
  for (int64_t u = 0; u < num_nodes(); ++u)
    for (int64_t v : row(u))
      if (u < v) edges.emplace_back(u, v);
  return edges;
}

Tensor Graph::DenseAdjacency() const {
  Tensor a(num_nodes(), num_nodes());
  for (int64_t u = 0; u < num_nodes(); ++u)
    for (int64_t v : row(u)) a.at(u, v) = 1.0;
  return a;
}

CsrMatrix Graph::CsrAdjacency() const {
  const int64_t n = num_nodes();
  auto pattern = std::make_shared<CsrPattern>();
  pattern->rows = pattern->cols = n;
  pattern->row_ptr.reserve(ZU(n) + 1);
  pattern->row_ptr.push_back(0);
  pattern->col_idx.reserve(ZU(2 * num_edges_));
  for (int64_t u = 0; u < n; ++u) {
    const Row& r = row(u);
    pattern->col_idx.insert(pattern->col_idx.end(), r.begin(), r.end());
    pattern->row_ptr.push_back(static_cast<int64_t>(pattern->col_idx.size()));
  }
  std::vector<double> values(pattern->col_idx.size(), 1.0);
  return CsrMatrix(std::move(pattern), std::move(values));
}

std::vector<int64_t> Graph::KHopNeighborhood(int64_t center, int hops) const {
  GEA_CHECK(center >= 0 && center < num_nodes());
  std::vector<int64_t> dist(ZU(num_nodes()), -1);
  std::queue<int64_t> q;
  dist[ZU(center)] = 0;
  q.push(center);
  std::vector<int64_t> result{center};
  while (!q.empty()) {
    int64_t u = q.front();
    q.pop();
    if (dist[ZU(u)] >= hops) continue;
    for (int64_t v : row(u)) {
      if (dist[ZU(v)] < 0) {
        dist[ZU(v)] = dist[ZU(u)] + 1;
        result.push_back(v);
        q.push(v);
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<int64_t> Graph::ConnectedComponents() const {
  std::vector<int64_t> comp(ZU(num_nodes()), -1);
  int64_t next = 0;
  for (int64_t s = 0; s < num_nodes(); ++s) {
    if (comp[ZU(s)] >= 0) continue;
    comp[ZU(s)] = next;
    std::queue<int64_t> q;
    q.push(s);
    while (!q.empty()) {
      int64_t u = q.front();
      q.pop();
      for (int64_t v : row(u)) {
        if (comp[ZU(v)] < 0) {
          comp[ZU(v)] = next;
          q.push(v);
        }
      }
    }
    ++next;
  }
  return comp;
}

Graph Graph::LargestConnectedComponent(std::vector<int64_t>* mapping) const {
  std::vector<int64_t> comp = ConnectedComponents();
  std::unordered_map<int64_t, int64_t> sizes;
  for (int64_t c : comp) ++sizes[c];
  int64_t best = 0;
  int64_t best_size = -1;
  // lint-ok: unordered-iteration (max-size/min-id selection: ties break on
  // the smallest component id, so the result is independent of hash order)
  for (const auto& [c, s] : sizes) {
    if (s > best_size || (s == best_size && c < best)) {
      best = c;
      best_size = s;
    }
  }
  std::vector<int64_t> old_ids;
  std::vector<int64_t> new_id(ZU(num_nodes()), -1);
  for (int64_t u = 0; u < num_nodes(); ++u) {
    if (comp[ZU(u)] == best) {
      new_id[ZU(u)] = static_cast<int64_t>(old_ids.size());
      old_ids.push_back(u);
    }
  }
  // A component is closed under adjacency, so every kept row maps whole,
  // and the ascending renumbering keeps it sorted.  Writing the rows one
  // after another keeps each row's nodes together in memory.
  Graph g(static_cast<int64_t>(old_ids.size()));
  for (size_t i = 0; i < old_ids.size(); ++i) {
    const Row& old_row = row(old_ids[i]);
    if (old_row.empty()) continue;
    Row& r = g.MutableRow(static_cast<int64_t>(i));
    for (int64_t v : old_row) r.insert(r.end(), new_id[ZU(v)]);
    g.num_edges_ += static_cast<int64_t>(r.size());
  }
  g.num_edges_ /= 2;
  if (mapping != nullptr) *mapping = std::move(old_ids);
  return g;
}

bool Graph::CheckInvariants() const {
  int64_t half_edges = 0;
  for (int64_t u = 0; u < num_nodes(); ++u) {
    if (row(u).count(u)) return false;  // No self loops.
    for (int64_t v : row(u)) {
      if (v < 0 || v >= num_nodes()) return false;
      if (!row(v).count(u)) return false;  // Symmetry.
      ++half_edges;
    }
  }
  return half_edges == 2 * num_edges_;
}

Tensor NormalizeAdjacency(const Tensor& adjacency) {
  GEA_CHECK(adjacency.rows() == adjacency.cols());
  const int64_t n = adjacency.rows();
  Tensor self = adjacency;
  for (int64_t i = 0; i < n; ++i) self.at(i, i) += 1.0;
  Tensor deg = self.RowSum();
  Tensor dinv = deg.Pow(-0.5);
  Tensor out(n, n);
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < n; ++j)
      out.at(i, j) = dinv.at(i, 0) * self.at(i, j) * dinv.at(j, 0);
  return out;
}

Var NormalizeAdjacencyVar(const Var& adjacency) {
  GEA_CHECK(adjacency.defined());
  GEA_CHECK(adjacency.rows() == adjacency.cols());
  Var self =
      Add(adjacency, Constant(Tensor::Identity(adjacency.rows()), "I"));
  Var deg = RowSum(self);         // (n,1); >= 1 thanks to the self loop.
  Var dinv = Pow(deg, -0.5);      // (n,1).
  return Mul(Mul(self, dinv), Transpose(dinv));
}

CsrMatrix NormalizeAdjacencyCsr(const Graph& graph) {
  return GcnNormalizeCsr(graph.CsrAdjacency());
}

CsrMatrix ApplyEdgeFlips(const CsrMatrix& adjacency,
                         const std::vector<Edge>& added,
                         const std::vector<Edge>& removed) {
  GEA_CHECK(!adjacency.empty());
  GEA_CHECK(adjacency.rows() == adjacency.cols());
  const CsrPattern& p = *adjacency.pattern();
  const int64_t n = p.rows;

  // Expand the undirected flips into per-row sorted directed entry lists.
  auto expand = [n](const std::vector<Edge>& edges) {
    std::vector<std::pair<int64_t, int64_t>> dir;
    dir.reserve(edges.size() * 2);
    for (const Edge& e : edges) {
      GEA_CHECK(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n && e.u != e.v);
      dir.emplace_back(e.u, e.v);
      dir.emplace_back(e.v, e.u);
    }
    std::sort(dir.begin(), dir.end());
    // A repeated undirected edge would silently emit duplicate CSR columns.
    GEA_CHECK(std::adjacent_find(dir.begin(), dir.end()) == dir.end());
    return dir;
  };
  const auto add_dir = expand(added);
  const auto rem_dir = expand(removed);

  auto out = std::make_shared<CsrPattern>();
  out->rows = out->cols = n;
  out->row_ptr.reserve(ZU(n) + 1);
  out->row_ptr.push_back(0);
  out->col_idx.reserve(p.col_idx.size() + add_dir.size());
  std::vector<double> values;
  values.reserve(p.col_idx.size() + add_dir.size());

  size_t ai = 0, ri = 0;
  for (int64_t i = 0; i < n; ++i) {
    int64_t e = p.row_ptr[ZU(i)];
    const int64_t e_end = p.row_ptr[ZU(i + 1)];
    // Merge the existing row with this row's additions; drop removals.
    while (e < e_end || (ai < add_dir.size() && add_dir[ai].first == i)) {
      const bool take_add =
          ai < add_dir.size() && add_dir[ai].first == i &&
          (e >= e_end || add_dir[ai].second < p.col_idx[ZU(e)]);
      if (take_add) {
        out->col_idx.push_back(add_dir[ai].second);
        values.push_back(1.0);
        ++ai;
        continue;
      }
      const int64_t j = p.col_idx[ZU(e)];
      GEA_CHECK(!(ai < add_dir.size() && add_dir[ai].first == i &&
                  add_dir[ai].second == j));  // Added edge already present.
      if (ri < rem_dir.size() && rem_dir[ri].first == i &&
          rem_dir[ri].second == j) {
        ++ri;  // Removed: skip the entry.
      } else {
        out->col_idx.push_back(j);
        values.push_back(adjacency.values()[ZU(e)]);
      }
      ++e;
    }
    out->row_ptr.push_back(static_cast<int64_t>(out->col_idx.size()));
  }
  GEA_CHECK(ai == add_dir.size());  // Every addition landed in some row.
  GEA_CHECK(ri == rem_dir.size());  // Every removal matched an entry.
  return CsrMatrix(std::move(out), std::move(values));
}

CsrMatrix GcnRenormalizeAfterFlips(const CsrMatrix& norm_adjacency,
                                   const Tensor& degp1,
                                   const std::vector<Edge>& added,
                                   const std::vector<Edge>& removed) {
  GEA_CHECK(!norm_adjacency.empty());
  GEA_CHECK(norm_adjacency.rows() == norm_adjacency.cols());
  const int64_t n = norm_adjacency.rows();
  GEA_CHECK(degp1.rows() == n && degp1.cols() == 1);
  if (added.empty() && removed.empty()) return norm_adjacency;

  std::vector<int64_t> delta(ZU(n), 0);
  for (const Edge& e : added) {
    ++delta[ZU(e.u)];
    ++delta[ZU(e.v)];
  }
  for (const Edge& e : removed) {
    --delta[ZU(e.u)];
    --delta[ZU(e.v)];
  }

  // New d̃^{-1/2} for every node.  Integer-valued doubles: degp1 + delta is
  // exact, so untouched nodes reproduce their old dinv bit-for-bit and
  // touched nodes get exactly what GcnNormalizeCsr would compute.
  std::vector<double> dinv(ZU(n));
  for (int64_t i = 0; i < n; ++i) {
    const double d = degp1.at(i, 0) + static_cast<double>(delta[ZU(i)]);
    GEA_CHECK(d >= 1.0);  // Removals may not take a node below its self loop.
    dinv[ZU(i)] = 1.0 / std::sqrt(d);
  }

  // Merge the pattern (removals drop entries, adds insert them; Ã's pattern
  // is A + I, and flips are off-diagonal, so this lands exactly on the
  // churned graph's A' + I pattern), then recompute all touched values.
  CsrMatrix out = ApplyEdgeFlips(norm_adjacency, added, removed);
  const CsrPattern& p = *out.pattern();
  std::vector<double>& val = out.mutable_values();
  auto entry_of = [&p](int64_t r, int64_t c) {
    const int64_t lo = p.row_ptr[ZU(r)], hi = p.row_ptr[ZU(r + 1)];
    const auto it = std::lower_bound(p.col_idx.begin() + lo,
                                     p.col_idx.begin() + hi, c);
    GEA_CHECK(it != p.col_idx.begin() + hi && *it == c);
    return static_cast<int64_t>(it - p.col_idx.begin());
  };
  for (int64_t i = 0; i < n; ++i) {
    if (delta[ZU(i)] == 0) continue;
    const double di = dinv[ZU(i)];
    for (int64_t e = p.row_ptr[ZU(i)]; e < p.row_ptr[ZU(i + 1)]; ++e) {
      const int64_t j = p.col_idx[ZU(e)];
      const double v = di * dinv[ZU(j)];
      val[ZU(e)] = v;
      val[ZU(entry_of(j, i))] = v;
    }
  }
  return out;
}

}  // namespace geattack
