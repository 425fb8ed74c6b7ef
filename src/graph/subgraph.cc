#include "src/graph/subgraph.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <set>
#include <span>

namespace geattack {

namespace {

/// CSR with at most one unit entry per row: row r carries a 1.0 at column
/// col_of_row[r], or nothing when col_of_row[r] < 0.
std::shared_ptr<const CsrMatrix> UnitSelector(
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

}  // namespace

int64_t SubgraphView::EdgeSlot(int64_t u_local, int64_t v_local) const {
  if (u_local == v_local) return -1;
  const IndexPair key{std::min(u_local, v_local), std::max(u_local, v_local)};
  const auto it = std::lower_bound(
      edges_local.begin(), edges_local.end(), key,
      [](const IndexPair& a, const IndexPair& b) {
        return a.u != b.u ? a.u < b.u : a.v < b.v;
      });
  if (it != edges_local.end() && it->u == key.u && it->v == key.v)
    return static_cast<int64_t>(it - edges_local.begin());
  // Candidate edges are all (target, c); scan the candidate block.
  if (key.u == target_local || key.v == target_local) {
    const int64_t other = key.u == target_local ? key.v : key.u;
    for (size_t k = 0; k < candidates_local.size(); ++k)
      if (candidates_local[k] == other)
        return num_edges() + static_cast<int64_t>(k);
  }
  return -1;
}

namespace {

// The two sources of sorted neighbour rows the builders below read: a
// Graph's adjacency sets, or a symmetric CSR adjacency pattern with an
// empty diagonal.  Both give Row(u) as an ascending range with size().

class GraphRows {
 public:
  explicit GraphRows(const Graph& graph) : graph_(graph) {}
  int64_t num_nodes() const { return graph_.num_nodes(); }
  const std::set<int64_t>& Row(int64_t u) const {
    return graph_.Neighbors(u);
  }

 private:
  const Graph& graph_;
};

class CsrRows {
 public:
  explicit CsrRows(const CsrPattern& adjacency) : p_(adjacency) {
    GEA_CHECK(p_.rows == p_.cols);
  }
  int64_t num_nodes() const { return p_.rows; }
  std::span<const int64_t> Row(int64_t u) const {
    const int64_t* cols = p_.col_idx.data();
    return {cols + p_.row_ptr[ZU(u)], cols + p_.row_ptr[ZU(u + 1)]};
  }

 private:
  const CsrPattern& p_;
};

/// See AugmentedBallFlags.
template <class Rows>
std::vector<char> BallFlags(const Rows& rows, int64_t target, int hops,
                            const std::vector<int64_t>& candidates_global) {
  const int64_t n = rows.num_nodes();
  std::vector<char> in_ball(ZU(n), 0);
  if (hops < 0) {
    std::fill(in_ball.begin(), in_ball.end(), 1);
    return in_ball;
  }
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
    for (int64_t w : rows.Row(u)) {
      if (dist[ZU(w)] < 0) {
        dist[ZU(w)] = dist[ZU(u)] + 1;
        q.push(w);
      }
    }
  }
  for (int64_t i = 0; i < n; ++i)
    if (dist[ZU(i)] >= 0) in_ball[ZU(i)] = 1;
  return in_ball;
}

template <class Rows>
SubgraphView BuildView(const Rows& rows, int64_t target, int hops,
                       const std::vector<int64_t>& candidates_global) {
  const int64_t n = rows.num_nodes();
  GEA_CHECK(target >= 0 && target < n);
  for (int64_t c : candidates_global)
    GEA_CHECK(c >= 0 && c < n && c != target);

  SubgraphView view;
  view.candidates_global = candidates_global;

  // ----- Node set: hops-hop ball around the target in the augmented graph
  // (the candidate edges put every candidate at distance 1). -----
  if (hops < 0) {
    view.nodes.resize(ZU(n));
    std::iota(view.nodes.begin(), view.nodes.end(), int64_t{0});
    view.global_to_local = view.nodes;
  } else {
    const std::vector<char> in_ball =
        BallFlags(rows, target, hops, candidates_global);
    view.global_to_local.assign(ZU(n), -1);
    for (int64_t i = 0; i < n; ++i) {
      if (!in_ball[ZU(i)]) continue;
      view.global_to_local[ZU(i)] = view.num_nodes();
      view.nodes.push_back(i);
    }
  }
  const std::vector<int64_t>& to_local = view.global_to_local;
  const int64_t ns = view.num_nodes();
  const int64_t t = to_local[ZU(target)];
  view.target_local = t;

  const int64_t m = view.num_candidates();
  std::vector<int64_t> cand_of_local(ZU(ns), -1);
  view.candidates_local.reserve(ZU(m));
  for (int64_t k = 0; k < m; ++k) {
    const int64_t lc = to_local[ZU(candidates_global[ZU(k)])];
    GEA_CHECK(lc >= 0);                    // In the ball by construction.
    GEA_CHECK(cand_of_local[ZU(lc)] < 0);  // Distinct.
    cand_of_local[ZU(lc)] = k;
    view.candidates_local.push_back(lc);
  }
  // The target row's non-clean columns: its diagonal and every candidate,
  // ascending.
  std::vector<int64_t> target_extras;
  target_extras.reserve(ZU(m) + 1);
  for (int64_t l = 0; l < ns; ++l)
    if (l == t || cand_of_local[ZU(l)] >= 0) target_extras.push_back(l);

  // Exact for a full view; an upper bound for a ball.
  int64_t max_nnz = ns + 2 * m;
  for (const int64_t g : view.nodes)
    max_nnz += static_cast<int64_t>(rows.Row(g).size());
  const int64_t max_edges = (max_nnz - ns - 2 * m) / 2;

  // ----- One pass: augmented rows in order, with every nnz classified as
  // it is written. -----
  auto pattern = std::make_shared<CsrPattern>();
  pattern->rows = pattern->cols = ns;
  pattern->row_ptr.resize(ZU(ns) + 1);
  pattern->col_idx.resize(ZU(max_nnz));
  std::vector<double> base(ZU(max_nnz));
  // The two expansion operators are written alongside, one row per nnz: a
  // slot entry on every off-diagonal nnz, a candidate entry on every
  // candidate nnz.  Candidate slots are numbered after the clean edges, so
  // their slot columns hold the candidate index until those are counted.
  auto slot_op = std::make_shared<CsrPattern>();
  slot_op->row_ptr.resize(ZU(max_nnz) + 1);
  slot_op->col_idx.resize(ZU(max_nnz - ns));
  auto cand_op = std::make_shared<CsrPattern>();
  cand_op->row_ptr.resize(ZU(max_nnz) + 1);
  cand_op->col_idx.resize(ZU(2 * m));
  // Positions in slot_op->col_idx that hold a candidate index.
  std::vector<int64_t> cand_slot_cols;
  cand_slot_cols.reserve(ZU(2 * m));
  std::vector<std::pair<int64_t, int64_t>> cand_nnz(ZU(m), {-1, -1});
  view.edges_local.reserve(ZU(max_edges));
  view.slot_nnz.reserve(ZU(max_edges + m));
  view.diag_nnz.resize(ZU(ns));
  view.out_degree = Tensor(ns, 1);
  // next_slot[u]: row u's next upper clean slot not yet met from below.
  // Row u's upper slots were opened in ascending column order, and rows
  // are written in ascending order, so row v > u meets them in that order.
  std::vector<int64_t> next_slot(ZU(ns));

  int64_t* const col = pattern->col_idx.data();
  double* const val = base.data();
  int64_t* const slot_row = slot_op->row_ptr.data();
  int64_t* const slot_col = slot_op->col_idx.data();
  int64_t* const cand_row = cand_op->row_ptr.data();
  int64_t* const cand_col = cand_op->col_idx.data();
  int64_t e = 0;   // Next nnz.
  int64_t se = 0;  // Next slot_op entry.
  int64_t ce = 0;  // Next cand_op entry.
  // Appends column j to the current row: its base value, its undirected
  // slot (-1 on the diagonal) and its candidate index (-1 off candidates).
  const auto append = [&](int64_t j, int64_t slot, int64_t cand) {
    col[e] = j;
    val[e] = cand < 0 ? 1.0 : 0.0;
    if (cand >= 0) {
      cand_slot_cols.push_back(se);
      slot_col[se++] = cand;
      cand_col[ce++] = cand;
    } else if (slot >= 0) {
      slot_col[se++] = slot;
    }
    ++e;
    slot_row[e] = se;
    cand_row[e] = ce;
  };

  for (int64_t l = 0; l < ns; ++l) {
    pattern->row_ptr[ZU(l)] = e;
    next_slot[ZU(l)] = view.num_edges();
    // Row l's non-clean columns, ascending: its diagonal, plus the target
    // on a candidate's row or every candidate on the target's row.
    int64_t own[2] = {l, l};
    const int64_t* extra = own;
    const int64_t* extra_end = own + 1;
    if (l == t) {
      extra = target_extras.data();
      extra_end = extra + target_extras.size();
    } else if (cand_of_local[ZU(l)] >= 0) {
      own[0] = std::min(l, t);
      own[1] = std::max(l, t);
      extra_end = own + 2;
    }
    const auto append_extra = [&](int64_t j) {
      if (j == l) {
        view.diag_nnz[ZU(l)] = e;
        append(j, -1, -1);
        return;
      }
      const int64_t k = cand_of_local[ZU(l == t ? j : l)];
      auto& [first, second] = cand_nnz[ZU(k)];
      (first < 0 ? first : second) = e;
      append(j, -1, k);
    };

    const auto& row = rows.Row(view.nodes[ZU(l)]);
    int64_t internal = 0;
    for (const int64_t w : row) {
      const int64_t j = to_local[ZU(w)];
      if (j < 0) continue;
      ++internal;
      while (extra != extra_end && *extra < j) append_extra(*extra++);
      // No self loop, and no candidate adjacent to the target.
      GEA_CHECK(extra == extra_end || *extra != j);
      if (l < j) {
        view.edges_local.push_back({l, j});
        view.slot_nnz.emplace_back(e, -1);
        append(j, view.num_edges() - 1, -1);
      } else {
        const int64_t s = next_slot[ZU(j)]++;
        view.slot_nnz[ZU(s)].second = e;
        append(j, s, -1);
      }
    }
    while (extra != extra_end) append_extra(*extra++);
    view.out_degree.at(l, 0) =
        static_cast<double>(static_cast<int64_t>(row.size()) - internal);
  }
  const int64_t nnz = e;
  pattern->row_ptr[ZU(ns)] = nnz;
  pattern->col_idx.resize(ZU(nnz));
  base.resize(ZU(nnz));
  slot_op->row_ptr.resize(ZU(nnz) + 1);
  slot_op->col_idx.resize(ZU(se));
  cand_op->row_ptr.resize(ZU(nnz) + 1);

  // ----- Candidate slots follow the clean edges. -----
  const int64_t num_edges = view.num_edges();
  const int64_t num_slots = num_edges + m;
  for (const int64_t c : cand_slot_cols) slot_op->col_idx[ZU(c)] += num_edges;
  view.slot_nnz.insert(view.slot_nnz.end(), cand_nnz.begin(), cand_nnz.end());

  // ----- Base values. -----
  view.base_values = Tensor(nnz, 1, std::move(base));
  view.und_base = Tensor(num_slots, 1);
  for (int64_t s = 0; s < num_edges; ++s) view.und_base.at(s, 0) = 1.0;

  // ----- Constant operators. -----
  slot_op->rows = cand_op->rows = nnz;
  slot_op->cols = num_slots;
  cand_op->cols = m;
  std::vector<double> slot_ones(slot_op->col_idx.size(), 1.0);
  view.slot_expand = std::make_shared<const CsrMatrix>(std::move(slot_op),
                                                       std::move(slot_ones));
  std::vector<double> cand_ones(cand_op->col_idx.size(), 1.0);
  view.cand_expand = std::make_shared<const CsrMatrix>(std::move(cand_op),
                                                       std::move(cand_ones));
  {
    std::vector<int64_t> pad(ZU(num_slots), -1);
    for (int64_t k = 0; k < m; ++k)
      pad[ZU(num_edges + k)] = k;
    view.cand_slot_pad = UnitSelector(num_slots, m, pad);
    std::vector<int64_t> take(ZU(m));
    for (int64_t k = 0; k < m; ++k)
      take[ZU(k)] = num_edges + k;
    view.cand_slot_take = UnitSelector(m, num_slots, take);
  }

  view.pattern = std::move(pattern);
  return view;
}

}  // namespace

SubgraphView BuildSubgraphView(
    const Graph& graph, int64_t target, int hops,
    const std::vector<int64_t>& candidates_global) {
  return BuildView(GraphRows(graph), target, hops, candidates_global);
}

SubgraphView BuildSubgraphView(
    const CsrPattern& adjacency, int64_t target, int hops,
    const std::vector<int64_t>& candidates_global) {
  return BuildView(CsrRows(adjacency), target, hops, candidates_global);
}

std::vector<char> AugmentedBallFlags(
    const CsrPattern& adjacency, int64_t target, int hops,
    const std::vector<int64_t>& candidates_global) {
  return BallFlags(CsrRows(adjacency), target, hops, candidates_global);
}

}  // namespace geattack
