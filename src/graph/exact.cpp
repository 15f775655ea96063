#include "graph/exact.hpp"

#include <algorithm>
#include <numeric>

#include "common/require.hpp"

namespace dgap {
namespace {

/// Branch-and-bound maximum independent set over an explicit alive-set.
/// Degree-0 and degree-1 reductions make the solver linear on forests and
/// near-linear on the path-like error components the benchmarks produce.
class MisSolver {
 public:
  MisSolver(const Graph& g, std::int64_t budget)
      : g_(g), budget_(budget), alive_(g.num_nodes(), true),
        in_set_(g.num_nodes(), false) {
    alive_count_ = g.num_nodes();
  }

  std::vector<NodeId> solve() {
    recurse(0);
    std::vector<NodeId> out;
    for (NodeId v = 0; v < g_.num_nodes(); ++v) {
      if (best_set_[v]) out.push_back(v);
    }
    return out;
  }

 private:
  int alive_degree(NodeId v) const {
    int d = 0;
    for (NodeId u : g_.neighbors(v)) d += alive_[u] ? 1 : 0;
    return d;
  }

  /// Remove v from the alive set; returns v for undo bookkeeping.
  void remove(NodeId v, std::vector<NodeId>& undo) {
    DGAP_ASSERT(alive_[v], "removing a dead vertex");
    alive_[v] = false;
    --alive_count_;
    undo.push_back(v);
  }

  void restore(std::vector<NodeId>& undo, std::size_t mark) {
    while (undo.size() > mark) {
      alive_[undo.back()] = true;
      ++alive_count_;
      undo.pop_back();
    }
  }

  void record_if_best(int included) {
    if (included > best_) {
      best_ = included;
      best_set_ = in_set_;
    }
  }

  void recurse(int included) {
    DGAP_REQUIRE(++nodes_ <= budget_, "independence-number budget exceeded");
    if (included + alive_count_ <= best_) return;  // bound

    // Reductions: repeatedly take a vertex of alive-degree <= 1 into the
    // set (always safe: some maximum IS contains it).
    std::vector<NodeId> undo;
    std::vector<NodeId> taken;
    bool progress = true;
    while (progress) {
      progress = false;
      for (NodeId v = 0; v < g_.num_nodes(); ++v) {
        if (!alive_[v]) continue;
        if (alive_degree(v) <= 1) {
          in_set_[v] = true;
          taken.push_back(v);
          ++included;
          remove(v, undo);
          for (NodeId u : g_.neighbors(v)) {
            if (alive_[u]) remove(u, undo);
          }
          progress = true;
        }
      }
    }

    if (alive_count_ == 0) {
      record_if_best(included);
    } else if (included + alive_count_ > best_) {
      // Branch on a maximum-alive-degree vertex.
      NodeId pick = kNoNode;
      int pick_deg = -1;
      for (NodeId v = 0; v < g_.num_nodes(); ++v) {
        if (!alive_[v]) continue;
        int d = alive_degree(v);
        if (d > pick_deg) {
          pick_deg = d;
          pick = v;
        }
      }
      // Include pick.
      {
        std::size_t mark = undo.size();
        in_set_[pick] = true;
        remove(pick, undo);
        for (NodeId u : g_.neighbors(pick)) {
          if (alive_[u]) remove(u, undo);
        }
        recurse(included + 1);
        in_set_[pick] = false;
        restore(undo, mark);
      }
      // Exclude pick.
      {
        std::size_t mark = undo.size();
        remove(pick, undo);
        recurse(included);
        restore(undo, mark);
      }
    }

    // Undo reductions.
    for (NodeId v : taken) in_set_[v] = false;
    restore(undo, 0);
  }

  const Graph& g_;
  std::int64_t budget_;
  std::int64_t nodes_ = 0;
  std::vector<bool> alive_;
  std::vector<bool> in_set_;
  std::vector<bool> best_set_{std::vector<bool>(g_.num_nodes(), false)};
  NodeId alive_count_;
  int best_ = -1;
};

void bron_kerbosch(const Graph& g, std::vector<NodeId>& r,
                   std::vector<NodeId> p, std::vector<NodeId> x,
                   const std::function<bool(const std::vector<NodeId>&)>& cb,
                   bool& stop) {
  // Maximal independent sets of g == maximal cliques of the complement;
  // "non-adjacent in g" plays the role of adjacency below.
  if (stop) return;
  if (p.empty() && x.empty()) {
    if (!cb(r)) stop = true;
    return;
  }
  // Pivot: choose u in P ∪ X maximizing complement-degree into P.
  NodeId pivot = kNoNode;
  std::size_t best_cover = 0;
  auto complement_adjacent = [&g](NodeId a, NodeId b) {
    return a != b && !g.has_edge(a, b);
  };
  for (const auto& pool : {p, x}) {
    for (NodeId u : pool) {
      std::size_t cover = 0;
      for (NodeId w : p) cover += complement_adjacent(u, w) ? 1 : 0;
      if (pivot == kNoNode || cover > best_cover) {
        pivot = u;
        best_cover = cover;
      }
    }
  }
  std::vector<NodeId> candidates;
  for (NodeId v : p) {
    if (pivot == kNoNode || !complement_adjacent(pivot, v)) {
      candidates.push_back(v);
    }
  }
  for (NodeId v : candidates) {
    std::vector<NodeId> p2, x2;
    for (NodeId w : p) {
      if (complement_adjacent(v, w)) p2.push_back(w);
    }
    for (NodeId w : x) {
      if (complement_adjacent(v, w)) x2.push_back(w);
    }
    r.push_back(v);
    bron_kerbosch(g, r, std::move(p2), std::move(x2), cb, stop);
    r.pop_back();
    if (stop) return;
    p.erase(std::find(p.begin(), p.end(), v));
    x.push_back(v);
  }
}

}  // namespace

int independence_number(const Graph& g, std::int64_t node_budget) {
  return static_cast<int>(maximum_independent_set(g, node_budget).size());
}

std::vector<NodeId> maximum_independent_set(const Graph& g,
                                            std::int64_t node_budget) {
  if (g.num_nodes() == 0) return {};
  MisSolver solver(g, node_budget);
  return solver.solve();
}

int vertex_cover_number(const Graph& g, std::int64_t node_budget) {
  return static_cast<int>(g.num_nodes()) - independence_number(g, node_budget);
}

void enumerate_maximal_independent_sets(
    const Graph& g,
    const std::function<bool(const std::vector<NodeId>&)>& cb) {
  std::vector<NodeId> r;
  std::vector<NodeId> p(static_cast<std::size_t>(g.num_nodes()));
  std::iota(p.begin(), p.end(), NodeId{0});
  bool stop = false;
  bron_kerbosch(g, r, std::move(p), {}, cb, stop);
}

std::vector<bool> sequential_mis(const Graph& g) {
  std::vector<NodeId> order(static_cast<std::size_t>(g.num_nodes()));
  std::iota(order.begin(), order.end(), NodeId{0});
  return sequential_mis(g, order);
}

std::vector<bool> sequential_mis(const Graph& g,
                                 const std::vector<NodeId>& order) {
  DGAP_REQUIRE(order.size() == static_cast<std::size_t>(g.num_nodes()),
               "order must list every node once");
  std::vector<bool> in(static_cast<std::size_t>(g.num_nodes()), false);
  std::vector<bool> blocked(static_cast<std::size_t>(g.num_nodes()), false);
  for (NodeId v : order) {
    if (blocked[v]) continue;
    in[v] = true;
    for (NodeId u : g.neighbors(v)) blocked[u] = true;
  }
  return in;
}

std::vector<NodeId> sequential_maximal_matching(const Graph& g) {
  std::vector<NodeId> mate(static_cast<std::size_t>(g.num_nodes()), kNoNode);
  for (auto [u, v] : g.edges()) {
    if (mate[u] == kNoNode && mate[v] == kNoNode) {
      mate[u] = v;
      mate[v] = u;
    }
  }
  return mate;
}

std::vector<Value> sequential_vertex_coloring(const Graph& g) {
  const Value palette = g.max_degree() + 1;
  std::vector<Value> color(static_cast<std::size_t>(g.num_nodes()), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::vector<bool> used(static_cast<std::size_t>(palette + 1), false);
    for (NodeId u : g.neighbors(v)) {
      if (color[u] >= 1 && color[u] <= palette) used[color[u]] = true;
    }
    for (Value c = 1; c <= palette; ++c) {
      if (!used[c]) {
        color[v] = c;
        break;
      }
    }
    DGAP_ASSERT(color[v] != 0, "greedy coloring must find a color");
  }
  return color;
}

std::vector<std::vector<Value>> sequential_edge_coloring(const Graph& g) {
  const Value palette = std::max<Value>(1, 2 * g.max_degree() - 1);
  std::vector<std::vector<Value>> out(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out[v].assign(g.neighbors(v).size(), 0);
  }
  auto slot = [&g](NodeId v, NodeId u) -> std::size_t {
    return g.edge_slot(v, u) - g.row_begin(v);
  };
  for (auto [u, v] : g.edges()) {
    std::vector<bool> used(static_cast<std::size_t>(palette + 1), false);
    for (Value c : out[u]) {
      if (c >= 1) used[c] = true;
    }
    for (Value c : out[v]) {
      if (c >= 1) used[c] = true;
    }
    Value chosen = 0;
    for (Value c = 1; c <= palette; ++c) {
      if (!used[c]) {
        chosen = c;
        break;
      }
    }
    DGAP_ASSERT(chosen != 0, "greedy edge coloring must find a color");
    out[u][slot(u, v)] = chosen;
    out[v][slot(v, u)] = chosen;
  }
  return out;
}

}  // namespace dgap
