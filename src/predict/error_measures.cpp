#include "predict/error_measures.hpp"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <limits>

#include "common/require.hpp"
#include "graph/properties.hpp"

namespace dgap {
namespace {

std::vector<std::vector<NodeId>> components_of_mask(
    const Graph& g, const std::vector<bool>& keep) {
  std::vector<NodeId> kept;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (keep[v]) kept.push_back(v);
  }
  auto [sub, map] = g.induced(kept);
  std::vector<std::vector<NodeId>> out;
  for (auto& comp : connected_components(sub)) {
    std::vector<NodeId> orig;
    orig.reserve(comp.size());
    for (NodeId v : comp) orig.push_back(map[v]);
    out.push_back(std::move(orig));
  }
  return out;
}

}  // namespace

// ---- MIS --------------------------------------------------------------------

std::vector<int> mis_base_status(const Graph& g, const Predictions& pred) {
  const NodeId n = g.num_nodes();
  std::vector<int> status(static_cast<std::size_t>(n), -1);
  for (NodeId v = 0; v < n; ++v) {
    if (pred.node(v) != 1) continue;
    bool all_zero = true;
    for (NodeId u : g.neighbors(v)) {
      if (pred.node(u) != 0) {
        all_zero = false;
        break;
      }
    }
    if (all_zero) status[v] = 1;
  }
  for (NodeId v = 0; v < n; ++v) {
    if (status[v] != 1) continue;
    for (NodeId u : g.neighbors(v)) {
      DGAP_ASSERT(status[u] != 1, "two adjacent base-set nodes");
      status[u] = 0;
    }
  }
  return status;
}

std::vector<std::vector<NodeId>> mis_error_components(
    const Graph& g, const Predictions& pred) {
  auto status = mis_base_status(g, pred);
  std::vector<bool> active(status.size());
  for (std::size_t i = 0; i < status.size(); ++i) active[i] = status[i] == -1;
  return components_of_mask(g, active);
}

int mu1_max(const std::vector<std::vector<NodeId>>& components) {
  std::size_t best = 0;
  for (const auto& c : components) best = std::max(best, c.size());
  return static_cast<int>(best);
}

int mu2_max(const Graph& g,
            const std::vector<std::vector<NodeId>>& components) {
  int best = 0;
  for (const auto& comp : components) {
    auto [sub, map] = g.induced(comp);
    const int alpha = independence_number(sub);
    const int tau = static_cast<int>(comp.size()) - alpha;  // Gallai
    best = std::max(best, 2 * std::min(alpha, tau));
  }
  return best;
}

int eta1_mis(const Graph& g, const Predictions& pred) {
  return mu1_max(mis_error_components(g, pred));
}

int eta2_mis(const Graph& g, const Predictions& pred) {
  return mu2_max(g, mis_error_components(g, pred));
}

Eta2Bounds eta2_mis_bounds(const Graph& g, const Predictions& pred) {
  Eta2Bounds out;
  for (const auto& comp : mis_error_components(g, pred)) {
    auto [sub, map] = g.induced(comp);
    const int n = sub.num_nodes();
    // Greedy independent set: a lower bound on α.
    int alpha_lo = 0;
    {
      auto in = sequential_mis(sub);
      for (bool b : in) alpha_lo += b ? 1 : 0;
    }
    // Maximal matching ν: τ ≥ ν (each matched edge needs a cover vertex)
    // and τ ≤ 2ν (both endpoints of a maximal matching form a cover).
    int nu = 0;
    {
      auto mate = sequential_maximal_matching(sub);
      for (NodeId v = 0; v < n; ++v) {
        if (mate[v] != kNoNode && mate[v] > v) ++nu;
      }
    }
    const int alpha_hi = n - nu;  // α = n − τ ≤ n − ν
    const int tau_lo = nu;
    const int tau_hi = 2 * nu;
    const int lo = 2 * std::min(alpha_lo, tau_lo);
    const int hi = 2 * std::min(alpha_hi, tau_hi);
    out.lo = std::max(out.lo, lo);
    out.hi = std::max(out.hi, hi);
  }
  return out;
}

int eta_bw_mis(const Graph& g, const Predictions& pred) {
  auto status = mis_base_status(g, pred);
  std::vector<bool> black(status.size()), white(status.size());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    black[v] = status[v] == -1 && pred.node(v) == 1;
    white[v] = status[v] == -1 && pred.node(v) != 1;
  }
  return std::max(mu1_max(components_of_mask(g, black)),
                  mu1_max(components_of_mask(g, white)));
}

int eta_t_mis(const RootedTree& t, const Predictions& pred) {
  const Graph& g = t.graph;
  auto status = mis_base_status(g, pred);
  // up[v] = number of nodes on the longest monochromatic parent path
  // starting at v (inclusive), among active nodes.
  std::vector<int> up(static_cast<std::size_t>(g.num_nodes()), 0);
  int best = 0;
  // Nodes are not topologically ordered in general; recurse with memo.
  std::vector<bool> visiting(static_cast<std::size_t>(g.num_nodes()), false);
  std::function<int(NodeId)> compute = [&](NodeId v) -> int {
    if (up[v] != 0) return up[v];
    DGAP_ASSERT(!visiting[v], "parent pointers must be acyclic");
    visiting[v] = true;
    int result = 1;
    NodeId p = t.parent[v];
    if (p != kNoNode && status[p] == -1 && pred.node(p) == pred.node(v)) {
      result = 1 + compute(p);
    }
    visiting[v] = false;
    up[v] = result;
    return result;
  };
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (status[v] == -1) best = std::max(best, compute(v));
  }
  return best;
}

int eta_hamming_mis(const Graph& g, const Predictions& pred) {
  DGAP_REQUIRE(g.num_nodes() <= 40,
               "eta_hamming enumerates maximal independent sets; small "
               "graphs only");
  int best = std::numeric_limits<int>::max();
  enumerate_maximal_independent_sets(
      g, [&](const std::vector<NodeId>& mis) {
        std::vector<bool> in(static_cast<std::size_t>(g.num_nodes()), false);
        for (NodeId v : mis) in[v] = true;
        int dist = 0;
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          const Value want = in[v] ? 1 : 0;
          if (pred.node(v) != want) ++dist;
        }
        best = std::min(best, dist);
        return best > 0;  // stop early on an exact match
      });
  DGAP_ASSERT(best != std::numeric_limits<int>::max(),
              "every graph has a maximal independent set");
  return best;
}

int eta_sum_mis(const Graph& g, const Predictions& pred) {
  int sum = 0;
  for (const auto& comp : mis_error_components(g, pred)) {
    sum += static_cast<int>(comp.size());
  }
  return sum;
}

// ---- Maximal Matching -------------------------------------------------------

std::vector<int> matching_base_status(const Graph& g,
                                      const Predictions& pred) {
  const NodeId n = g.num_nodes();
  std::vector<int> status(static_cast<std::size_t>(n), -1);
  // Identifier -> internal index, for decoding partner predictions.
  std::vector<std::pair<Value, NodeId>> by_id;
  by_id.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) by_id.emplace_back(g.id(v), v);
  std::sort(by_id.begin(), by_id.end());
  auto find_by_id = [&](Value id) -> NodeId {
    auto it = std::lower_bound(by_id.begin(), by_id.end(),
                               std::make_pair(id, NodeId{0}));
    if (it != by_id.end() && it->first == id) return it->second;
    return kNoNode;
  };
  for (NodeId v = 0; v < n; ++v) {
    const Value xv = pred.node(v);
    if (xv == kNoNode) continue;
    const NodeId u = find_by_id(xv);
    if (u == kNoNode || !g.has_edge(v, u)) continue;
    if (pred.node(u) == g.id(v)) status[v] = 1;  // mutual
  }
  for (NodeId v = 0; v < n; ++v) {
    if (status[v] != -1 || pred.node(v) != kNoNode) continue;
    bool all_matched = true;
    for (NodeId u : g.neighbors(v)) {
      if (status[u] != 1) {
        all_matched = false;
        break;
      }
    }
    if (all_matched) status[v] = 0;  // outputs ⊥
  }
  return status;
}

std::vector<std::vector<NodeId>> matching_error_components(
    const Graph& g, const Predictions& pred) {
  auto status = matching_base_status(g, pred);
  std::vector<bool> active(status.size());
  for (std::size_t i = 0; i < status.size(); ++i) active[i] = status[i] == -1;
  return components_of_mask(g, active);
}

int eta1_matching(const Graph& g, const Predictions& pred) {
  return mu1_max(matching_error_components(g, pred));
}

// ---- (Δ+1)-Vertex Coloring --------------------------------------------------

std::vector<int> coloring_base_status(const Graph& g,
                                      const Predictions& pred) {
  const NodeId n = g.num_nodes();
  const Value palette = g.max_degree() + 1;
  std::vector<int> status(static_cast<std::size_t>(n), -1);
  for (NodeId v = 0; v < n; ++v) {
    const Value xv = pred.node(v);
    if (xv < 1 || xv > palette) continue;
    bool distinct = true;
    for (NodeId u : g.neighbors(v)) {
      if (pred.node(u) == xv) {
        distinct = false;
        break;
      }
    }
    if (distinct) status[v] = 1;
  }
  return status;
}

std::vector<std::vector<NodeId>> coloring_error_components(
    const Graph& g, const Predictions& pred) {
  auto status = coloring_base_status(g, pred);
  std::vector<bool> active(status.size());
  for (std::size_t i = 0; i < status.size(); ++i) active[i] = status[i] == -1;
  return components_of_mask(g, active);
}

int eta1_coloring(const Graph& g, const Predictions& pred) {
  return mu1_max(coloring_error_components(g, pred));
}

// ---- (2Δ−1)-Edge Coloring ---------------------------------------------------

std::vector<std::vector<bool>> edge_coloring_base_colored(
    const Graph& g, const Predictions& pred) {
  const NodeId n = g.num_nodes();
  const Value palette = std::max<Value>(1, 2 * g.max_degree() - 1);
  // proposes[v][slot]: v's prediction for that edge is legal and unique
  // among v's incident-edge predictions.
  std::vector<std::vector<bool>> proposes(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    const auto& nb = g.neighbors(v);
    proposes[v].assign(nb.size(), false);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const Value c = pred.edge(g, v, nb[i]);
      if (c < 1 || c > palette) continue;
      bool unique = true;
      for (std::size_t j = 0; j < nb.size(); ++j) {
        if (j != i && pred.edge(g, v, nb[j]) == c) {
          unique = false;
          break;
        }
      }
      proposes[v][i] = unique;
    }
  }
  auto slot = [&g](NodeId v, NodeId u) -> std::size_t {
    return g.edge_slot(v, u) - g.row_begin(v);
  };
  std::vector<std::vector<bool>> colored(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    colored[v].assign(g.neighbors(v).size(), false);
  }
  for (auto [u, v] : g.edges()) {
    const std::size_t su = slot(u, v);
    const std::size_t sv = slot(v, u);
    if (proposes[u][su] && proposes[v][sv] &&
        pred.edge(g, u, v) == pred.edge(g, v, u)) {
      colored[u][su] = true;
      colored[v][sv] = true;
    }
  }
  return colored;
}

std::vector<std::vector<NodeId>> edge_coloring_error_components(
    const Graph& g, const Predictions& pred) {
  auto colored = edge_coloring_base_colored(g, pred);
  auto slot = [&g](NodeId v, NodeId u) -> std::size_t {
    return g.edge_slot(v, u) - g.row_begin(v);
  };
  // Union-find over nodes, joining endpoints of uncolored edges.
  std::vector<NodeId> parent(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) parent[v] = v;
  std::function<NodeId(NodeId)> find = [&](NodeId v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  std::vector<bool> touched(static_cast<std::size_t>(g.num_nodes()), false);
  for (auto [u, v] : g.edges()) {
    if (!colored[u][slot(u, v)]) {
      touched[u] = touched[v] = true;
      parent[find(u)] = find(v);
    }
  }
  std::vector<std::vector<NodeId>> groups(
      static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (touched[v]) groups[find(v)].push_back(v);
  }
  std::vector<std::vector<NodeId>> out;
  for (auto& grp : groups) {
    if (!grp.empty()) out.push_back(std::move(grp));
  }
  return out;
}

int eta1_edge_coloring(const Graph& g, const Predictions& pred) {
  return mu1_max(edge_coloring_error_components(g, pred));
}

}  // namespace dgap
