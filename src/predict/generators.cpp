#include "predict/generators.hpp"

#include <algorithm>
#include <numeric>
#include <set>

#include "common/require.hpp"
#include "graph/exact.hpp"
#include "graph/generators.hpp"
#include "graph/key_table.hpp"

namespace dgap {
namespace {

std::vector<NodeId> random_order(NodeId n, Rng& rng) {
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), NodeId{0});
  rng.shuffle(order);
  return order;
}

std::vector<std::size_t> distinct_indices(std::size_t count, std::size_t bound,
                                          Rng& rng) {
  count = std::min(count, bound);
  std::vector<std::size_t> all(bound);
  std::iota(all.begin(), all.end(), std::size_t{0});
  rng.shuffle(all);
  all.resize(count);
  return all;
}

/// Position of u in v's neighbor row.
std::size_t slot_of(const Graph& g, NodeId v, NodeId u) {
  return g.edge_slot(v, u) - g.row_begin(v);
}

}  // namespace

// ---- MIS --------------------------------------------------------------------

Predictions mis_correct_prediction(const Graph& g, Rng& rng) {
  auto in = sequential_mis(g, random_order(g.num_nodes(), rng));
  std::vector<Value> x(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) x[i] = in[i] ? 1 : 0;
  return Predictions(std::move(x));
}

Predictions flip_bits(const Graph& g, const Predictions& base, int flips,
                      Rng& rng) {
  DGAP_REQUIRE(base.node_values().size() ==
                   static_cast<std::size_t>(g.num_nodes()),
               "flip_bits: prediction size must match the graph");
  std::vector<Value> x = base.node_values();
  for (std::size_t i :
       distinct_indices(static_cast<std::size_t>(std::max(flips, 0)),
                        x.size(), rng)) {
    x[i] = x[i] == 0 ? 1 : 0;
  }
  return Predictions(std::move(x));
}

Predictions all_same(const Graph& g, Value value) {
  return Predictions(
      std::vector<Value>(static_cast<std::size_t>(g.num_nodes()), value));
}

Predictions grid_stripe_prediction(NodeId w, NodeId h) {
  std::vector<Value> x(static_cast<std::size_t>(w) * h, 0);
  for (NodeId y = 0; y < h; ++y) {
    for (NodeId xcoord = 0; xcoord < w; ++xcoord) {
      const int a = xcoord % 4;
      const int b = y % 4;
      const bool black = (a <= 1 && b <= 1) || (a >= 2 && b >= 2);
      x[grid_index(w, xcoord, y)] = black ? 1 : 0;
    }
  }
  return Predictions(std::move(x));
}

Predictions stale_mis_prediction(const Graph& old_graph,
                                 const Graph& new_graph, Rng& rng) {
  DGAP_REQUIRE(old_graph.num_nodes() == new_graph.num_nodes(),
               "stale predictions need the same node set");
  return mis_correct_prediction(old_graph, rng);
}

Graph perturb_edges(const Graph& g, int remove_edges, int add_edges,
                    Rng& rng) {
  auto edges = g.edges();
  rng.shuffle(edges);
  const std::size_t keep_from =
      std::min(edges.size(), static_cast<std::size_t>(std::max(remove_edges, 0)));
  const NodeId n = g.num_nodes();
  GraphBuilder out(n);
  // The pairs chosen so far (kept edges, then accepted additions) decide
  // rejections exactly as querying the graph under construction would.
  const auto key = [n](NodeId u, NodeId v) {
    return static_cast<std::uint64_t>(std::min(u, v)) *
               static_cast<std::uint64_t>(n) +
           static_cast<std::uint64_t>(std::max(u, v));
  };
  KeySet chosen(edges.size() - keep_from +
                static_cast<std::size_t>(std::max(add_edges, 0)));
  for (std::size_t i = keep_from; i < edges.size(); ++i) {
    out.add_edge(edges[i].first, edges[i].second);
    chosen.insert(key(edges[i].first, edges[i].second));
  }
  int added = 0;
  int attempts = 0;
  while (added < add_edges && attempts < 100 * (add_edges + 1) && n >= 2) {
    ++attempts;
    NodeId u = static_cast<NodeId>(rng.next_below(n));
    NodeId v = static_cast<NodeId>(rng.next_below(n));
    if (u == v || !chosen.insert(key(u, v))) continue;
    out.add_edge(u, v);
    ++added;
  }
  Graph perturbed = out.build();
  perturbed.set_ids(g.ids());
  perturbed.set_id_bound(g.id_bound());
  return perturbed;
}

// ---- Maximal Matching -------------------------------------------------------

Predictions matching_correct_prediction(const Graph& g, Rng& rng) {
  auto edges = g.edges();
  rng.shuffle(edges);
  std::vector<NodeId> mate(static_cast<std::size_t>(g.num_nodes()), kNoNode);
  for (auto [u, v] : edges) {
    if (mate[u] == kNoNode && mate[v] == kNoNode) {
      mate[u] = v;
      mate[v] = u;
    }
  }
  std::vector<Value> x(mate.size());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    x[v] = mate[v] == kNoNode ? Value{kNoNode} : g.id(mate[v]);
  }
  return Predictions(std::move(x));
}

Predictions break_matches(const Graph& g, const Predictions& base, int breaks,
                          Rng& rng) {
  auto x = base.node_values();
  // Collect matched pairs (v < partner index) and unmatch a random subset.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (x[v] == kNoNode) continue;
    for (NodeId u : g.neighbors(v)) {
      if (v < u && x[v] == g.id(u) && x[u] == g.id(v)) pairs.emplace_back(v, u);
    }
  }
  rng.shuffle(pairs);
  const std::size_t cut =
      std::min(pairs.size(), static_cast<std::size_t>(std::max(breaks, 0)));
  for (std::size_t i = 0; i < cut; ++i) {
    x[pairs[i].first] = kNoNode;
    x[pairs[i].second] = kNoNode;
  }
  return Predictions(std::move(x));
}

// ---- (Δ+1)-Vertex Coloring --------------------------------------------------

Predictions coloring_correct_prediction(const Graph& g, Rng& rng) {
  const Value palette = g.max_degree() + 1;
  std::vector<Value> color(static_cast<std::size_t>(g.num_nodes()), 0);
  for (NodeId v : random_order(g.num_nodes(), rng)) {
    std::vector<bool> used(static_cast<std::size_t>(palette + 1), false);
    for (NodeId u : g.neighbors(v)) {
      if (color[u] >= 1) used[color[u]] = true;
    }
    for (Value c = 1; c <= palette; ++c) {
      if (!used[c]) {
        color[v] = c;
        break;
      }
    }
    DGAP_ASSERT(color[v] != 0, "palette exceeds degree; a color must exist");
  }
  return Predictions(std::move(color));
}

Predictions scramble_colors(const Graph& g, const Predictions& base, int flips,
                            Rng& rng) {
  const Value palette = g.max_degree() + 1;
  auto x = base.node_values();
  for (std::size_t i :
       distinct_indices(static_cast<std::size_t>(std::max(flips, 0)),
                        x.size(), rng)) {
    x[i] = rng.uniform(1, palette);
  }
  return Predictions(std::move(x));
}

// ---- (2Δ−1)-Edge Coloring ---------------------------------------------------

Predictions edge_coloring_correct_prediction(const Graph& g, Rng& rng) {
  const Value palette = std::max<Value>(1, 2 * g.max_degree() - 1);
  auto edges = g.edges();
  rng.shuffle(edges);
  std::vector<std::vector<Value>> x(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    x[v].assign(g.neighbors(v).size(), 0);
  }
  for (auto [u, v] : edges) {
    std::vector<bool> used(static_cast<std::size_t>(palette + 1), false);
    for (Value c : x[u]) {
      if (c >= 1) used[c] = true;
    }
    for (Value c : x[v]) {
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
    x[u][slot_of(g, u, v)] = chosen;
    x[v][slot_of(g, v, u)] = chosen;
  }
  return Predictions::for_edges(g, std::move(x));
}

Predictions scramble_edge_colors(const Graph& g, const Predictions& base,
                                 int flips, Rng& rng) {
  const Value palette = std::max<Value>(1, 2 * g.max_degree() - 1);
  auto x = base.edge_values();
  auto edges = g.edges();
  rng.shuffle(edges);
  const std::size_t cut =
      std::min(edges.size(), static_cast<std::size_t>(std::max(flips, 0)));
  for (std::size_t i = 0; i < cut; ++i) {
    auto [u, v] = edges[i];
    const Value c = rng.uniform(1, palette);
    x[u][slot_of(g, u, v)] = c;
    x[v][slot_of(g, v, u)] = c;
  }
  return Predictions::for_edges(g, std::move(x));
}

}  // namespace dgap
