#include "graph/graph.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>

#include "common/require.hpp"
#include "graph/key_table.hpp"

namespace dgap {

Graph::Graph(NodeId n) {
  DGAP_REQUIRE(n >= 0, "graph size must be non-negative");
  offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  ids_.resize(static_cast<std::size_t>(n));
  std::iota(ids_.begin(), ids_.end(), Value{1});
  id_bound_ = n;
}

void Graph::set_id_bound(std::int64_t d) {
  for (Value id : ids_) {
    DGAP_REQUIRE(id <= d, "id bound below an existing identifier");
  }
  id_bound_ = d;
}

void Graph::set_ids(std::vector<Value> ids) {
  DGAP_REQUIRE(ids.size() == ids_.size(), "one identifier per node");
  Value lo = std::numeric_limits<Value>::max();
  Value hi = 0;
  for (const Value id : ids) {
    lo = std::min(lo, id);
    hi = std::max(hi, id);
  }
  DGAP_REQUIRE(ids.empty() || lo >= 1, "identifiers are positive");
  // Shuffled identifiers hash to random slots: start each slot's load a
  // few inserts ahead so the misses overlap.
  constexpr std::size_t kAhead = 8;
  KeySet seen(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i + kAhead < ids.size()) {
      seen.prefetch(static_cast<std::uint64_t>(ids[i + kAhead]));
    }
    DGAP_REQUIRE(seen.insert(static_cast<std::uint64_t>(ids[i])),
                 "identifiers must be distinct");
  }
  if (!ids.empty()) id_bound_ = std::max(id_bound_, hi);
  ids_ = std::move(ids);
}

void Graph::check_node(NodeId v) const {
  DGAP_REQUIRE(v >= 0 && v < num_nodes(), "node index out of range");
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  return edge_slot(u, v) != kNoSlot;
}

std::uint32_t Graph::edge_slot(NodeId v, NodeId u) const {
  const auto nb = neighbors(v);
  const auto it = std::lower_bound(nb.begin(), nb.end(), u);
  if (it == nb.end() || *it != u) return kNoSlot;
  return offsets_[v] + static_cast<std::uint32_t>(it - nb.begin());
}

std::vector<std::pair<NodeId, NodeId>> Graph::edges() const {
  std::vector<std::pair<NodeId, NodeId>> es;
  es.reserve(static_cast<std::size_t>(num_edges()));
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) es.emplace_back(u, v);
    }
  }
  return es;
}

std::pair<Graph, std::vector<NodeId>> Graph::induced(
    const std::vector<NodeId>& keep) const {
  std::vector<NodeId> old_to_new(static_cast<std::size_t>(num_nodes()), -1);
  std::vector<NodeId> new_to_old;
  new_to_old.reserve(keep.size());
  for (NodeId v : keep) {
    check_node(v);
    DGAP_REQUIRE(old_to_new[v] == -1, "duplicate node in induced() set");
    old_to_new[v] = static_cast<NodeId>(new_to_old.size());
    new_to_old.push_back(v);
  }
  GraphBuilder b(static_cast<NodeId>(new_to_old.size()));
  std::vector<Value> ids;
  ids.reserve(new_to_old.size());
  for (NodeId nu = 0; nu < b.num_nodes(); ++nu) {
    ids.push_back(ids_[new_to_old[nu]]);
    for (NodeId old_nb : neighbors(new_to_old[nu])) {
      NodeId nv = old_to_new[old_nb];
      if (nv >= 0 && nu < nv) b.add_edge(nu, nv);
    }
  }
  Graph sub = b.build();
  sub.set_ids(std::move(ids));
  sub.set_id_bound(id_bound_);
  return {std::move(sub), std::move(new_to_old)};
}

GraphBuilder::GraphBuilder(NodeId n) : n_(n) {
  DGAP_REQUIRE(n >= 0, "graph size must be non-negative");
}

void GraphBuilder::add_edge(NodeId u, NodeId v) {
  DGAP_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_,
               "node index out of range");
  DGAP_REQUIRE(u != v, "no self-loops in a simple graph");
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::build() {
  DGAP_REQUIRE(edges_.size() <= UINT32_MAX / 2,
               "2m directed edges must fit the 32-bit CSR offsets");
  Graph g(n_);
  auto& off = g.offsets_;
  for (const auto& [u, v] : edges_) {
    ++off[static_cast<std::size_t>(u) + 1];
    ++off[static_cast<std::size_t>(v) + 1];
  }
  std::uint32_t max_degree = 0;
  for (std::size_t v = 1; v < off.size(); ++v) {
    max_degree = std::max(max_degree, off[v]);
    off[v] += off[v - 1];
  }
  // Counting sort of both directions by source; a row fills in edge-list
  // order, so rows of generators that emit edges lexicographically are
  // already ascending and the per-row check below only confirms it.
  //
  // At least one endpoint of a generated edge is a random row, so each
  // placement is a dependent pair of random accesses (the row's cursor,
  // then the slot it points at). The loop is software-pipelined: it
  // prefetches both endpoints' cursors kCursorAhead edges ahead, and their
  // destination slots kSlotAhead edges ahead, by when those cursors have
  // arrived. A cursor may still move before its edge is placed; the hint
  // then lands one slot early, never on a value.
  constexpr std::size_t kCursorAhead = 32;
  constexpr std::size_t kSlotAhead = 16;
  std::vector<std::uint32_t> cursor(off.begin(), off.end() - 1);
  g.adj_.resize(edges_.size() * 2);
  const std::size_t m = edges_.size();
  for (std::size_t i = 0; i < m; ++i) {
    if (i + kCursorAhead < m) {
      const auto& [cu, cv] = edges_[i + kCursorAhead];
      __builtin_prefetch(&cursor[static_cast<std::size_t>(cu)], 1);
      __builtin_prefetch(&cursor[static_cast<std::size_t>(cv)], 1);
    }
    if (i + kSlotAhead < m) {
      const auto& [su, sv] = edges_[i + kSlotAhead];
      __builtin_prefetch(g.adj_.data() + cursor[static_cast<std::size_t>(su)],
                         1);
      __builtin_prefetch(g.adj_.data() + cursor[static_cast<std::size_t>(sv)],
                         1);
    }
    const auto [u, v] = edges_[i];
    g.adj_[cursor[static_cast<std::size_t>(u)]++] = v;
    g.adj_[cursor[static_cast<std::size_t>(v)]++] = u;
  }
  std::vector<std::pair<NodeId, NodeId>>().swap(edges_);
  std::vector<std::uint32_t>().swap(cursor);
  for (std::size_t v = 0; v + 1 < off.size(); ++v) {
    const auto row_begin = g.adj_.begin() + off[v];
    const auto row_end = g.adj_.begin() + off[v + 1];
    // A strictly ascending row is sorted and duplicate-free in one pass.
    if (std::adjacent_find(row_begin, row_end, std::greater_equal<>()) ==
        row_end) {
      continue;
    }
    std::sort(row_begin, row_end);
    DGAP_REQUIRE(std::adjacent_find(row_begin, row_end) == row_end,
                 "edge already present");
  }
  g.max_degree_ = static_cast<int>(max_degree);
  return g;
}

}  // namespace dgap
