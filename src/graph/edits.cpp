#include "graph/edits.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "graph/key_table.hpp"

namespace dgap {

Graph apply_edits(const Graph& g, const EditBatch& batch) {
  DGAP_REQUIRE(batch.add_nodes >= 0, "add_nodes must be non-negative");
  const NodeId n = g.num_nodes();
  KeyIndex by_id(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    by_id.insert(static_cast<std::uint64_t>(g.id(v)), v);
  }
  // Identifiers are positive, so a non-positive one converts to a key no
  // identifier has and is reported unknown.
  auto find = [&](Value id) {
    return by_id.find(static_cast<std::uint64_t>(id));
  };
  auto lookup = [&](Value id) {
    const NodeId* v = find(id);
    DGAP_REQUIRE(v != nullptr, "edit references an unknown identifier");
    return *v;
  };

  // A removed edge is marked at its CSR slot in the row of its smaller
  // endpoint, the slot the survivor scan below visits it from.
  std::vector<bool> removed_slot(g.adjacency().size());
  for (const auto& [a, b] : batch.remove_edges) {
    const NodeId u = lookup(a);
    const NodeId v = lookup(b);
    const std::uint32_t slot = g.edge_slot(std::min(u, v), std::max(u, v));
    DGAP_REQUIRE(slot != Graph::kNoSlot, "removed edge is not in the graph");
    DGAP_REQUIRE(!removed_slot[slot], "edge removed twice in one batch");
    removed_slot[slot] = true;
  }

  std::vector<bool> removed_node(static_cast<std::size_t>(n));
  for (Value id : batch.remove_nodes) {
    const NodeId v = lookup(id);
    DGAP_REQUIRE(!removed_node[static_cast<std::size_t>(v)],
                 "node removed twice in one batch");
    removed_node[static_cast<std::size_t>(v)] = true;
  }

  // Survivors keep their relative order; inserted nodes are appended with
  // fresh identifiers above the old bound, and the bound moves past them
  // so a later batch can never reissue an identifier this graph ever used.
  std::vector<NodeId> old_to_new(static_cast<std::size_t>(n), kNoNode);
  std::vector<Value> ids;
  ids.reserve(static_cast<std::size_t>(n + batch.add_nodes));
  for (NodeId v = 0; v < n; ++v) {
    if (removed_node[static_cast<std::size_t>(v)]) continue;
    old_to_new[static_cast<std::size_t>(v)] = static_cast<NodeId>(ids.size());
    ids.push_back(g.id(v));
  }
  const NodeId survivors = static_cast<NodeId>(ids.size());
  for (std::int64_t k = 0; k < batch.add_nodes; ++k) {
    ids.push_back(g.id_bound() + 1 + k);
  }
  GraphBuilder builder(static_cast<NodeId>(ids.size()));
  builder.reserve(static_cast<std::size_t>(g.num_edges()) +
                  batch.add_edges.size());
  for (NodeId u = 0; u < n; ++u) {
    const NodeId nu = old_to_new[static_cast<std::size_t>(u)];
    if (nu == kNoNode) continue;
    const auto row = g.neighbors(u);
    for (std::size_t j = 0; j < row.size(); ++j) {
      const NodeId v = row[j];
      if (u >= v || removed_slot[g.row_begin(u) + j]) continue;
      const NodeId nv = old_to_new[static_cast<std::size_t>(v)];
      if (nv != kNoNode) builder.add_edge(nu, nv);
    }
  }

  // Index of an identifier in the edited graph, or kNoNode: a survivor
  // through the old index, an inserted node arithmetically above the old
  // bound (every surviving identifier is at most that bound).
  auto next_index = [&](Value id) {
    if (id > g.id_bound()) {
      const std::int64_t k = id - g.id_bound() - 1;
      return k < batch.add_nodes ? survivors + static_cast<NodeId>(k)
                                 : kNoNode;
    }
    const NodeId* v = find(id);
    return v ? old_to_new[static_cast<std::size_t>(*v)] : kNoNode;
  };
  for (const auto& [a, b] : batch.add_edges) {
    const NodeId ia = next_index(a);
    const NodeId ib = next_index(b);
    DGAP_REQUIRE(ia != kNoNode && ib != kNoNode,
                 "added edge references an identifier absent from the "
                 "edited graph");
    builder.add_edge(ia, ib);  // REQUIREs no self-loop
  }
  Graph next = builder.build();  // REQUIREs no duplicate edge
  next.set_ids(std::move(ids));
  next.set_id_bound(g.id_bound() + batch.add_nodes);
  return next;
}

EditBatch ChurnSpec::generate(const Graph& g, int epoch) const {
  DGAP_REQUIRE(epoch >= 0, "epoch must be non-negative");
  // splitmix-style seed mixing keeps per-epoch streams unrelated.
  Rng rng(seed * 0x9e3779b97f4a7c15ULL +
          static_cast<std::uint64_t>(epoch) * 0xbf58476d1ce4e5b9ULL + 1);
  EditBatch batch;

  auto count_of = [](double frac, std::int64_t total) {
    if (frac <= 0 || total <= 0) return std::int64_t{0};
    return std::min<std::int64_t>(
        total, static_cast<std::int64_t>(frac * static_cast<double>(total) +
                                         0.5));
  };

  // Node removals first, so edge churn is drawn among surviving edges.
  const NodeId n = g.num_nodes();
  std::int64_t removals = count_of(node_remove_frac, n);
  removals = std::max<std::int64_t>(
      0, std::min<std::int64_t>(removals, n - min_nodes));
  std::vector<NodeId> nodes(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) nodes[static_cast<std::size_t>(v)] = v;
  rng.shuffle(nodes);
  std::vector<bool> removed(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < removals; ++i) {
    removed[static_cast<std::size_t>(nodes[static_cast<std::size_t>(i)])] =
        true;
    batch.remove_nodes.push_back(
        g.id(nodes[static_cast<std::size_t>(i)]));
  }
  std::vector<NodeId> survivors;
  for (NodeId v = 0; v < n; ++v) {
    if (!removed[static_cast<std::size_t>(v)]) survivors.push_back(v);
  }

  // Edge removals among edges both of whose endpoints survive.
  std::vector<std::pair<NodeId, NodeId>> live_edges;
  for (const auto& [u, v] : g.edges()) {
    if (!removed[static_cast<std::size_t>(u)] &&
        !removed[static_cast<std::size_t>(v)]) {
      live_edges.emplace_back(u, v);
    }
  }
  rng.shuffle(live_edges);
  const std::int64_t edge_removals =
      count_of(edge_remove_frac, static_cast<std::int64_t>(live_edges.size()));
  for (std::int64_t i = 0; i < edge_removals; ++i) {
    const auto& [u, v] = live_edges[static_cast<std::size_t>(i)];
    batch.remove_edges.emplace_back(g.id(u), g.id(v));
  }

  batch.add_nodes = count_of(node_add_frac, n);

  // Added edges among survivors: sample non-adjacent pairs, skipping pairs
  // already chosen and pairs whose edge was just removed (re-adding a
  // removed edge in the same batch would be a duplicate in apply_edits).
  const std::int64_t edge_adds =
      count_of(edge_add_frac, static_cast<std::int64_t>(live_edges.size()));
  KeySet taken(static_cast<std::size_t>(edge_removals + edge_adds));
  auto pair_key = [&](NodeId u, NodeId v) {
    if (u > v) std::swap(u, v);
    return static_cast<std::uint64_t>(u) * static_cast<std::uint64_t>(n) +
           static_cast<std::uint64_t>(v);
  };
  for (std::int64_t i = 0; i < edge_removals; ++i) {
    const auto& [u, v] = live_edges[static_cast<std::size_t>(i)];
    taken.insert(pair_key(u, v));
  }
  if (survivors.size() >= 2) {
    std::int64_t added = 0;
    // Bounded retries keep generation O(adds) on dense graphs.
    for (std::int64_t attempt = 0;
         added < edge_adds && attempt < 20 * edge_adds + 100; ++attempt) {
      const NodeId u = survivors[static_cast<std::size_t>(
          rng.next_below(survivors.size()))];
      const NodeId v = survivors[static_cast<std::size_t>(
          rng.next_below(survivors.size()))];
      if (u == v || g.has_edge(u, v) || !taken.insert(pair_key(u, v))) {
        continue;
      }
      batch.add_edges.emplace_back(g.id(u), g.id(v));
      ++added;
    }
  }

  // Wire each inserted node to distinct random survivors by a partial
  // Fisher–Yates over one pool that is never reset: whatever order the
  // pool is in, its first `wires` slots after the swaps are a uniform
  // random ordered sample. Inserted identifiers are known in advance:
  // id_bound + 1 + k.
  const std::size_t wires = std::min<std::size_t>(
      survivors.size(),
      static_cast<std::size_t>(std::max(0, new_node_degree)));
  for (std::int64_t k = 0; k < batch.add_nodes; ++k) {
    const Value new_id = g.id_bound() + 1 + k;
    for (std::size_t i = 0; i < wires; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng.next_below(survivors.size() - i));
      std::swap(survivors[i], survivors[j]);
      batch.add_edges.emplace_back(new_id, g.id(survivors[i]));
    }
  }
  return batch;
}

}  // namespace dgap
