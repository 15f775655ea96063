// Undirected simple graph with distinct node identifiers.
//
// This mirrors the paper's Section 2 model: a graph G = (V, E) where
// V ⊆ {1, ..., d} and every node knows its own identifier and the
// identifiers of its neighbors. Internally nodes are dense indices
// 0..n-1; the identifier of internal node v is id(v). All distributed
// algorithms in this library break symmetry by comparing identifiers,
// never internal indices, so an induced subgraph (which keeps the original
// identifiers) behaves exactly like the paper's "remaining graph".
//
// The adjacency is immutable CSR: one 32-bit offsets array and one
// neighbor array, each row ascending, with Δ recorded once. Edges are
// created only through GraphBuilder; every other layer (the engine's
// active-neighbor pool, the link layer, the compile cache, edge
// predictions) addresses directed edges by the same CSR slot, edge_slot().
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace dgap {

class GraphBuilder;

class Graph {
 public:
  /// edge_slot() result for a pair that is not an edge.
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  Graph() : offsets_(1, 0) {}

  /// n isolated nodes; identifiers default to 1..n (so d = n).
  explicit Graph(NodeId n);

  NodeId num_nodes() const { return static_cast<NodeId>(ids_.size()); }
  std::int64_t num_edges() const {
    return static_cast<std::int64_t>(adj_.size() / 2);
  }

  /// Upper bound on identifiers (the paper's d). At least max id.
  std::int64_t id_bound() const { return id_bound_; }
  void set_id_bound(std::int64_t d);

  /// The identifier of internal node v (distinct across nodes, in 1..d).
  Value id(NodeId v) const { return ids_[v]; }
  const std::vector<Value>& ids() const { return ids_; }

  /// Reassign identifiers. `ids` must be distinct positive values; the id
  /// bound is raised to cover them if needed.
  void set_ids(std::vector<Value> ids);

  bool has_edge(NodeId u, NodeId v) const;

  /// Neighbors of v, sorted by internal index.
  std::span<const NodeId> neighbors(NodeId v) const {
    return {adj_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }
  int degree(NodeId v) const {
    return static_cast<int>(offsets_[v + 1] - offsets_[v]);
  }

  /// Maximum degree Δ over all nodes (0 for the empty graph), recorded
  /// when the graph was built.
  int max_degree() const { return max_degree_; }

  /// CSR slot of the directed edge v -> u: row_begin(v) + the position of
  /// u in neighbors(v), or kNoSlot when u is not a neighbor of v. Slots
  /// number the 2m directed edges 0..2m-1; v must be a valid node.
  std::uint32_t edge_slot(NodeId v, NodeId u) const;
  /// First slot of v's row (neighbors(v)[j] has slot row_begin(v) + j).
  std::uint32_t row_begin(NodeId v) const { return offsets_[v]; }
  /// The flat neighbor array, rows concatenated in node order (2m slots).
  const std::vector<NodeId>& adjacency() const { return adj_; }
  /// The CSR row starts: n + 1 offsets into adjacency().
  const std::vector<std::uint32_t>& offsets() const { return offsets_; }

  /// All edges as (u, v) with u < v, sorted.
  std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// Subgraph induced by `keep` (internal indices). Identifiers and the id
  /// bound are preserved. Returns the subgraph and the mapping from new
  /// internal index to old internal index.
  std::pair<Graph, std::vector<NodeId>> induced(
      const std::vector<NodeId>& keep) const;

 private:
  friend class GraphBuilder;

  void check_node(NodeId v) const;

  std::vector<std::uint32_t> offsets_;  // n + 1 row starts into adj_
  std::vector<NodeId> adj_;             // 2m neighbors, rows ascending
  std::vector<Value> ids_;
  std::int64_t id_bound_ = 0;
  int max_degree_ = 0;
};

/// The only way to give a graph edges. add_edge() checks range and
/// self-loops and appends; build() lays both directions of every edge out
/// as CSR (a counting sort by endpoint, then a per-row sort), rejects
/// duplicate edges given in either orientation, and records Δ. The built
/// graph has identifiers 1..n; producers that keep other identifiers call
/// Graph::set_ids / set_id_bound on the result.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId n);

  NodeId num_nodes() const { return n_; }
  void reserve(std::size_t edges) { edges_.reserve(edges); }

  void add_edge(NodeId u, NodeId v);

  /// The CSR graph. Throws std::invalid_argument on a duplicate edge, or
  /// when 2m does not fit the 32-bit offsets. Leaves the builder empty.
  Graph build();

 private:
  NodeId n_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

}  // namespace dgap
