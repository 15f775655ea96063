// Edit batches: identifier-stable mutation of immutable graphs.
//
// The paper's Section 1.1 serving scenario evolves one network through
// small changes while solutions computed on older versions are replayed
// as predictions. Graph is immutable, so evolution is rebuild-from-edits:
// apply_edits() takes a graph plus an EditBatch and constructs the next
// version. Everything is keyed by IDENTIFIER, never internal index —
// surviving nodes keep their identifiers (so stale solutions keyed by id
// stay meaningful), and the identifier bound d only ever grows: a deleted
// node's identifier is burned forever and is never reissued to a later
// insertion (tests/epoch_test.cpp pins this). Internal indices are NOT
// stable across versions; consumers must translate through identifiers.
//
// ChurnSpec generates deterministic random edit batches (all randomness
// through dgap::Rng from the spec's seed and the epoch number), the raw
// material of the epoch harness in sim/epoch.hpp.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace dgap {

/// One batch of edits, all keyed by identifier. Applied in this order:
/// edge removals, node removals (which drop their incident edges), node
/// insertions (fresh identifiers above the current bound), edge
/// insertions (which may reference freshly inserted identifiers).
struct EditBatch {
  std::vector<std::pair<Value, Value>> remove_edges;
  std::vector<Value> remove_nodes;
  /// Inserted nodes get identifiers id_bound+1 .. id_bound+add_nodes, and
  /// the new graph's id_bound is raised past them — identifier reuse is
  /// structurally impossible.
  std::int64_t add_nodes = 0;
  std::vector<std::pair<Value, Value>> add_edges;

  bool empty() const {
    return remove_edges.empty() && remove_nodes.empty() && add_nodes == 0 &&
           add_edges.empty();
  }
};

/// The next graph version. Surviving nodes keep their identifiers (and
/// their relative internal order); inserted nodes are appended. Referencing
/// an unknown identifier, removing a missing edge, or adding a duplicate
/// edge throws DGAP_REQUIRE — an edit batch is a contract, not a hint.
Graph apply_edits(const Graph& g, const EditBatch& batch);

/// Deterministic random churn, self-scaling: the node fractions count the
/// current graph's nodes, and the edge fractions count the edges among
/// the nodes that survive this batch's removals. generate() derives every
/// choice from (seed, epoch) alone — equal specs give equal batches. Its
/// draws, in order: one shuffle of the nodes, whose prefix is removed
/// (clamped so at least min_nodes survive); one shuffle of the edges
/// among survivors, whose prefix is removed; edge additions as sampled
/// survivor pairs that are not adjacent, just removed or already chosen
/// (bounded retries); and for each inserted node, a partial Fisher–Yates
/// over one survivor pool that is never reset, whose first draws wire it
/// to min(max(0, new_node_degree), survivors) distinct survivors, a
/// uniform random ordered sample. An epoch costs O(n + m) plus
/// O(new_node_degree) per inserted node.
struct ChurnSpec {
  std::uint64_t seed = 1;
  double edge_remove_frac = 0.0;
  double edge_add_frac = 0.0;
  double node_remove_frac = 0.0;
  double node_add_frac = 0.0;
  /// Edges wiring each inserted node to random surviving nodes (clamped to
  /// the nodes available), on top of edge_add_frac.
  int new_node_degree = 2;
  /// Node removals are clamped so at least this many nodes survive.
  NodeId min_nodes = 2;

  EditBatch generate(const Graph& g, int epoch) const;
};

}  // namespace dgap
