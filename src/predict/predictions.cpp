#include "predict/predictions.hpp"

#include "common/require.hpp"

namespace dgap {

Predictions::Predictions(std::vector<Value> node_values)
    : node_(std::move(node_values)) {}

Predictions Predictions::for_edges(
    const Graph& g, std::vector<std::vector<Value>> edge_values) {
  DGAP_REQUIRE(edge_values.size() == static_cast<std::size_t>(g.num_nodes()),
               "edge predictions need a row per node");
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    DGAP_REQUIRE(edge_values[v].size() == g.neighbors(v).size(),
                 "edge prediction row must align with the adjacency list");
  }
  Predictions p;
  p.edge_ = std::move(edge_values);
  return p;
}

Value Predictions::node(NodeId v) const {
  DGAP_REQUIRE(v >= 0 && static_cast<std::size_t>(v) < node_.size(),
               "no node prediction for this node");
  return node_[v];
}

Value Predictions::edge(const Graph& g, NodeId v, NodeId u) const {
  DGAP_REQUIRE(static_cast<std::size_t>(v) < edge_.size(),
               "no edge predictions for this node");
  const std::uint32_t slot = g.edge_slot(v, u);
  DGAP_REQUIRE(slot != Graph::kNoSlot, "edge(v,u) not in the graph");
  return edge_[v][slot - g.row_begin(v)];
}

}  // namespace dgap
