#include "predict/warm_start.hpp"

#include "common/require.hpp"
#include "graph/key_table.hpp"

namespace dgap {

namespace {

/// For each node of `next`, its internal index in `prev` (kNoNode when the
/// identifier did not exist there). Also checks the outputs vector shape.
std::vector<NodeId> prev_index_of(const Graph& prev,
                                  const std::vector<Value>& prev_outputs,
                                  const Graph& next) {
  DGAP_REQUIRE(prev_outputs.size() ==
                   static_cast<std::size_t>(prev.num_nodes()),
               "warm start needs one previous output per previous node");
  KeyIndex by_id(static_cast<std::size_t>(prev.num_nodes()));
  for (NodeId v = 0; v < prev.num_nodes(); ++v) {
    by_id.insert(static_cast<std::uint64_t>(prev.id(v)), v);
  }
  std::vector<NodeId> map(static_cast<std::size_t>(next.num_nodes()), kNoNode);
  for (NodeId v = 0; v < next.num_nodes(); ++v) {
    const NodeId* pv = by_id.find(static_cast<std::uint64_t>(next.id(v)));
    if (pv) map[static_cast<std::size_t>(v)] = *pv;
  }
  return map;
}

}  // namespace

Predictions warm_start_mis(const Graph& prev,
                           const std::vector<Value>& prev_outputs,
                           const Graph& next) {
  const auto map = prev_index_of(prev, prev_outputs, next);
  std::vector<Value> pred(static_cast<std::size_t>(next.num_nodes()), 0);
  for (NodeId v = 0; v < next.num_nodes(); ++v) {
    const NodeId pv = map[static_cast<std::size_t>(v)];
    if (pv == kNoNode) continue;
    const Value out = prev_outputs[static_cast<std::size_t>(pv)];
    if (out == 0 || out == 1) pred[static_cast<std::size_t>(v)] = out;
  }
  return Predictions(std::move(pred));
}

Predictions warm_start_matching(const Graph& prev,
                                const std::vector<Value>& prev_outputs,
                                const Graph& next) {
  const auto map = prev_index_of(prev, prev_outputs, next);
  KeySet next_ids(static_cast<std::size_t>(next.num_nodes()));
  for (NodeId v = 0; v < next.num_nodes(); ++v) {
    next_ids.insert(static_cast<std::uint64_t>(next.id(v)));
  }
  std::vector<Value> pred(static_cast<std::size_t>(next.num_nodes()),
                          kNoNode);
  for (NodeId v = 0; v < next.num_nodes(); ++v) {
    const NodeId pv = map[static_cast<std::size_t>(v)];
    if (pv == kNoNode) continue;
    const Value out = prev_outputs[static_cast<std::size_t>(pv)];
    // Identifiers are positive; anything else (⊥ included) stays ⊥. A
    // partner whose identifier was deleted is dropped, not replayed.
    if (out >= 1 && next_ids.find(static_cast<std::uint64_t>(out))) {
      pred[static_cast<std::size_t>(v)] = out;
    }
  }
  return Predictions(std::move(pred));
}

Predictions warm_start_coloring(const Graph& prev,
                                const std::vector<Value>& prev_outputs,
                                const Graph& next) {
  const auto map = prev_index_of(prev, prev_outputs, next);
  std::vector<Value> pred(static_cast<std::size_t>(next.num_nodes()), 0);
  for (NodeId v = 0; v < next.num_nodes(); ++v) {
    const NodeId pv = map[static_cast<std::size_t>(v)];
    if (pv == kNoNode) continue;
    const Value out = prev_outputs[static_cast<std::size_t>(pv)];
    if (out >= 1) pred[static_cast<std::size_t>(v)] = out;
  }
  return Predictions(std::move(pred));
}

}  // namespace dgap
