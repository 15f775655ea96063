#include "matching/checkers.hpp"

#include <sstream>

#include "common/require.hpp"
#include "sim/phase.hpp"

namespace dgap {
namespace {

bool defined(Value v) { return v != kUndefined && v != kLeftoverActive; }

/// Internal index of the neighbor of v with identifier `id`, or kNoNode.
NodeId neighbor_with_id(const Graph& g, NodeId v, Value id) {
  for (NodeId u : g.neighbors(v)) {
    if (g.id(u) == id) return u;
  }
  return kNoNode;
}

}  // namespace

std::string check_matching(const Graph& g, const std::vector<Value>& outputs) {
  DGAP_REQUIRE(outputs.size() == static_cast<std::size_t>(g.num_nodes()),
               "one output per node");
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!defined(outputs[v])) {
      std::ostringstream os;
      os << "node " << v << " has no output";
      return os.str();
    }
    if (outputs[v] == kNoNode) {
      for (NodeId u : g.neighbors(v)) {
        if (defined(outputs[u]) && outputs[u] == kNoNode) {
          std::ostringstream os;
          os << "adjacent nodes " << v << " and " << u
             << " are both unmatched (not maximal)";
          return os.str();
        }
      }
      continue;
    }
    const NodeId partner = neighbor_with_id(g, v, outputs[v]);
    if (partner == kNoNode) {
      std::ostringstream os;
      os << "node " << v << " claims partner id " << outputs[v]
         << " which is not a neighbor";
      return os.str();
    }
    if (outputs[partner] != g.id(v)) {
      std::ostringstream os;
      os << "asymmetric match: node " << v << " -> " << partner
         << " but not back";
      return os.str();
    }
  }
  return {};
}

bool is_valid_maximal_matching(const Graph& g,
                               const std::vector<Value>& outputs) {
  return check_matching(g, outputs).empty();
}

bool is_extendable_partial_matching(const Graph& g,
                                    const std::vector<Value>& outputs) {
  DGAP_REQUIRE(outputs.size() == static_cast<std::size_t>(g.num_nodes()),
               "one output per node");
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!defined(outputs[v])) continue;
    if (outputs[v] == kNoNode) {
      // ⊥ is only safe when every neighbor is already matched.
      for (NodeId u : g.neighbors(v)) {
        if (!defined(outputs[u]) || outputs[u] == kNoNode) return false;
      }
      continue;
    }
    const NodeId partner = neighbor_with_id(g, v, outputs[v]);
    if (partner == kNoNode) return false;
    if (!defined(outputs[partner]) || outputs[partner] != g.id(v)) {
      return false;
    }
  }
  return true;
}

}  // namespace dgap
