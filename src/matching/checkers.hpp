// Validity checkers for the Maximal Matching problem.
//
// Outputs encode the matched partner's *identifier*, or kNoNode (⊥) for an
// unmatched node. A complete solution must be symmetric (y_i = id(j) iff
// y_j = id(i), {i,j} an edge) and maximal (a ⊥ node has no ⊥ neighbor).
// A partial solution is extendable (Section 8.1) iff matched outputs are
// symmetric and every ⊥-output node's neighbors are all matched.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace dgap {

std::string check_matching(const Graph& g, const std::vector<Value>& outputs);

bool is_valid_maximal_matching(const Graph& g,
                               const std::vector<Value>& outputs);

bool is_extendable_partial_matching(const Graph& g,
                                    const std::vector<Value>& outputs);

}  // namespace dgap
