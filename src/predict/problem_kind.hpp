// The four prediction-augmented problems, as a first-class enum.
//
// Prediction sources (predict/provider.hpp) are problem-directed: the
// same provider object serves MIS bits, matching partner identifiers, or
// palette colors depending on the kind it is asked for.
#pragma once

#include "common/types.hpp"

namespace dgap {

enum class ProblemKind {
  kMis = 0,          // per-node bit: 1 = in the independent set
  kMatching = 1,     // per-node partner identifier or kNoNode (⊥)
  kColoring = 2,     // per-node color 1..Δ+1; 0 = no color (active)
  kEdgeColoring = 3  // per-edge color 1..2Δ−1; 0 = no color
};

inline constexpr int kNumProblemKinds = 4;

/// Stable lowercase name ("mis", "matching", ...), used in provider names
/// and digests — never reorder or rename.
const char* problem_kind_name(ProblemKind kind);

/// The kind's neutral prediction value — what "no useful advice" means:
/// MIS 0 (nobody claims membership), matching ⊥, colorings 0 (outside
/// every palette, so every node starts active).
Value neutral_value(ProblemKind kind);

}  // namespace dgap
