// Per-node feature extraction for the learned prediction backend.
//
// Everything a learned provider may look at is computed here, once, in
// fixed-point (Q16.16) so that inference is bit-deterministic on every
// platform. The features are deliberately LOCAL — degree, a triangle
// (clustering) estimate, identifier parity, a 1-hop neighborhood
// aggregate, and the node's prior output plus its 1-hop agreement with
// the neighbors' priors — i.e. everything a node could compute in O(1)
// communication rounds, which is what makes a learned provider honest
// about the distributed setting. The prior output is the previous
// epoch's solution decoded from a `.dgaptr` transcript by the caller
// (tools/dgap_fit, bench_learned); predict/ itself never reads
// transcripts, keeping the predict -> sim layering acyclic.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "predict/problem_kind.hpp"

namespace dgap {

inline constexpr int kNumFeatures = 8;

/// One node's features, Q16.16 fixed point (65536 == 1.0), in index
/// order: bias, degree, clustering, id parity, neighbor degree, prior
/// present, prior invalid, prior neighbor fraction.
using FeatureRow = std::array<std::int32_t, kNumFeatures>;

inline constexpr std::int32_t kFeatureOne = 1 << 16;

/// Extract features for every node. `prior` is the previous solution in
/// the kind's output encoding, aligned with g's nodes (one Value per
/// node), or nullptr when no prior run exists — the three prior-derived
/// features are then zero. Node-valued kinds only.
std::vector<FeatureRow> node_features(const Graph& g, ProblemKind kind,
                                      const std::vector<Value>* prior);

}  // namespace dgap
