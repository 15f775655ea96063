// Prediction generators.
//
// The interesting regimes in the paper are (a) correct predictions
// (consistency), (b) predictions with a controlled amount of error
// (degradation/smoothness), and (c) adversarially bad predictions
// (robustness). Plus the two concrete instances the paper draws:
// the 4-striped grid of Figure 2 and the "related network" scenario of
// Section 1.1 where a solution computed on an old graph is replayed as a
// prediction after the edge set has changed.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "predict/predictions.hpp"

namespace dgap {

// ---- MIS --------------------------------------------------------------------

/// A correct prediction: a maximal independent set computed greedily in a
/// random node order.
Predictions mis_correct_prediction(const Graph& g, Rng& rng);

/// Flip `flips` predictions chosen uniformly at random (without repetition).
/// The graph pins the expected prediction size (one bit per node), matching
/// every sibling corruptor's signature.
Predictions flip_bits(const Graph& g, const Predictions& base, int flips,
                      Rng& rng);

/// Every node predicts `value` (the paper's all-1 / all-0 worst cases).
Predictions all_same(const Graph& g, Value value);

/// Figure 2's pattern on a w×h grid: black (prediction 1) where
/// (x mod 4, y mod 4) are both in {0,1} or both in {2,3}; white elsewhere.
Predictions grid_stripe_prediction(NodeId w, NodeId h);

/// The Section 1.1 scenario: a maximal independent set of `old_graph`
/// replayed as the prediction on `new_graph` (graphs share node indices).
Predictions stale_mis_prediction(const Graph& old_graph,
                                 const Graph& new_graph, Rng& rng);

/// Perturb a graph: remove `remove_edges` random edges and add `add_edges`
/// random non-edges (keeps the node set).
Graph perturb_edges(const Graph& g, int remove_edges, int add_edges, Rng& rng);

// ---- Maximal Matching -------------------------------------------------------

/// Correct prediction: partner identifiers of a greedy maximal matching
/// built in a random edge order (kNoNode for unmatched nodes).
Predictions matching_correct_prediction(const Graph& g, Rng& rng);

/// Corrupt `breaks` random matched pairs: both endpoints revert to ⊥.
Predictions break_matches(const Graph& g, const Predictions& base, int breaks,
                          Rng& rng);

// ---- (Δ+1)-Vertex Coloring --------------------------------------------------

/// Correct prediction: greedy (Δ+1)-coloring in a random node order.
Predictions coloring_correct_prediction(const Graph& g, Rng& rng);

/// Re-color `flips` random nodes with random palette colors (may collide).
Predictions scramble_colors(const Graph& g, const Predictions& base, int flips,
                            Rng& rng);

// ---- (2Δ−1)-Edge Coloring ---------------------------------------------------

/// Correct prediction: greedy (2Δ−1)-edge coloring in a random edge order.
Predictions edge_coloring_correct_prediction(const Graph& g, Rng& rng);

/// Re-color `flips` random edges with random palette colors (consistently
/// on both endpoints, but possibly clashing with adjacent edges).
Predictions scramble_edge_colors(const Graph& g, const Predictions& base,
                                 int flips, Rng& rng);

}  // namespace dgap
