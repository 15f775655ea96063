// Linial color reduction on the LINE GRAPH: a reference algorithm for
// (2Δ−1)-Edge Coloring.
//
// Section 8.3 observes that coloring the edges of G is exactly coloring
// the vertices of its line graph L(G). L(G) has maximum degree
// Δ_L = 2Δ − 2 and a natural identifier per edge (derived from the two
// endpoint identifiers, bounded by (d+1)²), so Linial's reduction and the
// locally-iterative stage of coloring/linial.hpp yield a
// (Δ_L + 1) = (2Δ−1)-edge-coloring in O(Δ + log* d) rounds — independent
// of n. (d+1)² must fit in 64 bits, so the phase and its round bound
// reject d > 3,037,000,498 with std::invalid_argument.
//
// The line graph is simulated without materializing it: BOTH endpoints of
// an edge run the edge's state machine on identical information (each
// round every active node broadcasts the (co-endpoint id, current color)
// list of its live incident edges), so the two copies stay in lockstep by
// determinism. A node keeps its live, uncolored edges in one flat list
// sorted by neighbor index and reads its neighbors' lists in place from
// the inbox, only in rounds that need them. A node that terminates
// removes its edges from the remaining problem — the phase is
// fault-tolerant in the Parallel-template sense: a node drops edges to
// terminated neighbors before it broadcasts, so both endpoints decide from
// the same constraints.
//
// Each edge runs the stage over its adjacent edges: the node's other live
// edges and the co-endpoint's broadcast list. The class tail then
// re-examines every class and avoids colors already OUTPUT on adjacent
// edges (the palette bookkeeping of Section 8.3), so the phase correctly
// extends a partial edge coloring left by the base algorithm.
//
// The two edge-coloring references built on the phase, with the one-round
// emit and with the clash-repairing class emit, are defined here once
// each, as TwoPartFactory values.
#pragma once

#include <vector>

#include "coloring/linial.hpp"
#include "sim/phase.hpp"

namespace dgap {

/// Round bound of the line-graph Linial phase for identifiers ≤ d and max
/// degree Δ (pure function — usable as a template schedule).
int line_graph_linial_total_rounds(std::int64_t d, int delta);

class LineGraphLinialPhase final : public PhaseProgram {
 public:
  LineGraphLinialPhase() = default;

  void on_send(NodeContext& ctx, Channel& ch) override;
  Status on_receive(NodeContext& ctx, Channel& ch) override;

  bool done() const { return done_; }
  /// Final color of the edge to live neighbor u, in {1..2Δ−1}; only
  /// meaningful once done(). kUndefined if the edge was already colored
  /// before the phase began (the base algorithm handled it).
  Value edge_palette_color(NodeId u) const;

 private:
  /// One live, uncolored incident edge.
  struct Edge {
    NodeId to;    // neighbor index
    Value to_id;  // the co-endpoint's identifier
    Value color;  // current internal color
  };

  void ensure_schedule(NodeContext& ctx);
  void prune(const NodeContext& ctx);
  /// Calls fn(c) for the color c of every edge adjacent to edges_[i]: this
  /// node's other live edges, then the co-endpoint's other live edges as
  /// it broadcast them this round. The Linial step reads the same colors
  /// itself, to split each of this node's colors once per step rather than
  /// once per edge.
  template <class Fn>
  void for_each_adjacent_color(const NodeContext& ctx, Channel& ch,
                               std::size_t i, Fn fn) const;
  void linial_step(const NodeContext& ctx, Channel& ch, LinialStep step);
  void stage_step(const NodeContext& ctx, Channel& ch);
  void reduce_class(const NodeContext& ctx, Channel& ch, Value target);

  bool scheduled_ = false;
  LinialSchedule schedule_;
  Value delta_l_ = 0;  // Δ_L = max(2Δ−2, 0)
  int step_ = 0;
  bool done_ = false;
  // The live, uncolored incident edges, by ascending neighbor index.
  std::vector<Edge> edges_;
  // Scratch reused from round to round.
  std::vector<Value> words_;   // the send buffer
  std::vector<Value> next_;    // a Linial or stage step's new colors
  std::vector<Value> digits_;  // split colors of one edge's constraints
  std::vector<char> used_;     // a reduction's palette bitmap
};

/// Part 2 for edge coloring: output the stored colors (one round).
/// Correct when no other algorithm colored edges while part 1 ran
/// (Consecutive composition).
class EdgeColorEmitPhase final : public PhaseProgram {
 public:
  using EdgeColorFn = std::function<Value(NodeId)>;
  explicit EdgeColorEmitPhase(EdgeColorFn color) : color_(std::move(color)) {}

  void on_send(NodeContext&, Channel&) override {}
  Status on_receive(NodeContext& ctx, Channel&) override;

 private:
  EdgeColorFn color_;
};

/// Clash-repairing part 2 for edge coloring, one color class per round:
/// in round j, the edge {u, v} whose stored color is j outputs the
/// smallest palette color not already output on any adjacent edge. Both
/// endpoints compute the same choice because every active node broadcasts
/// its used-color set each round. Needed when a concurrently running
/// uniform algorithm output edge colors during part 1 (Parallel
/// composition); also safe to cut at any round (every prefix is a proper
/// partial edge coloring), so it composes with persistent interleaving.
/// 2Δ−1 rounds + 1 drain.
class EdgeColorClassEmitPhase final : public PhaseProgram {
 public:
  using EdgeColorFn = std::function<Value(NodeId)>;
  explicit EdgeColorClassEmitPhase(EdgeColorFn color)
      : color_(std::move(color)) {}

  void on_send(NodeContext& ctx, Channel& ch) override;
  Status on_receive(NodeContext& ctx, Channel& ch) override;

 private:
  EdgeColorFn color_;
  int step_ = 0;
};

/// The reference algorithm for (2Δ−1)-Edge Coloring: line-graph Linial
/// (part 1) followed by the emit round (EdgeColorEmitPhase).
TwoPartFactory line_graph_edge_coloring_reference();

/// Its clash-repairing twin: line-graph Linial followed by the
/// class-by-class emit (EdgeColorClassEmitPhase), for compositions in
/// which a uniform algorithm colors edges while part 1 runs.
TwoPartFactory line_graph_edge_coloring_repair_reference();

ProgramFactory line_graph_edge_coloring_algorithm();

}  // namespace dgap
