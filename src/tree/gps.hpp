// Goldberg–Plotkin–Shannon 3-coloring of rooted trees, O(log* d) rounds.
//
// Part 1 of Corollary 15's reference algorithm. Colors start as
// identifier − 1; each iteration rewrites a color to 2i + bit_i(color),
// where i is the lowest bit position where the node's color differs from
// its parent's (the root — or a node whose parent terminated — uses its own
// color with bit 0 flipped as a stand-in parent color, which preserves the
// proof that adjacent colors stay distinct). Once the palette is down to
// {0..5}, three shift-down/recolor pairs eliminate colors 5, 4 and 3.
//
// The round schedule is a pure function of d, so all nodes agree on it, and
// the algorithm is fault-tolerant: every rule refers only to live
// neighbors. Like Linial part 1, the phase writes no outputs — the final
// color is held locally for part 2, and the reference that joins the two
// parts is defined here once, as a TwoPartFactory.
#pragma once

#include <unordered_map>

#include "graph/generators.hpp"
#include "sim/phase.hpp"

namespace dgap {

/// Number of color-compression iterations until identifiers in {1..d}
/// shrink to the 6-color fixed point.
int gps_iterations(std::int64_t d);

/// Total rounds of the GPS phase: iterations + 6 shift/recolor rounds.
int gps_total_rounds(std::int64_t d);

/// Rounds of the full rooted-tree MIS reference (GPS + 2-round part 2).
int gps_tree_mis_total_rounds(std::int64_t d);

class GpsColoringPhase final : public PhaseProgram {
 public:
  explicit GpsColoringPhase(NodeId parent) : parent_(parent) {}

  void on_send(NodeContext& ctx, Channel& ch) override;
  Status on_receive(NodeContext& ctx, Channel& ch) override;

  bool done() const { return done_; }
  /// Final color in {0, 1, 2}; only meaningful once done().
  Value color() const { return color_; }

 private:
  void ensure_schedule(const NodeContext& ctx);

  NodeId parent_;
  bool scheduled_ = false;
  int iterations_ = 0;
  int step_ = 0;
  bool done_ = false;
  Value color_ = 0;
};

/// Part 2 of Corollary 15: two rounds from a proper 3-coloring (colors
/// {0,1,2} read through the accessor) to a maximal independent set.
class TreeColorToMisPhase final : public PhaseProgram {
 public:
  using ColorFn = std::function<Value()>;
  explicit TreeColorToMisPhase(ColorFn color) : color_(std::move(color)) {}

  void on_send(NodeContext& ctx, Channel& ch) override;
  Status on_receive(NodeContext& ctx, Channel& ch) override;

 private:
  ColorFn color_;
  int step_ = 0;
};

/// Corollary 15's reference: GPS part 1 feeding the two-round part 2
/// (TreeColorToMisPhase). The Parallel template takes it as is;
/// whole_reference() runs it as one phase.
TwoPartFactory gps_tree_mis_reference(const RootedTree& tree);

/// GPS 3-coloring as a standalone algorithm (outputs color + 1 ∈ {1,2,3}).
ProgramFactory gps_coloring_algorithm(const RootedTree& tree);

}  // namespace dgap
