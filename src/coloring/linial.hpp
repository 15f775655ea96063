// Linial's deterministic color reduction, via polynomial set systems.
//
// This is part 1 of Corollary 12's reference algorithm (substituted for the
// Barenboim–Elkin O(Δ + log* d) coloring — see DESIGN.md §2). Starting from
// the identifiers as an initial d-coloring, each Linial iteration maps an
// m-coloring to a q²-coloring in one round, where q is the smallest prime
// with q > kΔ and q^{k+1} >= m: a color c is read as the base-q digit
// vector of a degree-k polynomial p_c over GF(q); two distinct polynomials
// agree on at most k points, so among the q > kΔ evaluation points some x
// has p_v(x) != p_u(x) for every neighbor u, and (x, p_v(x)) is the new
// color. After O(log* d) iterations the palette stabilizes at
// q₁² ∈ O(Δ²) colors with q₁ the smallest prime > Δ; a final stage then
// recolors one color class per round down to Δ+1 colors.
//
// The whole schedule is a pure function of (d, Δ), so every node computes
// the same round budget — exactly what the Consecutive and Parallel
// templates need. The algorithm is fault-tolerant in the sense of
// Section 7.4: every step only compares against *live* neighbors, so if
// nodes vanish mid-run the surviving partial coloring stays proper.
//
// LinialColoringPhase does not write node outputs: the final color is held
// in local state (own_color / neighbor color accessors), because in the
// Parallel template part 1 must stash results locally.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "sim/phase.hpp"

namespace dgap {

struct LinialStep {
  std::int64_t k;  // polynomial degree
  std::int64_t q;  // field size (prime, q > kΔ)
};

/// Writes the k+1 = digits.size() base-q digits of `color`, lowest first:
/// the coefficients of the degree-k polynomial over GF(q) the color
/// encodes. A Linial step splits each color once, then evaluates the
/// digits at every point it tries.
inline void linial_digits(Value color, std::int64_t q,
                          std::span<Value> digits) {
  for (Value& digit : digits) {
    digit = color % q;
    color /= q;
  }
}

/// The polynomial with coefficients `digits` evaluated at x over GF(q), by
/// Horner from the top coefficient.
inline Value linial_eval(std::span<const Value> digits, std::int64_t q,
                         std::int64_t x) {
  Value acc = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    acc = (acc * x + *it) % q;
  }
  return acc;
}

/// One round of the color-reduction stage.
///
/// Kuhn–Wattenhofer step (block > 0): colors are partitioned into blocks
/// of `block` = 2(Δ+1) consecutive values; every node whose color offset
/// within its block equals `target_or_offset` recolors into the lower
/// Δ+1 slots of its block, avoiding same-block neighbors (neighbors in
/// other blocks cannot collide). All blocks work in parallel, which is
/// what turns the O(Δ²) one-class-per-round reduction into O(Δ log Δ).
/// When `relabel` is set, every node afterwards compacts its color with
/// c → (c / block)·(Δ+1) + (c mod block) — a pure local map.
///
/// Class step (block == 0): the single class `target_or_offset` recolors
/// into {0..Δ} avoiding all neighbors (the Linial classic).
struct LinialReductionStep {
  Value block = 0;
  Value target_or_offset = 0;
  bool relabel = false;
};

/// The reduction stage runs one operation per round: the Kuhn–Wattenhofer
/// block steps (O(Δ log Δ), stored explicitly), then the class-by-class
/// tail, stored as a range — classes tail_first, tail_first − 1, … — since
/// it can span O(Δ²) classes.
struct LinialSchedule {
  std::vector<LinialStep> steps;            // one round each
  std::int64_t final_colors = 0;            // palette size after the steps
  std::vector<LinialReductionStep> block_steps;
  Value tail_first = 0;
  int tail_count = 0;
  int reduction_rounds = 0;                 // block_steps + tail_count
  int total_rounds = 0;                     // steps + reduction + 1

  /// Operation of reduction round i, 0 <= i < reduction_rounds.
  LinialReductionStep reduction_step(int i) const {
    const int blocks = static_cast<int>(block_steps.size());
    if (i < blocks) return block_steps[static_cast<std::size_t>(i)];
    return {0, tail_first - (i - blocks), false};
  }
};

/// Deterministic schedule for identifiers in {1..d} and max degree Δ.
/// With `reduce_all_classes`, the final stage re-examines EVERY color
/// class (reduction_rounds = final_colors): needed when the phase must
/// also avoid colors already output by terminated neighbors — a class
/// that happens to land inside the palette may still clash with them.
/// With `kw_reduction`, Kuhn–Wattenhofer parallel block reduction brings
/// the palette from O(Δ²) to 2(Δ+1) in O(Δ log Δ) rounds before the
/// class-by-class tail — asymptotically closer to the Barenboim–Elkin
/// O(Δ + log* d) bound the paper's Corollary 12 cites. Mutually
/// exclusive with reduce_all_classes.
LinialSchedule linial_schedule(std::int64_t d, int delta,
                               bool reduce_all_classes = false,
                               bool kw_reduction = false);

/// Round bound of the full (Δ+1)-coloring part (for template schedules).
int linial_total_rounds(std::int64_t d, int delta);

/// Round bound of the output-respecting variant (reduce_all_classes).
int linial_total_rounds_respecting(std::int64_t d, int delta);

/// Round bound of the Kuhn–Wattenhofer variant (O(Δ log Δ + log* d)).
int linial_total_rounds_kw(std::int64_t d, int delta);

struct LinialOptions {
  /// When true, the final color additionally avoids every color already
  /// output by a terminated neighbor, so the phase extends a proper
  /// partial coloring (what the Consecutive template for (Δ+1)-Vertex
  /// Coloring needs). Implies reduce_all_classes scheduling.
  bool respect_terminated_outputs = false;
  /// Use the Kuhn–Wattenhofer parallel block reduction (see
  /// linial_schedule). Incompatible with respect_terminated_outputs.
  bool kw_reduction = false;
};

/// The coloring phase. Colors are internal values 0..Δ during/after the
/// run; palette_color() = final color + 1 ∈ {1..Δ+1}.
class LinialColoringPhase final : public PhaseProgram {
 public:
  LinialColoringPhase() = default;
  explicit LinialColoringPhase(LinialOptions options) : options_(options) {}

  void on_send(NodeContext& ctx, Channel& ch) override;
  Status on_receive(NodeContext& ctx, Channel& ch) override;

  bool done() const { return done_; }
  /// Final color in {1..Δ+1}; only meaningful once done().
  Value palette_color() const { return color_ + 1; }
  /// Last color heard from neighbor u (+1), or kUndefined if never heard.
  Value neighbor_palette_color(NodeId u) const;

 private:
  void ensure_schedule(const NodeContext& ctx);

  LinialOptions options_;
  bool scheduled_ = false;
  LinialSchedule schedule_;
  int step_ = 0;
  bool done_ = false;
  Value color_ = 0;
  std::unordered_map<NodeId, Value> neighbor_color_;
};

/// Complete (Δ+1)-coloring algorithm: run the phase, then every node
/// outputs its palette color and terminates (one extra round).
ProgramFactory linial_coloring_algorithm();

/// Corollary 12's full reference for MIS: Linial part 1 feeding the
/// augmented coloring→MIS part 2. Usable standalone (Simple/Consecutive
/// templates) — the Parallel template wires the two parts itself.
PhaseFactory make_linial_mis_reference();

/// Round bound of the full Linial-MIS reference (part 1 + part 2).
int linial_mis_total_rounds(std::int64_t d, int delta);

}  // namespace dgap
