// Linial's deterministic color reduction, via polynomial set systems, and a
// locally-iterative stage down to Δ+1 colors.
//
// This is part 1 of Corollary 12's reference algorithm: an O(Δ + log* d)
// (Δ+1)-coloring, the bound of the Barenboim–Elkin coloring the corollary
// cites. Starting from the identifiers as an initial d-coloring, each
// Linial iteration maps an m-coloring to a q²-coloring in one round, where
// q is the smallest prime with q > kΔ and q^{k+1} >= m: a color c is read
// as the base-q digit vector of a degree-k polynomial p_c over GF(q); two
// distinct polynomials agree on at most k points, so among the q > kΔ
// evaluation points some x has p_v(x) != p_u(x) for every neighbor u, and
// (x, p_v(x)) is the new color. After O(log* d) iterations the palette
// stabilizes at O(Δ²) colors.
//
// The locally-iterative stage (Barenboim, Elkin and Goldenberg, PODC 2018)
// follows. With q the smallest prime >= 2Δ+1, a color c < q² is the pair
// (a, b) = (c / q, c mod q). Each round, a node with a != 0 becomes (0, b)
// if no live neighbor's color has second coordinate b, and moves to
// (a, b + a mod q) otherwise. The coloring stays proper every round, and a
// neighbor blocks a node in at most two rounds, so every node reaches
// a = 0 within 2Δ+1 rounds. A class step then recolors one color class per
// round into {0..Δ}. The stage is left out where the class steps alone are
// shorter, which happens at small d.
//
// The whole schedule is a pure function of (d, Δ), so every node computes
// the same round budget — exactly what the Consecutive and Parallel
// templates need. The algorithm is fault-tolerant in the sense of
// Section 7.4: every step only compares against *live* neighbors, so if
// nodes vanish mid-run the surviving partial coloring stays proper.
//
// LinialColoringPhase does not write node outputs: the final color is held
// in local state (own_color / neighbor color accessors), because in the
// Parallel template part 1 must stash results locally. The two references
// built on it, for MIS and for (Δ+1)-coloring, are defined here once each,
// as TwoPartFactory values.
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

/// One round of the locally-iterative stage for the color (a, b) = (c / q,
/// c mod q): it settles on (0, b) unless `blocked` (a live neighbor's
/// color has second coordinate b), and otherwise moves to (a, b + a mod q).
/// A settled color (a = 0) maps to itself either way.
inline Value linial_stage_color(Value color, std::int64_t q, bool blocked) {
  const Value a = color / q, b = color % q;
  return blocked ? a * q + (b + a) % q : b;
}

/// The rounds of the phase, in order: the Linial steps, then
/// `stage_rounds` of the locally-iterative stage over Z_q² (q = stage_q),
/// then the class tail — classes tail_first, tail_first − 1, … — then one
/// announce round.
struct LinialSchedule {
  std::vector<LinialStep> steps;   // one round each
  std::int64_t final_colors = 0;   // palette size after the steps
  std::int64_t stage_q = 0;        // 0 when the schedule has no stage
  int stage_rounds = 0;            // 2Δ+1 with the stage, else 0
  Value tail_first = 0;
  int tail_count = 0;
  int total_rounds = 0;            // steps + stage + tail + 1
};

/// Deterministic schedule for identifiers in {1..d} and max degree Δ. The
/// class tail stops at Δ+1 (classes 0..Δ already fit the palette); with
/// `all_classes` it re-examines EVERY class, as the line-graph phase needs
/// to avoid colors already output on adjacent edges. The stage is included
/// exactly when 2Δ+1 stage rounds plus the tail from q colors are fewer
/// than the tail from the post-Linial palette.
LinialSchedule linial_schedule(std::int64_t d, int delta,
                               bool all_classes = false);

/// Round bound of the full (Δ+1)-coloring part (for template schedules).
int linial_total_rounds(std::int64_t d, int delta);

/// The coloring phase. Final colors are internal values 0..Δ;
/// palette_color() = final color + 1 ∈ {1..Δ+1}.
class LinialColoringPhase final : public PhaseProgram {
 public:
  void on_send(NodeContext& ctx, Channel& ch) override;
  Status on_receive(NodeContext& ctx, Channel& ch) override;

  bool done() const { return done_; }
  /// Current color + 1: the final color in {1..Δ+1} once done().
  Value palette_color() const { return color_ + 1; }
  /// Last color heard from neighbor u (+1), or kUndefined if never heard.
  Value neighbor_palette_color(NodeId u) const;

 private:
  void ensure_schedule(const NodeContext& ctx);

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

/// Corollary 12's reference for MIS: Linial part 1 feeding the augmented
/// coloring→MIS part 2 (ColorToMisPhase). The Parallel template takes it
/// as is; whole_reference() runs it as one phase.
TwoPartFactory linial_mis_reference();

/// The (Δ+1)-coloring reference: Linial part 1 holds colors locally, and
/// the class-by-class emit (ColorClassEmitPhase) outputs them while
/// repairing clashes with colors that terminated neighbors output while
/// part 1 ran — the repair is what makes it composable with a
/// concurrently running uniform algorithm.
TwoPartFactory linial_coloring_reference();

/// Round bound of the full Linial-MIS reference (part 1 + part 2).
int linial_mis_total_rounds(std::int64_t d, int delta);

}  // namespace dgap
