// The four templates of Section 7, as generic compositions of phase
// programs.
//
//   Simple      (Alg. 2): B ; R
//   Consecutive (Alg. 3): B ; U for r(n,Δ,d)+c'(n) rounds ; C ; R
//   Interleaved (Alg. 4): B ; for i = 1..m: U for r_i rounds ; R_i for r_i
//   Parallel    (Alg. 5): B ; (U ∥ R part 1) for r1 rounds ; C ; R part 2
//
// Schedules (round budgets) must be computable by every node from the
// globally known quantities n, Δ and d alone — they are passed as pure
// functions of those values, evaluated lazily once the node context is
// available, so all nodes compute identical budgets and switch blocks in
// lockstep.
//
// A reference split into parts (Corollaries 12 and 15) is written once, as
// a TwoPartFactory (sim/phase.hpp): the Parallel template takes it as is,
// and the others take whole_reference(...) of it. Each template builds
// its configuration once and every node's program points at that one
// copy, so a run's memory does not grow with what the factories capture.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "sim/phase.hpp"

namespace dgap {

/// A round budget computed from globally known parameters.
using ScheduleFn = std::function<int(NodeId n, int delta, std::int64_t d)>;

/// Per-phase budget for the Interleaved template (phase index is 1-based).
using PhaseScheduleFn =
    std::function<int(int phase, NodeId n, int delta, std::int64_t d)>;

/// Simple Template (Algorithm 2): initialization, then the reference.
ProgramFactory simple_template(PhaseFactory init, PhaseFactory reference);

/// Consecutive Template (Algorithm 3). `cleanup` may be null when the
/// problem needs none (e.g. vertex coloring). `uniform_budget` should be
/// r(n,Δ,d) + c'(n) per Lemma 8.
ProgramFactory consecutive_template(PhaseFactory init, PhaseFactory uniform,
                                    PhaseFactory cleanup,
                                    PhaseFactory reference,
                                    ScheduleFn uniform_budget);

struct InterleavedConfig {
  PhaseFactory init;
  /// The measure-uniform algorithm; ONE instance per node persists across
  /// segments (it resumes where it left off, as the paper requires).
  PhaseFactory uniform;
  /// Phase i of the reference algorithm (fresh instance per segment) —
  /// the Corollary 10 shape, where each phase is self-contained.
  /// Exactly one of reference_phase / reference_persistent must be set;
  /// interleaved_template checks it.
  std::function<std::unique_ptr<PhaseProgram>(int phase, NodeId node)>
      reference_phase;
  /// Alternative: a monolithic reference that RESUMES across segments
  /// (one instance per node, like the uniform algorithm). Sound whenever
  /// the reference's partial solution is extendable at every round — e.g.
  /// the matching extraction and the class-by-class color emit.
  PhaseFactory reference_persistent;
  /// Budget r_i for both the U and R segments of phase i. Must be even
  /// whenever the uniform algorithm's partials are only extendable on even
  /// boundaries (Greedy MIS).
  PhaseScheduleFn phase_budget;
  /// Number of phases m(n, Δ, d).
  ScheduleFn phase_count;
};

/// Interleaved Template (Algorithm 4). If the node is still active after
/// all m phases (which a complete reference algorithm never allows), the
/// uniform algorithm keeps running as a defensive fallback.
ProgramFactory interleaved_template(InterleavedConfig cfg);

struct ParallelConfig {
  PhaseFactory init;
  PhaseFactory uniform;
  TwoPartFactory reference;
  /// Upper bound r1(n,Δ,d) on part 1; rounded up to a multiple of
  /// `budget_granularity` so the uniform algorithm is cut only on an
  /// extendable boundary (2 for Greedy MIS's two-round phases, 3 for the
  /// matching algorithm's three-round groups, 1 when every prefix is
  /// extendable, as for proper colorings).
  ScheduleFn part1_budget;
  /// Optional clean-up between the parallel section and part 2.
  PhaseFactory cleanup;
  int budget_granularity = 2;
};

/// Parallel Template (Algorithm 5): U and R part 1 run simultaneously on
/// separate channels; a node terminated by U is treated as crashed by R.
ProgramFactory parallel_template(ParallelConfig cfg);

}  // namespace dgap
