// Ready-made algorithms with predictions for the Section 8 problems.
//
// The paper defines the ingredients per problem (base/initialization,
// clean-up, error components, measure-uniform algorithm) and notes that
// "one can then choose one's favorite algorithm for the problem and use
// that as the reference algorithm". These assemblies do exactly that:
//
// Maximal Matching (Section 8.1)
//   matching_simple_greedy()       Init + 3-round-group measure-uniform.
//   matching_consecutive_linegraph()
//                                  Lemma 8 with R = line-graph Linial
//                                  (2Δ−1)-edge coloring + one-class-per-
//                                  round matching extraction: robust cap
//                                  O(Δ + log* d).
//   matching_parallel_linegraph()  Lemma 11: the uniform matcher runs in
//                                  parallel with the (fault-tolerant)
//                                  line-graph coloring; budget granularity
//                                  3 (the matcher's groups).
//
// (Δ+1)-Vertex Coloring (Section 8.2) — no clean-up algorithm needed:
//   coloring_simple_greedy()       Init + local-max measure-uniform.
//   coloring_consecutive_linial()  R = Linial + the clash-repairing
//                                  class-by-class emit.
//   coloring_parallel_linial()     Parallel, budget granularity 1 (every
//                                  proper partial coloring is extendable).
//
// (2Δ−1)-Edge Coloring (Section 8.3)
//   edge_coloring_simple_greedy()  Base + 2-hop-max measure-uniform.
//   edge_coloring_consecutive_linegraph()
//                                  R = line-graph Linial + emit.
#pragma once

#include "sim/engine.hpp"
#include "templates/templates.hpp"

namespace dgap {

ProgramFactory matching_simple_greedy();
ProgramFactory matching_consecutive_linegraph();
ProgramFactory matching_parallel_linegraph();
/// Interleaved (Lemma 9) with a PERSISTENT reference: the line-graph
/// coloring + extraction resumes across segments, sound because the
/// extraction's outputs form an extendable partial matching at every
/// round boundary.
ProgramFactory matching_interleaved_linegraph();

ProgramFactory coloring_simple_greedy();
ProgramFactory coloring_consecutive_linial();
ProgramFactory coloring_parallel_linial();
/// Interleaved with a persistent Linial+class-emit reference (every
/// proper partial coloring is extendable, so any cut is safe).
ProgramFactory coloring_interleaved_linial();

ProgramFactory edge_coloring_simple_greedy();
ProgramFactory edge_coloring_consecutive_linegraph();
/// Parallel (Lemma 11): greedy edge coloring runs alongside the line-graph
/// Linial; part 2 is the clash-repairing class-by-class emit.
ProgramFactory edge_coloring_parallel_linegraph();
/// Interleaved (Lemma 9) with a persistent line-graph reference (any cut
/// of a proper partial edge coloring is extendable).
ProgramFactory edge_coloring_interleaved_linegraph();

/// Round bound of the line-graph reference for matching (part 1 + 2Δ).
int matching_reference_total_rounds(std::int64_t d, int delta);

}  // namespace dgap
