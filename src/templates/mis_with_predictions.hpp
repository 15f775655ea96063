// Ready-made MIS algorithms with predictions — the paper's worked examples.
//
//   mis_simple_greedy()      Observation 7's example: MIS Initialization
//                            Algorithm + Greedy MIS. Consistency 3; round
//                            complexity ≤ η1 + 3 and ≤ η2 + 4.
//   mis_simple_linial()      The second Simple-template example: the
//                            Linial-based reference as R (consistent, but
//                            O(Δ' + log* d), not O(η)-degrading).
//   mis_consecutive_gather() Lemma 8's shape with the gather reference
//                            (r(n) ∈ O(n)): consistent, 2η-degrading,
//                            robust w.r.t. the gather reference.
//   mis_consecutive_linial() Same template, Linial reference
//                            (r ∈ O(Δ + log* d)).
//   mis_interleaved_gather() Corollary 10's shape: U and the phase-
//                            decomposed gather reference interleaved.
//   mis_parallel_linial()    Corollary 12: consistency 3, round complexity
//                            min{η2 + 4, O(Δ + log* d)}, η2-degrading.
//   mis_simple_bw()          Section 9.1: the black/white alternating
//                            measure-uniform algorithm U_bw after the
//                            initialization algorithm (η_bw-degrading).
//   tree_mis_simple(tree)    Section 9.2: Tree Initialization + Algorithm 6
//                            (round complexity ≤ ⌈ηt/2⌉ + 5).
//   tree_mis_parallel(tree)  Corollary 15: consistency 3, round complexity
//                            min{⌈ηt/2⌉ + 5, O(log* d)}.
#pragma once

#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "templates/templates.hpp"

namespace dgap {

ProgramFactory mis_simple_greedy();
/// Section 10's discussion: the Simple Template with Luby's randomized
/// MIS as the reference. Consistent; its EXPECTED rounds are governed by
/// the whole collection of error components (their number matters), not
/// by the max-based η1 — dgap_claims' E15c measures the gap.
ProgramFactory mis_simple_luby(std::uint64_t seed);
ProgramFactory mis_simple_linial();
ProgramFactory mis_consecutive_gather();
/// Consecutive with the CONGEST universal reference (2-word messages,
/// O(n^2) bound) — the CONGEST counterpart of mis_consecutive_gather.
ProgramFactory mis_consecutive_congest();
ProgramFactory mis_consecutive_linial();
ProgramFactory mis_interleaved_gather();
ProgramFactory mis_parallel_linial();
ProgramFactory mis_simple_bw();
/// Section 9.1's closing remark: U_bw "could be combined with a reference
/// algorithm, using whichever template is appropriate" — here the Parallel
/// template with the Linial reference: min{O(η_bw), O(Δ + log* d)}.
ProgramFactory mis_parallel_bw();
ProgramFactory tree_mis_simple(const RootedTree& tree);
ProgramFactory tree_mis_parallel(const RootedTree& tree);

/// Section 9.1's U_bw: Greedy MIS alternating between black-node and
/// white-node sub-phases (one extra setup round to exchange predictions).
class BwGreedyMisPhase final : public PhaseProgram {
 public:
  void on_send(NodeContext& ctx, Channel& ch) override;
  Status on_receive(NodeContext& ctx, Channel& ch) override;

 private:
  bool my_turn(const NodeContext& ctx) const;

  int step_ = 0;  // 0 = setup; then blocks of two rounds
  std::vector<std::pair<NodeId, Value>> neighbor_predictions_;
};

PhaseFactory make_bw_greedy_mis();

/// The Consecutive template's U-budget knob (experiment E14): run the
/// measure-uniform algorithm for lambda_num/lambda_den times the reference
/// bound before switching to the Linial reference. lambda = 1 reproduces
/// Lemma 8 (mis_consecutive_linial); smaller lambda trades degradation for
/// earlier robustness. The Linial reference is used because its bound
/// O(Δ + log* d) is typically far below the measure-uniform worst case, so
/// the robustness clause is actually exercised.
ProgramFactory mis_consecutive_linial_lambda(int lambda_num, int lambda_den);

}  // namespace dgap
