// Luby's randomized MIS (Section 10's open-problem discussion).
//
// The classic permutation variant: every iteration, each active node draws
// a fresh random priority; a node whose priority beats all its active
// neighbors' joins the set (2 rounds per iteration, like Greedy MIS but
// with random instead of fixed priorities). Expected round complexity
// O(log n).
//
// Randomness is derived deterministically from (seed, node identifier,
// iteration), so runs are reproducible and all the randomness flows from
// the single seed — the simulated algorithm itself stays message-driven.
//
// The paper's point (Section 10): used as the reference in the Simple
// Template, the *maximum* completion time over many small error components
// is Θ(log log n) even though each component alone finishes in
// O(log(component size)) expected rounds — the error measure η1 (a max,
// not a sum) does not bound the expectation. dgap_claims' E11 reproduces this.
#pragma once

#include "sim/phase.hpp"

namespace dgap {

class LubyMisPhase final : public PhaseProgram {
 public:
  explicit LubyMisPhase(std::uint64_t seed) : seed_(seed) {}

  void on_send(NodeContext& ctx, Channel& ch) override;
  Status on_receive(NodeContext& ctx, Channel& ch) override;

 private:
  std::uint64_t priority(const NodeContext& ctx) const;

  std::uint64_t seed_;
  int step_ = 0;
};

PhaseFactory make_luby_mis(std::uint64_t seed);

ProgramFactory luby_mis_algorithm(std::uint64_t seed);

}  // namespace dgap
