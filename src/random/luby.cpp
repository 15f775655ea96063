#include "random/luby.hpp"

#include "common/rng.hpp"

namespace dgap {

namespace {
bool sees_mis_neighbor(const NodeContext& ctx) {
  for (const Value out : ctx.neighbor_outputs()) {
    if (out == 1) return true;
  }
  return false;
}
}  // namespace

std::uint64_t LubyMisPhase::priority(const NodeContext& ctx) const {
  // One deterministic draw per (seed, node, iteration).
  const auto iteration = static_cast<std::uint64_t>(step_ / 2);
  Rng rng(seed_ ^ (static_cast<std::uint64_t>(ctx.id()) * 0x9e3779b97f4a7c15ULL) ^
          (iteration * 0xbf58476d1ce4e5b9ULL));
  return rng.next();
}

void LubyMisPhase::on_send(NodeContext& ctx, Channel& ch) {
  if (step_ % 2 == 0) ch.broadcast({static_cast<Value>(priority(ctx) >> 1)});
}

PhaseProgram::Status LubyMisPhase::on_receive(NodeContext& ctx, Channel& ch) {
  if (step_ % 2 == 0) {  // select round: only it reads the priority
    const Value mine = static_cast<Value>(priority(ctx) >> 1);
    bool wins = true;
    for (const Message* m : ch.inbox()) {
      const Value theirs = m->words.at(0);
      // Ties broken by identifier; with 63-bit draws they are vanishingly
      // rare but must not produce two adjacent winners.
      if (theirs > mine ||
          (theirs == mine && ctx.neighbor_id(m->from) > ctx.id())) {
        wins = false;
        break;
      }
    }
    if (wins) {
      ctx.set_output(1);
      ctx.terminate();
    }
  } else if (sees_mis_neighbor(ctx)) {
    ctx.set_output(0);
    ctx.terminate();
  }
  ++step_;
  return Status::kRunning;
}

PhaseFactory make_luby_mis(std::uint64_t seed) {
  return [seed](NodeId) { return std::make_unique<LubyMisPhase>(seed); };
}

ProgramFactory luby_mis_algorithm(std::uint64_t seed) {
  return phase_as_algorithm(make_luby_mis(seed));
}

}  // namespace dgap
