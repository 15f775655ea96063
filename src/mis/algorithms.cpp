#include "mis/algorithms.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace dgap {

namespace {

/// True iff some (terminated) neighbor of this node has output 1.
bool sees_mis_neighbor(const NodeContext& ctx) {
  for (const Value out : ctx.neighbor_outputs()) {
    if (out == 1) return true;
  }
  return false;
}

/// True iff this node's identifier exceeds every active neighbor's.
bool is_local_max(const NodeContext& ctx) {
  for (NodeId u : ctx.active_neighbors()) {
    if (ctx.neighbor_id(u) > ctx.id()) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// MIS Base Algorithm (Section 4) — 3 rounds, pruning.
// ---------------------------------------------------------------------------

void MisBasePhase::on_send(NodeContext& ctx, Channel& ch) {
  if (step_ == 0) ch.broadcast({ctx.prediction()});
}

PhaseProgram::Status MisBasePhase::on_receive(NodeContext& ctx, Channel& ch) {
  ++step_;
  switch (step_) {
    case 1: {
      // I = nodes predicting 1 all of whose neighbors predict 0.
      bool all_zero = true;
      for (const Message* m : ch.inbox()) {
        if (m->words.at(0) != 0) all_zero = false;
      }
      in_set_ = (ctx.prediction() == 1) && all_zero;
      return Status::kRunning;
    }
    case 2:
      if (in_set_) {
        ctx.set_output(1);
        ctx.terminate();
      }
      return Status::kRunning;
    case 3:
      if (sees_mis_neighbor(ctx)) {
        ctx.set_output(0);
        ctx.terminate();
      }
      return Status::kFinished;
    default:
      DGAP_ASSERT(false, "base algorithm ran past its 3 rounds");
      return Status::kFinished;
  }
}

// ---------------------------------------------------------------------------
// MIS Initialization Algorithm (Section 4) — reasonable initialization.
// ---------------------------------------------------------------------------

void MisInitPhase::on_send(NodeContext& ctx, Channel& ch) {
  if (step_ == 0) ch.broadcast({ctx.prediction()});
}

PhaseProgram::Status MisInitPhase::on_receive(NodeContext& ctx, Channel& ch) {
  ++step_;
  switch (step_) {
    case 1: {
      // I = nodes predicting 1 whose prediction-1 neighbors all have
      // smaller identifiers.
      bool dominated = false;
      for (const Message* m : ch.inbox()) {
        if (m->words.at(0) == 1 && ctx.neighbor_id(m->from) > ctx.id()) {
          dominated = true;
        }
      }
      in_set_ = (ctx.prediction() == 1) && !dominated;
      return Status::kRunning;
    }
    case 2:
      if (in_set_) {
        ctx.set_output(1);
        ctx.terminate();
      }
      return Status::kRunning;
    case 3:
      if (sees_mis_neighbor(ctx)) {
        ctx.set_output(0);
        ctx.terminate();
      }
      return Status::kFinished;
    default:
      DGAP_ASSERT(false, "initialization ran past its 3 rounds");
      return Status::kFinished;
  }
}

// ---------------------------------------------------------------------------
// Greedy MIS (Algorithm 1) — measure-uniform w.r.t. μ1 and μ2.
// ---------------------------------------------------------------------------

void GreedyMisPhase::on_send(NodeContext&, Channel&) {
  // All signalling flows through the runtime's termination notices.
}

PhaseProgram::Status GreedyMisPhase::on_receive(NodeContext& ctx, Channel&) {
  if (first_round_ < 0) first_round_ = ctx.round();
  if ((ctx.round() - first_round_) % 2 == 0) {
    // Select round: local maxima join the independent set. The extendable-
    // partial invariant guarantees no active node has an output-1 neighbor
    // here; composition must preserve it (clean-up runs beforehand).
    DGAP_ASSERT(!sees_mis_neighbor(ctx),
                "greedy MIS invariant: covered nodes must be cleaned up "
                "before a select round");
    if (is_local_max(ctx)) {
      ctx.set_output(1);
      ctx.terminate();
      return Status::kRunning;
    }
  } else {
    // Remove round: neighbors of fresh winners leave with output 0.
    if (sees_mis_neighbor(ctx)) {
      ctx.set_output(0);
      ctx.terminate();
      return Status::kRunning;
    }
  }
  // No decision is possible until a neighbor terminates: a node joins when
  // its higher-identifier neighbors are gone and leaves when a neighbor
  // wins, and both are changes the engine wakes it for. Finishes only by
  // terminating the node.
  return Status::kIdle;
}

// ---------------------------------------------------------------------------
// Clean-up (Section 7.2) — one round.
// ---------------------------------------------------------------------------

void MisCleanupPhase::on_send(NodeContext&, Channel&) {}

PhaseProgram::Status MisCleanupPhase::on_receive(NodeContext& ctx, Channel&) {
  if (sees_mis_neighbor(ctx)) {
    ctx.set_output(0);
    ctx.terminate();
  }
  return Status::kFinished;
}

// ---------------------------------------------------------------------------
// Coloring → MIS (part 2 of Corollary 12's reference algorithm).
// ---------------------------------------------------------------------------

ColorToMisPhase::ColorToMisPhase(Value palette, OwnColorFn own_color,
                                 NeighborColorFn neighbor_color)
    : palette_(palette), own_color_(std::move(own_color)),
      neighbor_color_(std::move(neighbor_color)) {
  DGAP_REQUIRE(palette_ >= 1, "palette must be positive");
}

void ColorToMisPhase::on_send(NodeContext&, Channel&) {}

PhaseProgram::Status ColorToMisPhase::on_receive(NodeContext& ctx, Channel&) {
  ++step_;
  // Nodes adjacent to a fresh winner leave first.
  if (sees_mis_neighbor(ctx)) {
    ctx.set_output(0);
    ctx.terminate();
    return Status::kRunning;
  }
  const Value c = own_color_();
  DGAP_ASSERT(c >= 1 && c <= palette_, "part 2 needs a final palette color");
  if (c == step_) {
    ctx.set_output(1);
    ctx.terminate();
    return Status::kRunning;
  }
  // Greedy augmentation (Corollary 12): a local-max node with no active
  // neighbor of the current color joins early, so that the independent set
  // grows at least every other round (steady progress w.r.t. μ2).
  if (c > step_ && is_local_max(ctx)) {
    bool neighbor_has_current_color = false;
    for (NodeId u : ctx.active_neighbors()) {
      if (neighbor_color_(u) == step_) {
        neighbor_has_current_color = true;
        break;
      }
    }
    if (!neighbor_has_current_color) {
      ctx.set_output(1);
      ctx.terminate();
      return Status::kRunning;
    }
  }
  // One extra round past the palette lets the final losers drain.
  return step_ >= palette_ + 1 ? Status::kFinished : Status::kRunning;
}

// ---------------------------------------------------------------------------
// Factories.
// ---------------------------------------------------------------------------

std::vector<Value> mis_init_default() { return {0}; }

PhaseFactory make_mis_base() {
  return [](NodeId) { return std::make_unique<MisBasePhase>(); };
}

PhaseFactory make_mis_init() {
  return [](NodeId) { return std::make_unique<MisInitPhase>(); };
}

PhaseFactory make_greedy_mis() {
  return [](NodeId) { return std::make_unique<GreedyMisPhase>(); };
}

PhaseFactory make_mis_cleanup() {
  return [](NodeId) { return std::make_unique<MisCleanupPhase>(); };
}

ProgramFactory greedy_mis_algorithm() {
  return phase_as_algorithm(make_greedy_mis());
}

}  // namespace dgap
