#include "coloring/algorithms.hpp"

#include <vector>

#include "common/require.hpp"

namespace dgap {

namespace {

bool legal_palette_color(const NodeContext& ctx, Value c) {
  return c >= 1 && c <= ctx.delta() + 1;
}

/// Smallest palette color not output by any terminated neighbor.
Value smallest_free_color(const NodeContext& ctx) {
  const Value palette = ctx.delta() + 1;
  std::vector<bool> used(static_cast<std::size_t>(palette + 1), false);
  for (const Value c : ctx.neighbor_outputs()) {
    if (c >= 1 && c <= palette) used[static_cast<std::size_t>(c)] = true;
  }
  for (Value c = 1; c <= palette; ++c) {
    if (!used[static_cast<std::size_t>(c)]) return c;
  }
  DGAP_ASSERT(false, "palette larger than degree: a color must be free");
  return kUndefined;
}

bool is_local_max(const NodeContext& ctx) {
  for (NodeId u : ctx.active_neighbors()) {
    if (ctx.neighbor_id(u) > ctx.id()) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Base algorithm.
// ---------------------------------------------------------------------------

void ColoringBasePhase::on_send(NodeContext& ctx, Channel& ch) {
  if (step_ == 0) ch.broadcast({ctx.prediction()});
}

PhaseProgram::Status ColoringBasePhase::on_receive(NodeContext& ctx,
                                                   Channel& ch) {
  ++step_;
  if (step_ == 1) {
    wins_ = legal_palette_color(ctx, ctx.prediction());
    for (const Message* m : ch.inbox()) {
      if (m->words.at(0) == ctx.prediction()) wins_ = false;
    }
    return Status::kRunning;
  }
  if (wins_) {
    ctx.set_output(ctx.prediction());
    ctx.terminate();
  }
  return Status::kFinished;
}

// ---------------------------------------------------------------------------
// Reasonable initialization: identifier tie-break among equal predictions.
// ---------------------------------------------------------------------------

void ColoringInitPhase::on_send(NodeContext& ctx, Channel& ch) {
  if (step_ == 0) ch.broadcast({ctx.prediction()});
}

PhaseProgram::Status ColoringInitPhase::on_receive(NodeContext& ctx,
                                                   Channel& ch) {
  ++step_;
  if (step_ == 1) {
    wins_ = legal_palette_color(ctx, ctx.prediction());
    for (const Message* m : ch.inbox()) {
      if (m->words.at(0) == ctx.prediction() &&
          ctx.neighbor_id(m->from) > ctx.id()) {
        wins_ = false;
      }
    }
    return Status::kRunning;
  }
  if (wins_) {
    ctx.set_output(ctx.prediction());
    ctx.terminate();
  }
  return Status::kFinished;
}

// ---------------------------------------------------------------------------
// Measure-uniform greedy coloring (round complexity ≤ component size).
// ---------------------------------------------------------------------------

void GreedyColoringPhase::on_send(NodeContext&, Channel&) {}

PhaseProgram::Status GreedyColoringPhase::on_receive(NodeContext& ctx,
                                                     Channel&) {
  if (is_local_max(ctx)) {
    ctx.set_output(smallest_free_color(ctx));
    ctx.terminate();
  }
  return Status::kRunning;  // finishes only by terminating the node
}

PhaseProgram::Status ColorClassEmitPhase::on_receive(NodeContext& ctx,
                                                     Channel&) {
  ++step_;
  const Value palette = ctx.delta() + 1;
  if (stored_color_() == step_) {
    ctx.set_output(smallest_free_color(ctx));
    ctx.terminate();
  }
  return step_ >= palette ? Status::kFinished : Status::kRunning;
}

PhaseFactory make_coloring_base() {
  return [](NodeId) { return std::make_unique<ColoringBasePhase>(); };
}

PhaseFactory make_coloring_init() {
  return [](NodeId) { return std::make_unique<ColoringInitPhase>(); };
}

PhaseFactory make_greedy_coloring() {
  return [](NodeId) { return std::make_unique<GreedyColoringPhase>(); };
}

ProgramFactory greedy_coloring_algorithm() {
  return phase_as_algorithm(make_greedy_coloring());
}

}  // namespace dgap
