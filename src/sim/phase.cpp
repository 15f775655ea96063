#include "sim/phase.hpp"

#include <utility>

namespace dgap {

namespace {

class PhaseRunner final : public NodeProgram {
 public:
  PhaseRunner(std::unique_ptr<PhaseProgram> phase, Value leftover_output)
      : phase_(std::move(phase)), leftover_output_(leftover_output) {}

  void on_send(NodeContext& ctx) override {
    Channel ch(ctx, 0);
    phase_->on_send(ctx, ch);
  }

  void on_receive(NodeContext& ctx) override {
    Channel ch(ctx, 0);
    const PhaseProgram::Status status = phase_->on_receive(ctx, ch);
    if (status == PhaseProgram::Status::kFinished && !ctx.terminated()) {
      if (!ctx.has_output()) ctx.set_output(leftover_output_);
      ctx.terminate();
    } else if (status == PhaseProgram::Status::kIdle && !ctx.terminated()) {
      // A bare phase's quiescence promise becomes an engine-level idle;
      // the engine wakes the node on a delivery or neighbor termination.
      ctx.idle();
    }
  }

 private:
  std::unique_ptr<PhaseProgram> phase_;
  Value leftover_output_;
};

class WholeReference final : public PhaseProgram {
 public:
  explicit WholeReference(TwoPartReference reference)
      : reference_(std::move(reference)) {}

  void on_send(NodeContext& ctx, Channel& ch) override {
    if (part2_) {
      part2_->on_send(ctx, ch);
    } else {
      reference_.part1->on_send(ctx, ch);
    }
  }

  Status on_receive(NodeContext& ctx, Channel& ch) override {
    if (part2_) return part2_->on_receive(ctx, ch);
    if (reference_.part1->on_receive(ctx, ch) == Status::kFinished) {
      part2_ = reference_.make_part2(ctx);
    }
    return Status::kRunning;
  }

 private:
  TwoPartReference reference_;
  std::unique_ptr<PhaseProgram> part2_;
};

}  // namespace

ProgramFactory phase_as_algorithm(PhaseFactory factory,
                                  Value leftover_output) {
  return [factory = std::move(factory),
          leftover_output](NodeId index) -> std::unique_ptr<NodeProgram> {
    return std::make_unique<PhaseRunner>(factory(index), leftover_output);
  };
}

PhaseFactory whole_reference(TwoPartFactory reference) {
  return [reference = std::move(reference)](NodeId index) {
    return std::make_unique<WholeReference>(reference(index));
  };
}

}  // namespace dgap
