#include "sim/compile.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace dgap {

namespace {

class CompiledPhase final : public PhaseProgram {
 public:
  CompiledPhase(std::unique_ptr<PhaseProgram> inner,
                std::shared_ptr<const PhaseCompileSpec> spec)
      : inner_(std::move(inner)), spec_(std::move(spec)) {}

  void on_send(NodeContext& ctx, Channel& ch) override {
    if (!spec_->default_words.empty() &&
        (!spec_->default_first_round_only || round_ == 0)) {
      ch.declare_default(spec_->default_words);
    }
    inner_->on_send(ctx, ch);
  }

  Status on_receive(NodeContext& ctx, Channel& ch) override {
    ++round_;
    return inner_->on_receive(ctx, ch);
  }

 private:
  std::unique_ptr<PhaseProgram> inner_;
  // Shared, not referenced: programs outlive the factory that built them
  // (the engine constructor discards its factory argument).
  std::shared_ptr<const PhaseCompileSpec> spec_;
  int round_ = 0;
};

}  // namespace

PhaseFactory compile_phase(PhaseFactory inner, PhaseCompileSpec spec) {
  DGAP_REQUIRE(spec.default_words.size() <= detail::SendRecord::kInlineCap,
               "a default message holds at most SendRecord::kInlineCap words");
  auto shared = std::make_shared<const PhaseCompileSpec>(std::move(spec));
  return [inner = std::move(inner), shared](NodeId index) {
    return std::make_unique<CompiledPhase>(inner(index), shared);
  };
}

void NaiveFloodMinPhase::on_send(NodeContext& ctx, Channel& ch) {
  if (best_ == kUndefined) best_ = ctx.id();
  ch.broadcast({best_});
}

PhaseProgram::Status NaiveFloodMinPhase::on_receive(NodeContext& ctx,
                                                    Channel& ch) {
  for (const Message* m : ch.inbox()) {
    best_ = std::min(best_, m->words[0]);
  }
  if (++rounds_ < ctx.n()) return Status::kRunning;
  ctx.set_output(best_);
  ctx.terminate();
  return Status::kFinished;
}

PhaseFactory make_flood_min() {
  return [](NodeId) { return std::make_unique<NaiveFloodMinPhase>(); };
}

ProgramFactory flood_min_algorithm() {
  return phase_as_algorithm(make_flood_min());
}

}  // namespace dgap
