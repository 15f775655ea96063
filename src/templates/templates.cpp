#include "templates/templates.hpp"

#include <utility>

#include "common/require.hpp"

namespace dgap {

namespace {

constexpr int kUniformChannel = 1;
constexpr int kReferenceChannel = 2;

// ---------------------------------------------------------------------------
// Simple Template.
// ---------------------------------------------------------------------------

class SimpleProgram final : public NodeProgram {
 public:
  SimpleProgram(std::unique_ptr<PhaseProgram> init,
                std::unique_ptr<PhaseProgram> reference)
      : init_(std::move(init)), reference_(std::move(reference)) {}

  void on_send(NodeContext& ctx) override {
    Channel ch(ctx, 0);
    current().on_send(ctx, ch);
  }

  void on_receive(NodeContext& ctx) override {
    Channel ch(ctx, 0);
    if (current().on_receive(ctx, ch) == PhaseProgram::Status::kFinished &&
        !in_reference_) {
      in_reference_ = true;
    }
  }

 private:
  PhaseProgram& current() { return in_reference_ ? *reference_ : *init_; }

  std::unique_ptr<PhaseProgram> init_;
  std::unique_ptr<PhaseProgram> reference_;
  bool in_reference_ = false;
};

// ---------------------------------------------------------------------------
// Consecutive Template.
// ---------------------------------------------------------------------------

class ConsecutiveProgram final : public NodeProgram {
 public:
  ConsecutiveProgram(std::unique_ptr<PhaseProgram> init,
                     std::unique_ptr<PhaseProgram> uniform,
                     std::unique_ptr<PhaseProgram> cleanup,
                     std::unique_ptr<PhaseProgram> reference,
                     std::shared_ptr<const ScheduleFn> uniform_budget)
      : init_(std::move(init)), uniform_(std::move(uniform)),
        cleanup_(std::move(cleanup)), reference_(std::move(reference)),
        uniform_budget_(std::move(uniform_budget)) {}

  void on_send(NodeContext& ctx) override {
    ensure_budget(ctx);
    Channel ch(ctx, 0);
    switch (stage_) {
      case Stage::kInit: init_->on_send(ctx, ch); break;
      case Stage::kUniform: uniform_->on_send(ctx, ch); break;
      case Stage::kCleanup:
        if (cleanup_) cleanup_->on_send(ctx, ch);
        break;
      case Stage::kReference: reference_->on_send(ctx, ch); break;
    }
  }

  void on_receive(NodeContext& ctx) override {
    ensure_budget(ctx);
    Channel ch(ctx, 0);
    switch (stage_) {
      case Stage::kInit:
        if (init_->on_receive(ctx, ch) == PhaseProgram::Status::kFinished) {
          stage_ = budget_ > 0 ? Stage::kUniform
                               : (cleanup_ ? Stage::kCleanup
                                           : Stage::kReference);
        }
        break;
      case Stage::kUniform:
        uniform_->on_receive(ctx, ch);
        if (--budget_ <= 0) {
          stage_ = cleanup_ ? Stage::kCleanup : Stage::kReference;
        }
        break;
      case Stage::kCleanup:
        if (cleanup_->on_receive(ctx, ch) ==
            PhaseProgram::Status::kFinished) {
          stage_ = Stage::kReference;
        }
        break;
      case Stage::kReference:
        reference_->on_receive(ctx, ch);
        break;
    }
  }

 private:
  enum class Stage { kInit, kUniform, kCleanup, kReference };

  void ensure_budget(const NodeContext& ctx) {
    if (budget_ >= 0) return;
    budget_ = (*uniform_budget_)(ctx.n(), ctx.delta(), ctx.d());
    DGAP_REQUIRE(budget_ >= 0, "uniform budget must be non-negative");
  }

  std::unique_ptr<PhaseProgram> init_;
  std::unique_ptr<PhaseProgram> uniform_;
  std::unique_ptr<PhaseProgram> cleanup_;  // may be null
  std::unique_ptr<PhaseProgram> reference_;
  std::shared_ptr<const ScheduleFn> uniform_budget_;
  Stage stage_ = Stage::kInit;
  int budget_ = -1;
};

// ---------------------------------------------------------------------------
// Interleaved Template.
// ---------------------------------------------------------------------------

class InterleavedProgram final : public NodeProgram {
 public:
  InterleavedProgram(NodeId node, std::shared_ptr<const InterleavedConfig> cfg)
      : node_(node), cfg_(std::move(cfg)), init_(cfg_->init(node)),
        uniform_(cfg_->uniform(node)) {
    if (cfg_->reference_persistent) {
      reference_segment_ = cfg_->reference_persistent(node);
    }
  }

  void on_send(NodeContext& ctx) override {
    ensure_schedule(ctx);
    Channel ch(ctx, 0);
    if (!init_done_) {
      init_->on_send(ctx, ch);
    } else if (in_uniform_segment()) {
      uniform_->on_send(ctx, ch);
    } else {
      reference_segment_->on_send(ctx, ch);
    }
  }

  void on_receive(NodeContext& ctx) override {
    ensure_schedule(ctx);
    Channel ch(ctx, 0);
    if (!init_done_) {
      if (init_->on_receive(ctx, ch) == PhaseProgram::Status::kFinished) {
        init_done_ = true;
        begin_segment();
      }
      return;
    }
    if (in_uniform_segment()) {
      uniform_->on_receive(ctx, ch);
    } else {
      reference_segment_->on_receive(ctx, ch);
    }
    if (--segment_left_ <= 0) advance_segment();
  }

 private:
  void ensure_schedule(const NodeContext& ctx) {
    if (phase_count_ >= 0) return;
    n_ = ctx.n();
    delta_ = ctx.delta();
    d_ = ctx.d();
    phase_count_ = cfg_->phase_count(n_, delta_, d_);
    DGAP_REQUIRE(phase_count_ >= 1, "interleaving needs at least one phase");
  }

  bool in_uniform_segment() const {
    // Past the last reference phase, the uniform algorithm runs forever as
    // a defensive fallback (a complete reference never lets this happen).
    return phase_ > phase_count_ || segment_is_uniform_;
  }

  void begin_segment() {
    segment_is_uniform_ = true;
    segment_left_ = cfg_->phase_budget(phase_, n_, delta_, d_);
    DGAP_REQUIRE(segment_left_ >= 1, "phase budgets must be positive");
  }

  void advance_segment() {
    if (phase_ > phase_count_) {  // fallback mode: keep running U
      segment_left_ = 2;
      return;
    }
    if (segment_is_uniform_) {
      segment_is_uniform_ = false;
      if (cfg_->reference_phase) {
        reference_segment_ = cfg_->reference_phase(phase_, node_);
      }  // persistent references resume where they left off
      segment_left_ = cfg_->phase_budget(phase_, n_, delta_, d_);
    } else {
      ++phase_;
      if (phase_ > phase_count_) {
        segment_is_uniform_ = true;
        segment_left_ = 2;
        return;
      }
      begin_segment();
    }
  }

  NodeId node_;
  std::shared_ptr<const InterleavedConfig> cfg_;
  std::unique_ptr<PhaseProgram> init_;
  std::unique_ptr<PhaseProgram> uniform_;
  std::unique_ptr<PhaseProgram> reference_segment_;
  bool init_done_ = false;
  bool segment_is_uniform_ = true;
  int phase_ = 1;
  int phase_count_ = -1;
  int segment_left_ = 0;
  NodeId n_ = 0;
  int delta_ = 0;
  std::int64_t d_ = 0;
};

// ---------------------------------------------------------------------------
// Parallel Template.
// ---------------------------------------------------------------------------

class ParallelProgram final : public NodeProgram {
 public:
  ParallelProgram(NodeId node, std::shared_ptr<const ParallelConfig> cfg)
      : cfg_(std::move(cfg)), init_(cfg_->init(node)),
        uniform_(cfg_->uniform(node)), reference_(cfg_->reference(node)) {}

  void on_send(NodeContext& ctx) override {
    ensure_budget(ctx);
    switch (stage_) {
      case Stage::kInit: {
        Channel ch(ctx, 0);
        init_->on_send(ctx, ch);
        break;
      }
      case Stage::kParallel: {
        Channel chu(ctx, kUniformChannel);
        Channel chr(ctx, kReferenceChannel);
        if (!part1_done_) reference_.part1->on_send(ctx, chr);
        uniform_->on_send(ctx, chu);
        break;
      }
      case Stage::kCleanup: {
        Channel ch(ctx, 0);
        if (cleanup_) cleanup_->on_send(ctx, ch);
        break;
      }
      case Stage::kPart2: {
        Channel ch(ctx, 0);
        part2_->on_send(ctx, ch);
        break;
      }
    }
  }

  void on_receive(NodeContext& ctx) override {
    ensure_budget(ctx);
    switch (stage_) {
      case Stage::kInit: {
        Channel ch(ctx, 0);
        if (init_->on_receive(ctx, ch) == PhaseProgram::Status::kFinished) {
          stage_ = Stage::kParallel;
        }
        break;
      }
      case Stage::kParallel: {
        Channel chr(ctx, kReferenceChannel);
        if (!part1_done_ &&
            reference_.part1->on_receive(ctx, chr) ==
                PhaseProgram::Status::kFinished) {
          part1_done_ = true;
        }
        Channel chu(ctx, kUniformChannel);
        uniform_->on_receive(ctx, chu);
        if (ctx.terminated()) break;
        if (--budget_ <= 0) {
          DGAP_ASSERT(part1_done_,
                      "part 1 must finish within its declared budget");
          if (cleanup_) {
            stage_ = Stage::kCleanup;
          } else {
            enter_part2(ctx);
          }
        }
        break;
      }
      case Stage::kCleanup: {
        Channel ch(ctx, 0);
        if (cleanup_->on_receive(ctx, ch) ==
            PhaseProgram::Status::kFinished) {
          enter_part2(ctx);
        }
        break;
      }
      case Stage::kPart2: {
        Channel ch(ctx, 0);
        part2_->on_receive(ctx, ch);
        break;
      }
    }
  }

 private:
  enum class Stage { kInit, kParallel, kCleanup, kPart2 };

  void ensure_budget(const NodeContext& ctx) {
    if (budget_ >= 0) return;
    int b = cfg_->part1_budget(ctx.n(), ctx.delta(), ctx.d());
    DGAP_REQUIRE(b >= 1, "part 1 budget must be positive");
    const int g = cfg_->budget_granularity;
    DGAP_REQUIRE(g >= 1, "budget granularity must be positive");
    if (b % g != 0) b += g - b % g;  // cut only on extendable boundaries
    budget_ = b;
    cleanup_ = cfg_->cleanup ? cfg_->cleanup(ctx.index()) : nullptr;
  }

  void enter_part2(const NodeContext& ctx) {
    part2_ = reference_.make_part2(ctx);
    stage_ = Stage::kPart2;
  }

  std::shared_ptr<const ParallelConfig> cfg_;
  std::unique_ptr<PhaseProgram> init_;
  std::unique_ptr<PhaseProgram> uniform_;
  TwoPartReference reference_;
  std::unique_ptr<PhaseProgram> cleanup_;
  std::unique_ptr<PhaseProgram> part2_;
  Stage stage_ = Stage::kInit;
  bool part1_done_ = false;
  int budget_ = -1;
};

}  // namespace

ProgramFactory simple_template(PhaseFactory init, PhaseFactory reference) {
  return [init = std::move(init),
          reference = std::move(reference)](NodeId node) {
    return std::make_unique<SimpleProgram>(init(node), reference(node));
  };
}

ProgramFactory consecutive_template(PhaseFactory init, PhaseFactory uniform,
                                    PhaseFactory cleanup,
                                    PhaseFactory reference,
                                    ScheduleFn uniform_budget) {
  return [init = std::move(init), uniform = std::move(uniform),
          cleanup = std::move(cleanup), reference = std::move(reference),
          uniform_budget = std::make_shared<const ScheduleFn>(
              std::move(uniform_budget))](NodeId node) {
    return std::make_unique<ConsecutiveProgram>(
        init(node), uniform(node), cleanup ? cleanup(node) : nullptr,
        reference(node), uniform_budget);
  };
}

ProgramFactory interleaved_template(InterleavedConfig cfg) {
  DGAP_REQUIRE((cfg.reference_phase != nullptr) !=
                   (cfg.reference_persistent != nullptr),
               "set exactly one of reference_phase / reference_persistent");
  return [cfg = std::make_shared<const InterleavedConfig>(std::move(cfg))](
             NodeId node) {
    return std::make_unique<InterleavedProgram>(node, cfg);
  };
}

ProgramFactory parallel_template(ParallelConfig cfg) {
  return [cfg = std::make_shared<const ParallelConfig>(std::move(cfg))](
             NodeId node) {
    return std::make_unique<ParallelProgram>(node, cfg);
  };
}

}  // namespace dgap
