// Composable per-node phase programs.
//
// The paper's templates (Section 7) build algorithms with predictions out of
// four kinds of building blocks: an initialization algorithm B, a
// measure-uniform algorithm U, a clean-up algorithm C, and a reference
// algorithm R, possibly split into parts/phases, run consecutively,
// interleaved, or in parallel. A PhaseProgram is the per-node state machine
// of one such block: like a NodeProgram it sees one onSend/onReceive pair
// per round, but instead of owning the node's whole lifetime it reports
// kFinished when its own work is complete, so a driver can hand the node to
// the next block. A block may also terminate the node outright (via the
// context), which ends every block.
//
// Messaging during composition goes through a Channel, which tags outgoing
// messages and filters the inbox, so two blocks running in parallel (the
// Parallel template runs U and R part 1 simultaneously) cannot read each
// other's traffic.
#pragma once

#include <memory>
#include <vector>

#include "sim/engine.hpp"

namespace dgap {

/// Lazily filtered view of a round inbox restricted to one channel.
/// Iteration yields `const Message*`, so the idiomatic loop
/// `for (const Message* m : ch.inbox())` is unchanged — but no vector of
/// pointers is materialized (the filter runs inline, allocation-free).
class ChannelInbox {
 public:
  class iterator {
   public:
    iterator(const Message* cur, const Message* last, int channel)
        : cur_(cur), last_(last), channel_(channel) {
      skip_mismatches();
    }
    const Message* operator*() const { return cur_; }
    iterator& operator++() {
      ++cur_;
      skip_mismatches();
      return *this;
    }
    bool operator!=(const iterator& o) const { return cur_ != o.cur_; }

   private:
    void skip_mismatches() {
      while (cur_ != last_ && cur_->channel != channel_) ++cur_;
    }
    const Message* cur_;
    const Message* last_;
    int channel_;
  };

  ChannelInbox(std::span<const Message> all, int channel)
      : all_(all), channel_(channel) {}
  iterator begin() const {
    return {all_.data(), all_.data() + all_.size(), channel_};
  }
  iterator end() const {
    return {all_.data() + all_.size(), all_.data() + all_.size(), channel_};
  }
  bool empty() const { return !(begin() != end()); }

 private:
  std::span<const Message> all_;
  int channel_;
};

/// Messaging endpoint bound to (context, channel id).
class Channel {
 public:
  Channel(NodeContext& ctx, int id) : ctx_(&ctx), id_(id) {}

  void send(NodeId to, const std::vector<Value>& words) {
    ctx_->send(to, words, id_);
  }
  void send(NodeId to, std::initializer_list<Value> words) {
    ctx_->send(to, words, id_);
  }
  void broadcast(const std::vector<Value>& words) {
    ctx_->broadcast(words, id_);
  }
  void broadcast(std::initializer_list<Value> words) {
    ctx_->broadcast(words, id_);
  }
  /// Declare this round's default message on this channel: a send or
  /// broadcast with an identical payload may be suppressed off the wire by
  /// the message-reduction pass (EngineOptions::compile.decode_defaults)
  /// and synthesized at the receiver. Inert when the knob is off, so one
  /// phase serves compiled and uncompiled runs. See sim/compile.hpp.
  void declare_default(const std::vector<Value>& words) {
    ctx_->declare_default(words, id_);
  }
  void declare_default(std::initializer_list<Value> words) {
    ctx_->declare_default(words, id_);
  }
  /// Messages received this round on this channel (lazy, allocation-free).
  ChannelInbox inbox() const { return {ctx_->inbox(), id_}; }
  int id() const { return id_; }

 private:
  NodeContext* ctx_;
  int id_;
};

class PhaseProgram {
 public:
  /// kIdle means "still running, and I promise quiescence until an event":
  /// the phase has nothing to send and its decision cannot change until a
  /// message arrives or a neighbor terminates. When a phase runs bare
  /// (phase_as_algorithm), the runner forwards the promise to the engine
  /// (NodeContext::idle()) so the node's hooks are skipped until a wake
  /// event. Composition wrappers (BudgetedPhase, SequencePhase, the
  /// template drivers) must keep counting rounds for their lockstep
  /// schedules, so they treat kIdle exactly like kRunning — which every
  /// `== kFinished` comparison already does.
  enum class Status { kRunning, kIdle, kFinished };

  virtual ~PhaseProgram() = default;
  virtual void on_send(NodeContext& ctx, Channel& ch) = 0;
  virtual Status on_receive(NodeContext& ctx, Channel& ch) = 0;
};

using PhaseFactory =
    std::function<std::unique_ptr<PhaseProgram>(NodeId index)>;

/// Adapter: run a single phase program as a complete algorithm. If the
/// phase finishes at a node without terminating it, the node outputs
/// `leftover_output` and terminates — this is how tests inspect the partial
/// solution computed by an initialization algorithm on its own.
/// Nodes left running output kLeftoverActive, so a test can distinguish
/// "decided by the phase" from "still active when it finished".
inline constexpr Value kLeftoverActive = -999;

ProgramFactory phase_as_algorithm(PhaseFactory factory,
                                  Value leftover_output = kLeftoverActive);

/// A phase that does nothing for a fixed number of rounds (used to pad
/// schedules so that all nodes switch blocks simultaneously).
class IdlePhase final : public PhaseProgram {
 public:
  explicit IdlePhase(int rounds) : remaining_(rounds) {}
  void on_send(NodeContext&, Channel&) override {}
  Status on_receive(NodeContext&, Channel&) override {
    if (remaining_ > 0) --remaining_;
    return remaining_ <= 0 ? Status::kFinished : Status::kRunning;
  }

 private:
  int remaining_;
};

/// Wrap a phase with a hard round budget: reports kFinished when either the
/// inner phase finishes or the budget is exhausted, whichever comes first,
/// and idles (without touching the inner phase) if the inner phase finishes
/// early but `pad_to_budget` asks for lockstep switching.
class BudgetedPhase final : public PhaseProgram {
 public:
  BudgetedPhase(std::unique_ptr<PhaseProgram> inner, int budget,
                bool pad_to_budget)
      : inner_(std::move(inner)), remaining_(budget), pad_(pad_to_budget) {}

  void on_send(NodeContext& ctx, Channel& ch) override {
    if (!inner_done_ && remaining_ > 0) inner_->on_send(ctx, ch);
  }

  Status on_receive(NodeContext& ctx, Channel& ch) override {
    if (remaining_ <= 0) return Status::kFinished;
    if (!inner_done_) {
      if (inner_->on_receive(ctx, ch) == Status::kFinished) inner_done_ = true;
    }
    --remaining_;
    if (inner_done_ && !pad_) return Status::kFinished;
    if (remaining_ <= 0) return Status::kFinished;
    return Status::kRunning;
  }

 private:
  std::unique_ptr<PhaseProgram> inner_;
  int remaining_;
  bool pad_;
  bool inner_done_ = false;
};

/// Run phases one after another (all on the same channel). Used by the
/// Simple and Consecutive templates. Each node advances to the next phase
/// the round after its current phase reports kFinished; with budgeted
/// phases (deterministic schedules) all nodes advance in lockstep, which is
/// what the templates require.
class SequencePhase final : public PhaseProgram {
 public:
  explicit SequencePhase(std::vector<std::unique_ptr<PhaseProgram>> phases)
      : phases_(std::move(phases)) {}

  void on_send(NodeContext& ctx, Channel& ch) override {
    if (current_ < phases_.size()) phases_[current_]->on_send(ctx, ch);
  }

  Status on_receive(NodeContext& ctx, Channel& ch) override {
    if (current_ >= phases_.size()) return Status::kFinished;
    if (phases_[current_]->on_receive(ctx, ch) == Status::kFinished) {
      ++current_;
    }
    return current_ >= phases_.size() ? Status::kFinished : Status::kRunning;
  }

 private:
  std::vector<std::unique_ptr<PhaseProgram>> phases_;
  std::size_t current_ = 0;
};

}  // namespace dgap
