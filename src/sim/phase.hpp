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

#include <functional>
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
  /// event. The composition wrappers (the four template drivers and
  /// whole_reference) must keep counting rounds for their lockstep
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

/// A reference algorithm split into a fault-tolerant part 1 (which must
/// not write outputs — results stay in local state) and a part 2 built
/// once part 1 finishes. The Parallel template runs part 1 beside the
/// measure-uniform algorithm; every other composition runs the reference
/// whole, through whole_reference.
struct TwoPartReference {
  std::unique_ptr<PhaseProgram> part1;
  /// Invoked after part 1 finished; typically captures part1's state.
  std::function<std::unique_ptr<PhaseProgram>(const NodeContext&)> make_part2;
};

using TwoPartFactory = std::function<TwoPartReference(NodeId node)>;

/// The reference as one phase: part 1 until it finishes, then part 2 from
/// the next round on. Reports kFinished when part 2 does.
PhaseFactory whole_reference(TwoPartFactory reference);

}  // namespace dgap
