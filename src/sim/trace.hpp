// The engine's event spine: a single observer interface onto which every
// form of run observability is built.
//
// The engine is deterministic — a RunResult is a pure function of (graph,
// predictions, factory, options) — so the stream of per-round events
// (round begins, message deliveries, terminations with outputs) is a
// *complete* description of a run. A TraceSink receives that stream; the
// consumers built on it are
//
//   * TranscriptWriter (sim/transcript.hpp) — the versioned binary
//     format behind golden-transcript regression and `tools/dgap_trace`.
//
// Cost contract: when no sink is installed the engine performs no virtual
// calls and no per-message work — the hot path tests one cached integer.
// Per-message events are additionally gated on the sink's detail level, so
// a rounds-only sink costs O(rounds + terminations) calls, never
// O(messages). All events are emitted from the engine's serial sections
// (the round loop, the delivery scatter, the termination sweep); sinks
// never race with the sharded send/receive phases and need no locking.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "common/types.hpp"
#include "sim/arena.hpp"

namespace dgap {

struct EngineOptions;
struct RunResult;

/// Wall-clock nanoseconds spent in each stage of the engine's round
/// pipeline. The engine accumulates one instance over the run
/// (RunResult::phase_ns), so a perf regression is attributable to a
/// stage instead of rediscovered by bisection. Like RunResult::wall_ms,
/// these are measurements of the host, not of the simulated network:
/// excluded from determinism comparisons and never part of a transcript.
struct PhaseProfile {
  std::int64_t send_ns = 0;     // program on_send hooks (sharded)
  std::int64_t scatter_ns = 0;  // resolve + route + inbox scatter (fast path)
  std::int64_t link_ns = 0;     // kDefer's link-layer delivery
  std::int64_t trace_ns = 0;    // per-message trace emission
  std::int64_t receive_ns = 0;  // program on_receive hooks (sharded)
  std::int64_t mutate_ns = 0;   // termination sweep, compaction, wake rebuild

  std::int64_t sum() const {
    return send_ns + scatter_ns + link_ns + trace_ns + receive_ns + mutate_ns;
  }
  void accumulate(const PhaseProfile& o) {
    send_ns += o.send_ns;
    scatter_ns += o.scatter_ns;
    link_ns += o.link_ns;
    trace_ns += o.trace_ns;
    receive_ns += o.receive_ns;
    mutate_ns += o.mutate_ns;
  }
};

/// How much of the run a sink wants to observe. The codes are the
/// transcript header's; code 1 is unassigned.
enum class TraceDetail {
  /// Round begins (with active counts) and terminations (with outputs).
  kRounds = 0,
  /// Plus one event per delivered message: (round, from, to, channel,
  /// payload words, suppressed).
  kPayloads = 2,
};

/// One message delivery, observed at the receiver in the round it arrives
/// (under CongestPolicy::kDefer that is the round the last word crossed
/// the link, so a transcript records the *effective* schedule). `words`
/// borrows the round arena — valid only during the callback; sinks that
/// keep payloads must copy them out.
struct TraceMessage {
  int round = 0;
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  int channel = 0;
  WordSpan words;
  /// Synthesized by the message-reduction pass (sim/compile.hpp): the
  /// payload never crossed the wire, but the receiver observed it all the
  /// same, so it is part of the delivery stream.
  bool suppressed = false;
};

/// Observer of one engine run. Hooks fire in run order:
///   on_run_begin, then per round (on_round_begin, on_message*,
///   on_termination*), then on_run_end. Messages of a round arrive
///   receiver by receiver, receivers ascending, each inbox in its order
///   (sender, channel, send order); terminations arrive in ascending node
///   order.
/// The stream is bit-identical across num_threads and batch scheduling —
/// the same determinism contract as RunResult, and the property the
/// transcript tests pin.
class TraceSink {
 public:
  virtual ~TraceSink();

  /// Highest detail this sink consumes. The engine caches it once per run;
  /// per-message events are only produced when the sink asked for
  /// kPayloads.
  virtual TraceDetail detail() const { return TraceDetail::kRounds; }

  /// Start of run(): the instance size and the options in effect.
  virtual void on_run_begin(NodeId n, const EngineOptions& options);
  /// Start of round `round` (1-based); `active` nodes will participate.
  virtual void on_round_begin(int round, NodeId active);
  /// One delivered message (gated on detail() == kPayloads).
  virtual void on_message(const TraceMessage& m);
  /// Node `node` terminated at the end of `round` with the given outputs
  /// (`edge_outputs` sorted by key; both borrow engine state — copy to
  /// keep). Fired in ascending node order within a round.
  virtual void on_termination(int round, NodeId node, Value output,
                              std::span<const std::pair<NodeId, Value>>
                                  edge_outputs);
  /// End of run(): the finished result (wall_ms not yet stamped; sinks
  /// must not record it — transcripts exclude wall-clock by design).
  virtual void on_run_end(const RunResult& result);
};

}  // namespace dgap
