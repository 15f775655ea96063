// Message-reduction compilation: mechanically rewrite a node program's
// message pattern without changing its behavior.
//
// Following "Message Reduction in the LOCAL Model is a Free Lunch" (Bitton,
// Emek, Izumi, Kutten; see PAPERS.md), a LOCAL/CONGEST node program can be
// compiled to send far fewer messages while keeping the round schedule and
// every node's output bit-identical. This repo implements two of the
// paper-family transforms as engine knobs (`EngineOptions::compile`):
//
//   1. Neighborhood caching (`cache_resends`) — a per-directed-edge
//      one-slot cache of the last message delivered on that edge; an exact
//      re-send (same channel, length, payload) is *suppressed*: it is
//      charged to the nominal totals, skipped on the wire, and synthesized
//      into the receiver's inbox, because the receiver could reconstruct it
//      from its own memory.
//   2. Silence as information (`decode_defaults`) — a program declares a
//      per-round default message (NodeContext::declare_default / the
//      Channel forwarder); a send that equals the declared default is
//      suppressed the same way, because an informed receiver decodes the
//      absence. Sound only when the default is a globally-known constant of
//      the schedule — never per-sender dynamic state.
//
// The engine's suppression is *accounting-only*: every suppressed message
// is still delivered (flagged `Message::suppressed`), so compiled and
// uncompiled runs are byte-identical in outputs, rounds, and kRounds
// transcripts by construction. `RunResult::total_*` stays nominal (sent +
// suppressed); the new `*_sent` / `*_suppressed` fields split the physical
// wire cost out. Full semantics: docs/MODEL.md, "Message-reduction
// compilation".
//
// Thread-invariance of the transforms: default suppression (2) is decided
// at send time from shard-local state, so it is trivially independent of
// num_threads. The resend cache (1) is stateful per directed edge; its
// slots are keyed to *receiver-shard ownership* — the edge (from, to)'s
// cache line is touched only by the shard owning `to`, which walks its
// records in ascending global send order — so the per-edge hit/miss
// sequence (and with it the suppressed split) is identical for every
// thread count, and compilation no longer forces the engine onto a serial
// delivery loop. compile_test pins the suppressed counters and transcripts
// across threads {1, 2, 4, 8}.
#pragma once

#include <memory>
#include <vector>

#include "sim/phase.hpp"

namespace dgap {

/// Per-phase compilation directives applied by compile_phase(). The spec is
/// pure annotation: with every engine compile knob off, a compiled phase
/// behaves exactly like its inner phase (declarations are inert), so one
/// factory serves compiled and uncompiled runs alike.
struct PhaseCompileSpec {
  /// Declared as the phase's default message (on the phase's channel) when
  /// non-empty; must hold a globally-known constant, at most
  /// detail::SendRecord::kInlineCap words.
  std::vector<Value> default_words;
  /// Declare the default only on the phase's first round (e.g. an
  /// initialization broadcast at a schedule-fixed step).
  bool default_first_round_only = false;
};

/// Wrap a phase factory so each instance emits the spec's declarations
/// before delegating. Round counting is local to the wrapper (receive-phase
/// increments), matching the lockstep schedules templates rely on.
PhaseFactory compile_phase(PhaseFactory inner, PhaseCompileSpec spec);

/// The canonical broadcast-heavy workload for the message benches: every
/// node floods the minimum identifier it has seen for exactly n rounds,
/// then outputs it (the component minimum) and terminates. Deliberately
/// naive — Θ(n·m) nominal messages — so the cache transform has room to
/// show its reduction: re-sends dominate once the minimum stabilizes.
class NaiveFloodMinPhase final : public PhaseProgram {
 public:
  void on_send(NodeContext& ctx, Channel& ch) override;
  Status on_receive(NodeContext& ctx, Channel& ch) override;

 private:
  Value best_ = kUndefined;
  int rounds_ = 0;
};

/// Phase factory for NaiveFloodMinPhase.
PhaseFactory make_flood_min();

/// NaiveFloodMinPhase run as a complete algorithm (terminates every node
/// with the component-minimum identifier after n rounds).
ProgramFactory flood_min_algorithm();

}  // namespace dgap
