// Binary round transcripts: record a run's full event stream, then decode
// or diff it.
//
// The engine is deterministic, so the event stream a TraceSink observes
// (sim/trace.hpp) is a complete record of the run: everything a RunResult
// contains — and the whole per-round communication pattern besides — can
// be reconstructed from it. A transcript is that stream in a versioned,
// self-describing binary form:
//
//   header   magic "DGTR", format version, detail level (0 = rounds
//            only, 2 = payloads; 1 is unassigned), a free-text
//            label, an optional GraphSpec (so the instance can be rebuilt
//            from the file alone), n, and the semantically meaningful
//            engine options (max_rounds, congest_word_limit,
//            congest_policy). Execution knobs — num_threads and sinks —
//            are deliberately excluded: a transcript describes the
//            logical run, so serial, sharded and batch-scheduled
//            executions of the same job produce byte-identical files
//            (the determinism witness the batch and engine tests pin).
//            Wall-clock is likewise excluded.
//   rounds   one block per round: round number, active count, delivered
//            messages with their payloads (kPayloads only; receivers
//            ascending, each inbox in its order), terminations with
//            outputs, and an FNV-1a checksum of the block's bytes.
//   trailer  completed flag, round count, message/word totals (the
//            engine's sender-side accounting, which also charges sends
//            dropped because the receiver had already terminated — so the
//            totals can exceed the sum of the delivered rounds), and an
//            FNV-1a checksum over the whole file — any truncation or
//            byte flip fails decoding with DGAP_REQUIRE, never UB.
//
// Integers are varint-coded (zigzag for signed), checksums fixed 64-bit
// little-endian. Consumers:
//
//   * TranscriptWriter — a TraceSink producing the bytes;
//   * decode_transcript / encode_transcript — structured form and exact
//     round-trip (fuzzed in tests/transcript_test.cpp); a decoded
//     TranscriptRound holds the round's active count, every delivery in
//     inbox order and the terminations with their outputs;
//   * diff_transcripts — first divergent (round, field) of two runs.
//
// A golden is verified by re-recording its run and comparing bytes;
// diff_transcripts names the first divergence (`dgap_trace verify`, CI).
//
// See docs/MODEL.md, "Transcripts & replay".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/digest.hpp"
#include "graph/spec.hpp"
#include "sim/engine.hpp"

namespace dgap {

/// Version 2: each round lists its receivers in ascending order, and flag
/// bit 0 is unassigned. decode_transcript reads this version only.
inline constexpr std::uint32_t kTranscriptVersion = 2;

/// One delivered message (recorded at TraceDetail::kPayloads only).
struct TranscriptMessage {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  int channel = 0;
  /// Synthesized by the message-reduction pass (sim/compile.hpp). Encoded
  /// as bit 1 of the per-message flags byte; the other bits are zero.
  bool suppressed = false;
  std::vector<Value> words;

  friend bool operator==(const TranscriptMessage&,
                         const TranscriptMessage&) = default;
};

struct TranscriptTermination {
  NodeId node = kNoNode;
  Value output = kUndefined;
  std::vector<std::pair<NodeId, Value>> edge_outputs;  // sorted by key

  friend bool operator==(const TranscriptTermination&,
                         const TranscriptTermination&) = default;
};

struct TranscriptRound {
  int round = 0;
  NodeId active = 0;  // active nodes at the start of the round
  std::vector<TranscriptMessage> messages;  // receivers asc., inbox order
  std::vector<TranscriptTermination> terminations;  // ascending node order

  friend bool operator==(const TranscriptRound&,
                         const TranscriptRound&) = default;
};

struct TranscriptSummary {
  bool completed = false;
  int rounds = 0;
  std::int64_t total_messages = 0;
  std::int64_t total_words = 0;

  friend bool operator==(const TranscriptSummary&,
                         const TranscriptSummary&) = default;
};

/// A fully decoded transcript. Equality is structural — two byte buffers
/// decode equal iff the logical runs they record are identical.
struct Transcript {
  TraceDetail detail = TraceDetail::kPayloads;
  std::string label;
  std::optional<GraphSpec> spec;  // set when the instance is spec-built
  NodeId n = 0;
  int max_rounds = 0;
  int congest_word_limit = 0;
  CongestPolicy congest_policy = CongestPolicy::kCount;
  std::vector<TranscriptRound> rounds;
  TranscriptSummary summary;

  friend bool operator==(const Transcript&, const Transcript&) = default;
};

/// TraceSink that serializes the run into the binary format. Install via
/// EngineOptions::trace_sink; after run() returns, bytes() holds the
/// complete file image. A writer records exactly one run. It throws via
/// DGAP_REQUIRE on input the decoder would reject, so it never writes a
/// file that cannot be read back: a detail code other than 0 or 2, a
/// policy code above kDefer, or a round whose receivers descend.
class TranscriptWriter final : public TraceSink {
 public:
  explicit TranscriptWriter(TraceDetail detail = TraceDetail::kPayloads,
                            std::string label = {},
                            std::optional<GraphSpec> spec = std::nullopt);

  TraceDetail detail() const override { return detail_; }
  void on_run_begin(NodeId n, const EngineOptions& options) override;
  void on_round_begin(int round, NodeId active) override;
  void on_message(const TraceMessage& m) override;
  void on_termination(int round, NodeId node, Value output,
                      std::span<const std::pair<NodeId, Value>>
                          edge_outputs) override;
  void on_run_end(const RunResult& result) override;

  /// The serialized transcript; complete once on_run_end has fired.
  const std::vector<std::uint8_t>& bytes() const;
  std::vector<std::uint8_t> take_bytes();

 private:
  void close_round();
  void fold_hashes();

  TraceDetail detail_;
  std::string label_;
  std::optional<GraphSpec> spec_;
  std::vector<std::uint8_t> out_;
  std::size_t round_start_ = 0;  // offset of the open round block
  NodeId last_to_ = 0;           // the open round's last receiver
  bool begun_ = false;
  bool in_round_ = false;
  bool finished_ = false;

  // Running FNV-1a checksums, kept up to date as the buffer fills so every
  // byte is hashed once: file_hash_ covers every byte before out_[hashed_],
  // and round_hash_ the open round block's bytes among them. fold_hashes()
  // advances both in one loop over out_[hashed_, end).
  std::uint64_t file_hash_ = kFnvBasis;
  std::uint64_t round_hash_ = kFnvBasis;
  std::size_t hashed_ = 0;
};

/// Parse a serialized transcript. Every structural defect — bad magic,
/// unknown version or tag, truncation, a checksum mismatch, trailing
/// bytes, a flags byte other than 0 or 2, a round whose receivers descend
/// — throws via DGAP_REQUIRE; decoding never exhibits UB on corrupted
/// input (fuzzed under asan/ubsan in CI).
Transcript decode_transcript(std::span<const std::uint8_t> bytes);

/// Serialize a structured transcript — the exact inverse of
/// decode_transcript, and byte-identical to what a TranscriptWriter
/// produces for the run it records. Like the writer it drives, it throws
/// on a detail code other than 0 or 2, a policy code above kDefer or a
/// round whose receivers descend.
std::vector<std::uint8_t> encode_transcript(const Transcript& t);

/// File I/O. Both throw (DGAP_REQUIRE) on I/O errors.
void write_transcript_file(const std::string& path,
                           std::span<const std::uint8_t> bytes);
std::vector<std::uint8_t> read_transcript_file(const std::string& path);

/// A recorded run: the result plus its serialized transcript.
struct RecordedRun {
  RunResult result;
  std::vector<std::uint8_t> transcript;
};

/// Convenience: run with a TranscriptWriter installed. `options` must not
/// already carry a trace sink.
RecordedRun record_run(const Graph& g, const Predictions& predictions,
                       ProgramFactory factory, EngineOptions options,
                       TraceDetail detail = TraceDetail::kPayloads,
                       std::string label = {},
                       std::optional<GraphSpec> spec = std::nullopt);

/// First divergence between two transcripts: the round it occurs in
/// (0 for header/summary-level differences) and a human-readable field
/// description. Nullopt iff the transcripts are equal.
struct TranscriptDivergence {
  int round = 0;
  std::string field;
};

std::optional<TranscriptDivergence> diff_transcripts(const Transcript& a,
                                                     const Transcript& b);

}  // namespace dgap
