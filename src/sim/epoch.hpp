// Dynamic-graph serving epochs: warm-start a template from its own past.
//
// The paper's flagship scenario (Section 1.1) is a solution computed on an
// old network replayed as the prediction after the network changed. The
// EpochHarness runs that scenario end-to-end, repeatedly: a graph evolves
// through deterministic edit batches (graph/edits.hpp — identifier-stable
// churn), a prediction-augmented template runs every epoch, and epoch k
// warm-starts from epoch k−1's output translated onto the new graph by the
// problem's warm-start adapter (predict/warm_start.hpp). Each epoch also
// runs a FROM-SCRATCH CONTROL — the same template with the problem's
// trivial prediction — so the measured quantity is exactly the paper's
// claim: amortized rounds/messages per epoch with warm starts vs without.
//
// The harness is problem-agnostic: an EpochProblem bundles the template
// factory, the problem kind, the from-scratch PredictionProvider, the
// error measure η, its degradation bound, and the validity checker
// (assemblies for MIS / matching / coloring live in
// templates/epoch_problems.hpp, above this layer). Warm starts need no
// per-problem adapter: the harness wraps epoch k−1's outputs in a
// warm_start_provider (predict/provider.hpp) and materializes the warm
// prediction once, to measure η on it; the warm job then carries that
// prediction as a literal_provider.
//
// Execution is deterministic and cacheable. Each epoch's two jobs run on
// the harness's BatchRunner — the one code path that turns a job into a
// run — with engines single-threaded per the batch contract, so the
// per-epoch transcripts are byte-identical for every worker count
// (tests/epoch_test.cpp pins bytes). Every job is content-addressed
// through the runner's ResultCache, so repeated configurations (and the
// control runs of a zero-churn stream) are served without executing; a
// captured transcript's label is part of its key, so a hit never carries
// another epoch's label. See docs/MODEL.md, "Epochs & warm-starting".
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "graph/edits.hpp"
#include "graph/spec.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"

namespace dgap {

/// One problem package, epoch-harness shaped. All members are required
/// unless noted. The functions must be pure (everything derived from their
/// arguments and fixed constants) — the harness's determinism contract
/// rests on it.
struct EpochProblem {
  /// Stable algorithm id for content addressing (e.g. "mis_simple_greedy").
  std::string name;
  /// The problem the providers are asked for.
  ProblemKind kind = ProblemKind::kMis;
  std::function<ProgramFactory()> factory;
  /// The trivial prediction source — what "no useful advice" means here
  /// (usually neutral_provider()); also the from-scratch control's source.
  ProviderPtr scratch;
  /// The problem's error measure (η1-style) of a prediction.
  std::function<int(const Graph&, const Predictions&)> eta;
  /// Round bound the template promises at error η on this instance; the
  /// churn property sweep asserts rounds <= this per epoch.
  std::function<int(int eta, const Graph&)> degradation_bound;
  /// Empty string iff the outputs are a valid complete solution.
  std::function<std::string(const Graph&, const RunResult&)> check;
};

struct EpochConfig {
  GraphSpec base;   // the epoch-0 instance
  ChurnSpec churn;  // edit-batch generator for epochs 1..
  int epochs = 6;
  /// Engine options for every run. Batch engines run single-threaded, so
  /// num_threads must be 1; parallelism is `workers`.
  EngineOptions options;
  /// BatchRunner worker slots (>= 1).
  int workers = 1;
  /// Record each epoch's warm run as a binary transcript
  /// (EpochRecord::warm_transcript; encode_epoch_sequence() frames them).
  bool capture_transcripts = false;
  TraceDetail detail = TraceDetail::kPayloads;
  /// Transcript label stem; epoch k's label is "<label>_e<k>".
  std::string label = "epochs";
};

struct EpochRecord {
  int epoch = 0;
  NodeId nodes = 0;
  std::int64_t edges = 0;
  /// η of the prediction the warm run consumed (epoch 0: of the trivial
  /// prediction — there is no previous output yet).
  int eta = 0;
  bool warm_cache_hit = false;
  bool control_cache_hit = false;
  RunResult warm;
  RunResult control;  // the from-scratch run on the same instance
  std::vector<std::uint8_t> warm_transcript;  // iff capture_transcripts
};

struct EpochReport {
  std::vector<EpochRecord> epochs;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
};

/// Checksum over every deterministic per-epoch quantity (both runs'
/// result checksums, η, instance shape) — the cheap equality witness the
/// bench and CI diff across serial/batch/cached executions.
std::uint64_t epoch_report_checksum(const EpochReport& report);

class EpochHarness {
 public:
  EpochHarness(EpochProblem problem, EpochConfig config);

  /// Run the full epoch stream. Repeatable: a second run() replays the
  /// same stream and is served entirely from the runner's result cache.
  EpochReport run();

 private:
  EpochProblem problem_;
  EpochConfig config_;
  BatchRunner runner_;  // its result cache outlives each run()
};

// ---- Epoch-sequence container ---------------------------------------------
//
// A recorded epoch stream is one transcript per epoch. The container
// frames them into a single self-describing file ("DGEP" magic, version,
// label, then length-prefixed transcript blobs, trailing FNV-1a checksum
// over everything before it) so a whole serving session can be committed
// as ONE golden artifact and verified epoch by epoch. Byte-for-byte
// deterministic for a fixed (problem, config).

inline constexpr std::uint32_t kEpochSequenceVersion = 1;

std::vector<std::uint8_t> encode_epoch_sequence(
    std::string_view label,
    const std::vector<std::vector<std::uint8_t>>& epoch_transcripts);

struct EpochSequence {
  std::string label;
  std::vector<std::vector<std::uint8_t>> epochs;
};

/// Parse a container; any structural defect throws DGAP_REQUIRE.
EpochSequence decode_epoch_sequence(std::span<const std::uint8_t> bytes);

/// True iff `bytes` starts with the epoch-sequence magic.
bool is_epoch_sequence(std::span<const std::uint8_t> bytes);

/// The captured warm transcripts of a report, framed. Requires
/// capture_transcripts to have been on.
std::vector<std::uint8_t> epoch_sequence_of(std::string_view label,
                                            const EpochReport& report);

}  // namespace dgap
