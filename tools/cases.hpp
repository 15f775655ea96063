// Canonical recorded runs: the golden-transcript regression corpus.
//
// Each case names a fully spec-built instance, an algorithm, a
// deterministic prediction recipe, and engine options — everything needed
// to re-execute the run from the transcript header alone. The committed
// goldens under tests/golden/ are these cases at TraceDetail::kPayloads;
// `dgap_trace verify` (and transcript_test's golden fixture, and the CI
// gate) re-records each case, compares the bytes with its golden and
// names the first divergent round. The corpus spans the three engine
// regimes: the plain fast path (Luby on G(n, p)), the enforced link layer
// under kDefer (CONGEST global MIS), and a composed prediction template
// cut mid-run.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sim/epoch.hpp"
#include "sim/transcript.hpp"

namespace dgap {

struct CanonicalCase {
  std::string name;         // transcript label and golden file stem
  std::string description;  // one line for `dgap_trace list`
  GraphSpec spec;
  EngineOptions options;
  /// Deterministic prediction source (null = run without predictions):
  /// materialized as provide_with_seed(*provider, g, kind,
  /// prediction_seed). Providers are construction-time, so the committed
  /// goldens recorded before this field existed are byte-identical.
  ProviderPtr provider;
  ProblemKind kind = ProblemKind::kMis;
  std::uint64_t prediction_seed = 0;
  std::function<ProgramFactory()> factory;
};

/// The registry, in a fixed order.
const std::vector<CanonicalCase>& canonical_cases();

/// Case by name; null if unknown.
const CanonicalCase* find_canonical_case(const std::string& name);

/// Re-execute `c` and serialize it at `detail` (goldens use kPayloads).
RecordedRun record_canonical_case(const CanonicalCase& c,
                                  TraceDetail detail = TraceDetail::kPayloads);

/// Re-record `c` and compare it byte-for-byte with `golden`; returns the
/// re-recorded result, or throws (DGAP_ASSERT) naming the first divergent
/// round and field (diff_transcripts).
RunResult verify_canonical_case(const CanonicalCase& c,
                                std::span<const std::uint8_t> golden);

/// Golden file name for a case: "<name>.dgaptr".
std::string golden_file_name(const CanonicalCase& c);

// ---- Epoch-sequence cases ---------------------------------------------------
//
// A second registry for whole epoch STREAMS (sim/epoch.hpp): one case is
// an EpochProblem package plus an EpochConfig, and its golden artifact is
// the "DGEP" container of every epoch's warm-run transcript. The goldens
// live next to the single-run ones under tests/golden/ (same .dgaptr
// extension — tools sniff the magic), so the CI gate covers the churn +
// warm-start pipeline with the same re-execute-and-compare discipline.

struct EpochCase {
  std::string name;         // container label and golden file stem
  std::string description;  // one line for `dgap_trace list`
  std::function<EpochProblem()> problem;
  /// label is overwritten with `name`; transcripts are always captured at
  /// kPayloads when recording or verifying.
  EpochConfig config;
};

const std::vector<EpochCase>& epoch_cases();
const EpochCase* find_epoch_case(const std::string& name);

/// Re-execute the whole stream; returns the framed "DGEP" bytes.
std::vector<std::uint8_t> record_epoch_case(const EpochCase& c);

/// Re-execute the stream and compare byte-for-byte against `golden`;
/// throws (DGAP_ASSERT) naming the first divergent epoch and round.
void verify_epoch_case(const EpochCase& c,
                       std::span<const std::uint8_t> golden);

std::string golden_file_name(const EpochCase& c);

}  // namespace dgap
