// Content-addressed result cache: repeated jobs are hits, not reruns.
//
// The engine is deterministic, so a simulation's RunResult (and its
// transcript) is a pure function of (instance, algorithm, predictions,
// semantic engine options). A job whose algorithm is named by a stable
// string id can therefore be CONTENT-ADDRESSED: its key is a digest of
// those inputs, and a sweep that re-submits an identical job — across
// batches, epochs (sim/epoch.hpp), or repeated bench passes — gets the
// stored result back without running anything. This layers on GraphCache
// (graph/spec.hpp): the spec cache de-duplicates instance CONSTRUCTION,
// the result cache de-duplicates EXECUTION.
//
// Keys and the guard never leave the process, so they use the word-wide
// WordDigest of common/digest.hpp; they are deterministic within a build
// and pinned nowhere. The checksums below that benches, CI and files pin
// (fnv1a_bytes, result_checksum, results_checksum, predictions_digest)
// stay byte-exact FNV-1a.
//
// Keys never hash a ProgramFactory (std::function is opaque); the
// algorithm id string is the caller's contract that equal ids mean equal
// per-node behavior. Execution knobs (num_threads, worker counts, trace
// sinks) are excluded from digests, exactly like the transcript header —
// a key names the logical run. Everything that can change a result is
// in, the compile options too: a compiled run reports different wire
// counters. Whether a transcript was captured IS part of the key, and so
// are a captured transcript's detail and label (the label is written into
// its header), so a hit always carries the artifacts the job asked for.
// An uncaptured job's key ignores both.
//
// Poisoning guard: every entry stores a digest of its own payload at
// put() time — every transcript byte and every field result_checksum
// covers — and get() re-derives it, so a mutated entry fails with
// DGAP_ASSERT instead of silently serving corrupt results
// (tests/epoch_test.cpp pins this).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "common/digest.hpp"
#include "graph/spec.hpp"
#include "predict/predictions.hpp"
#include "predict/provider.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace dgap {

// ---- Pinned checksums (byte-exact FNV-1a) ---------------------------------

/// FNV-1a checksum over the deterministic fields of a result (everything
/// reproducible from (graph, predictions, factory, options): rounds,
/// outputs, termination rounds, message/word/link counters — excluding
/// wall_ms and peak_arena_bytes). Equal checksums across serial and batch
/// executions are the cheap bit-identity witness benches and CI diff.
std::uint64_t result_checksum(const RunResult& result);
std::uint64_t results_checksum(std::span<const RunResult> results);

/// Digest of a materialized prediction vector. Byte-exact FNV-1a because
/// tests pin it; cache keys hash a provider_slot_digest instead.
std::uint64_t predictions_digest(const Predictions& pred);

// ---- In-process digests (WordDigest) over the cache key's components -------

/// Structural digest: n, id bound, identifiers, CSR offsets and adjacency.
/// Two graphs with equal digests are equal up to hash collision; mutated
/// (non-spec-built) graphs get their key component from this.
std::uint64_t graph_digest(const Graph& g);

/// Digest of a spec's fields — cheaper than building + graph_digest, and
/// equal specs name bit-identical graphs by construction.
std::uint64_t spec_digest(const GraphSpec& spec);

/// The predictions slot of a provider-addressed key: instead of hashing a
/// materialized prediction vector, hash the provider's own digest plus
/// the (kind, seed) it will be asked with. Sound because the provider
/// digest contract (predict/provider.hpp) promises equal digests ⇒ equal
/// provide() output for every (graph, kind, seed) — and the graph is
/// already keyed by the instance digest next to this slot.
std::uint64_t provider_slot_digest(const PredictionProvider& provider,
                                   ProblemKind kind, std::uint64_t seed);

/// Semantic options only: max_rounds, congest budget/policy and the
/// compile options. num_threads, profile_phases and trace_sink are
/// execution knobs and excluded.
std::uint64_t options_digest(const EngineOptions& options);

/// The content address of one job. `instance_digest` is spec_digest() or
/// graph_digest(); `predictions_slot` is provider_slot_digest(), or 0 for
/// a job without predictions; `capture`/`detail`/`label` describe the
/// transcript request (detail and label count only when capturing).
std::uint64_t result_cache_key(std::uint64_t instance_digest,
                               std::string_view algorithm_id,
                               std::uint64_t predictions_slot,
                               std::uint64_t options_digest,
                               bool capture = false,
                               TraceDetail detail = TraceDetail::kPayloads,
                               std::string_view label = {});

// ---- The cache ------------------------------------------------------------

class ResultCache {
 public:
  struct Entry {
    RunResult result;
    /// Serialized transcript iff the cached job captured one.
    std::vector<std::uint8_t> transcript;
  };

  /// The entry for `key`, or null on a miss. Re-derives the entry's
  /// payload checksum and DGAP_ASSERTs it — a poisoned entry throws.
  std::shared_ptr<const Entry> get(std::uint64_t key);

  /// Store a result (first write wins; a duplicate put is a no-op, which
  /// keeps batch fills deterministic regardless of in-batch duplicates).
  void put(std::uint64_t key, RunResult result,
           std::vector<std::uint8_t> transcript = {});

  std::size_t size() const;
  std::int64_t hits() const;
  std::int64_t misses() const;
  void clear();

  /// Test hook: apply `mutate` to the stored entry in place, as a stray
  /// write would, so the next get() trips the poisoning guard. Requires
  /// the key to be present.
  void poison_for_test(std::uint64_t key,
                       const std::function<void(Entry&)>& mutate);

 private:
  struct Stored {
    std::shared_ptr<Entry> entry;
    std::uint64_t guard = 0;  // payload digest at put() time
  };
  static std::uint64_t guard_of(const Entry& e);

  mutable std::mutex mu_;
  std::map<std::uint64_t, Stored> entries_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace dgap
