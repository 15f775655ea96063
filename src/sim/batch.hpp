// Batch simulation runner: schedule whole sweeps across a worker pool.
//
// The paper's claims are verified by sweeps — thousands of small
// independent simulations over (n, error, cut-round) grids — where the
// engine's per-node sharding has nothing to chew on. The batch runner
// parallelizes across simulations instead: each job is one Engine (kept
// single-threaded; `num_threads` moves to the batch level), jobs are
// pulled off a shared counter by a persistent worker pool, and results
// come back in submission order regardless of completion order.
//
// Determinism contract: every deterministic RunResult field (everything
// except `wall_ms` and the capacity-dependent `peak_arena_bytes`) is
// bit-identical to running the same jobs serially in a loop, for any
// worker count and any submission order. The engine itself is
// deterministic per job, jobs share no mutable state (a job's factory
// must not either — every factory in this library derives per-node state
// from the context and explicit seeds), and results are keyed by
// submission index, so scheduling cannot leak into outputs.
// tests/batch_test.cpp pins this.
//
// run_all() is the one code path that turns a job into a run: cache
// lookup, prediction materialization, transcript capture, engine run and
// cache fill. The epoch harness (sim/epoch.hpp) runs on it too. A job
// gets its predictions only from a PredictionProvider; make_job wraps
// literal predictions in a literal_provider.
//
// Amortization: jobs given as GraphSpec are resolved through a keyed
// GraphCache (repeated-seed sweeps build each distinct instance once),
// and each worker slot owns one EngineScratch reused by every engine it
// runs, so arena/worklist capacity persists across jobs. A job that
// throws (DGAP_REQUIRE out of a program hook, say) fails only itself: its
// BatchResult carries the index and the exception text, other jobs run to
// completion. See docs/MODEL.md, "Batch execution model".
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/spec.hpp"
#include "predict/predictions.hpp"
#include "sim/engine.hpp"
#include "sim/result_cache.hpp"

namespace dgap {

/// One simulation to run: an instance (borrowed graph or cache-resolved
/// spec), the algorithm, an optional prediction provider, and engine
/// options. `options.num_threads` is forced to 1 inside a batch.
struct BatchJob {
  /// Borrowed; must outlive run_all(). When null, the runner resolves
  /// `spec` through its graph cache. A spec job (use_spec) is keyed by its
  /// spec, and its transcript header embeds it, either way.
  const Graph* graph = nullptr;
  GraphSpec spec;
  bool use_spec = false;
  ProgramFactory factory;
  EngineOptions options;
  /// Record this job's run as a binary transcript (sim/transcript.hpp);
  /// the bytes come back in BatchResult::transcript. Spec jobs embed their
  /// GraphSpec in the header, so the file is self-describing. Mutually
  /// exclusive with options.trace_sink (DGAP_REQUIRE at add()).
  bool capture_transcript = false;
  TraceDetail transcript_detail = TraceDetail::kPayloads;
  std::string transcript_label;
  /// Stable name of the algorithm `factory` builds (e.g. "mis/greedy").
  /// When non-empty, the job is CONTENT-ADDRESSED through the runner's
  /// ResultCache (sim/result_cache.hpp): an identical job — same instance,
  /// options, provider slot, algorithm id, transcript request (label
  /// included) — submitted in any later (or the same) batch is served
  /// from the cache without executing. The id is the caller's contract
  /// that equal ids mean equal per-node behavior. Incompatible with
  /// options.trace_sink (the sink would not fire on a hit; DGAP_REQUIRE
  /// at add()).
  std::string algorithm_id;
  /// The job's only source of predictions; null runs without any. The
  /// runner materializes provider->provide(graph, provider_kind,
  /// Rng(provider_seed)) in a serial pre-pass, and only for jobs that
  /// miss the cache: a content-addressed job is keyed by
  /// provider_slot_digest(*provider, kind, seed), so a HIT never pays for
  /// materialization at all. Literal predictions travel as a
  /// literal_provider (predict/provider.hpp); make_job wraps them.
  ProviderPtr provider;
  ProblemKind provider_kind = ProblemKind::kMis;
  std::uint64_t provider_seed = 0;
};

/// Job against an existing graph (borrowed; caller keeps it alive).
/// Non-empty `predictions` become the job's literal_provider; empty ones
/// mean no provider.
BatchJob make_job(const Graph& g, ProgramFactory factory,
                  Predictions predictions = {}, EngineOptions options = {});
/// Job against a spec, resolved through the runner's graph cache;
/// `predictions` as above.
BatchJob make_job(const GraphSpec& spec, ProgramFactory factory,
                  Predictions predictions = {}, EngineOptions options = {});

struct BatchResult {
  std::size_t index = 0;  // submission index; results arrive in this order
  bool ok = false;
  RunResult result;       // meaningful iff ok
  std::string error;      // exception text iff !ok
  /// Serialized transcript iff the job set capture_transcript and ran ok.
  /// Byte-identical across worker counts and submission schedules — the
  /// strongest determinism witness the runner offers (batch_test pins it).
  std::vector<std::uint8_t> transcript;
  /// True iff this job was served from the result cache. Served results
  /// are bit-identical to a recompute (the engine is deterministic), so
  /// this is observability, not semantics — wall_ms is the original
  /// run's, the only field a hit can "misreport".
  bool cache_hit = false;
};

struct BatchOptions {
  /// Parallel worker slots (>= 1). Slot 0 runs on the calling thread, so
  /// one worker means a plain serial loop with the amortization benefits.
  int num_workers = 1;
};

/// Persistent sweep executor: submit jobs with add(), execute with
/// run_all(). The worker pool and the per-slot scratch survive across
/// run_all() calls, and the graph cache survives with them, so repeated
/// sweeps (a bench's grid per table row, a test's cut sweep per instance)
/// amortize thread spawn, graph construction, and arena allocation.
/// Not thread-safe itself: submit and run from one thread.
class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  /// Queue a job; returns its submission index within the pending batch.
  std::size_t add(BatchJob job);
  std::size_t add(const Graph& g, ProgramFactory factory,
                  Predictions predictions = {}, EngineOptions options = {});
  std::size_t add(const GraphSpec& spec, ProgramFactory factory,
                  Predictions predictions = {}, EngineOptions options = {});

  std::size_t pending() const { return jobs_.size(); }

  /// Execute every pending job; results in submission order. Clears the
  /// pending list. Jobs that threw are reported, not rethrown.
  std::vector<BatchResult> run_all();

  /// The spec cache (shared across batches; exposed for pre-resolving a
  /// spec when predictions must be computed from the instance).
  GraphCache& graph_cache() { return cache_; }

  /// The content-addressed result cache serving jobs with an algorithm_id
  /// (shared across batches, like the graph cache). Hits and fills are
  /// both performed serially in submission order, so caching cannot leak
  /// worker scheduling into results.
  ResultCache& result_cache() { return results_; }

 private:
  BatchOptions options_;
  GraphCache cache_;
  ResultCache results_;
  std::vector<BatchJob> jobs_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<EngineScratch> scratch_;  // one per worker slot
};

/// One-shot convenience: run `jobs` on a temporary BatchRunner.
std::vector<BatchResult> run_batch(std::vector<BatchJob> jobs,
                                   BatchOptions options = {});

/// Unwrap successful results in submission order; throws std::runtime_error
/// naming the first failed job's index and error otherwise.
std::vector<RunResult> take_results(std::vector<BatchResult>&& results);

}  // namespace dgap
