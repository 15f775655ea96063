#include "sim/batch.hpp"

#include <atomic>
#include <stdexcept>
#include <utility>

#include "common/require.hpp"
#include "sim/thread_pool.hpp"
#include "sim/transcript.hpp"

namespace dgap {

namespace {

BatchJob job_with(ProgramFactory factory, Predictions predictions,
                  EngineOptions options) {
  BatchJob job;
  if (predictions.has_node_values() || predictions.has_edge_values()) {
    job.provider = literal_provider(std::move(predictions));
  }
  job.factory = std::move(factory);
  job.options = options;
  return job;
}

}  // namespace

BatchJob make_job(const Graph& g, ProgramFactory factory,
                  Predictions predictions, EngineOptions options) {
  BatchJob job = job_with(std::move(factory), std::move(predictions), options);
  job.graph = &g;
  return job;
}

BatchJob make_job(const GraphSpec& spec, ProgramFactory factory,
                  Predictions predictions, EngineOptions options) {
  BatchJob job = job_with(std::move(factory), std::move(predictions), options);
  job.spec = spec;
  job.use_spec = true;
  return job;
}

BatchRunner::BatchRunner(BatchOptions options) : options_(options) {
  DGAP_REQUIRE(options_.num_workers >= 1, "num_workers must be >= 1");
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  scratch_.resize(static_cast<std::size_t>(pool_->num_slots()));
}

BatchRunner::~BatchRunner() = default;

std::size_t BatchRunner::add(BatchJob job) {
  DGAP_REQUIRE(job.factory != nullptr, "a batch job needs a program factory");
  DGAP_REQUIRE(job.graph != nullptr || job.use_spec,
               "a batch job needs a graph or a graph spec");
  DGAP_REQUIRE(!job.capture_transcript || job.options.trace_sink == nullptr,
               "capture_transcript installs its own trace sink; the job's "
               "options must not carry one");
  DGAP_REQUIRE(job.algorithm_id.empty() || job.options.trace_sink == nullptr,
               "a content-addressed job cannot carry a trace sink — the "
               "sink would not fire on a cache hit");
  jobs_.push_back(std::move(job));
  return jobs_.size() - 1;
}

std::size_t BatchRunner::add(const Graph& g, ProgramFactory factory,
                             Predictions predictions, EngineOptions options) {
  return add(make_job(g, std::move(factory), std::move(predictions), options));
}

std::size_t BatchRunner::add(const GraphSpec& spec, ProgramFactory factory,
                             Predictions predictions, EngineOptions options) {
  return add(
      make_job(spec, std::move(factory), std::move(predictions), options));
}

std::vector<BatchResult> BatchRunner::run_all() {
  const std::size_t count = jobs_.size();
  // Resolve every spec through the cache up front, serially: cache fills in
  // submission order, and workers then only read shared immutable graphs.
  // add() guarantees a job without a graph has a spec.
  std::vector<std::shared_ptr<const Graph>> resolved(count);
  std::vector<const Graph*> graphs(count);
  for (std::size_t i = 0; i < count; ++i) {
    graphs[i] = jobs_[i].graph;
    if (graphs[i] == nullptr) {
      resolved[i] = cache_.get(jobs_[i].spec);
      graphs[i] = resolved[i].get();
    }
  }

  std::vector<BatchResult> results(count);

  // Content addressing, serially and in submission order on both sides of
  // the pool: probe before dispatch (hits never reach a worker), fill
  // after the barrier (insertion order is the submission order, so the
  // cache's state after run_all is schedule-independent).
  std::vector<std::uint64_t> keys(count, 0);
  std::vector<std::uint8_t> cacheable(count, 0);
  std::vector<std::uint8_t> cached(count, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const BatchJob& job = jobs_[i];
    if (job.algorithm_id.empty()) continue;
    cacheable[i] = 1;
    const std::uint64_t instance =
        job.use_spec ? spec_digest(job.spec) : graph_digest(*graphs[i]);
    const std::uint64_t pred_slot =
        job.provider != nullptr
            ? provider_slot_digest(*job.provider, job.provider_kind,
                                   job.provider_seed)
            : 0;
    keys[i] = result_cache_key(instance, job.algorithm_id, pred_slot,
                               options_digest(job.options),
                               job.capture_transcript, job.transcript_detail,
                               job.transcript_label);
    if (auto entry = results_.get(keys[i])) {
      results[i].index = i;
      results[i].ok = true;
      results[i].cache_hit = true;
      results[i].result = entry->result;
      results[i].transcript = entry->transcript;
      cached[i] = 1;
    }
  }

  // Materialize provider predictions for the jobs that will actually
  // run, serially in submission order (providers are deterministic given
  // the seed, so this is reproducible regardless of worker count).
  std::vector<Predictions> predictions(count);
  for (std::size_t i = 0; i < count; ++i) {
    const BatchJob& job = jobs_[i];
    if (job.provider == nullptr || cached[i]) continue;
    predictions[i] = provide_with_seed(*job.provider, *graphs[i],
                                       job.provider_kind, job.provider_seed);
  }

  std::atomic<std::size_t> next{0};
  // Work-stealing counter over the persistent pool. Which worker runs
  // which job is timing-dependent; results are not: each job's engine is
  // deterministic and single-threaded, and results are keyed by
  // submission index. The pool's phase barrier makes the workers' writes
  // visible before run_all returns.
  pool_->run([&](int slot) {
    EngineScratch& scratch = scratch_[static_cast<std::size_t>(slot)];
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      if (cached[i]) continue;
      BatchJob& job = jobs_[i];
      BatchResult& out = results[i];
      out.index = i;
      EngineOptions options = job.options;
      options.num_threads = 1;  // parallelism lives at the batch level
      std::unique_ptr<TranscriptWriter> writer;
      if (job.capture_transcript) {
        writer = std::make_unique<TranscriptWriter>(
            job.transcript_detail, job.transcript_label,
            job.use_spec ? std::optional<GraphSpec>(job.spec)
                         : std::nullopt);
        options.trace_sink = writer.get();
      }
      try {
        Engine engine(*graphs[i], predictions[i], std::move(job.factory),
                      options, &scratch);
        out.result = engine.run();
        out.ok = true;
        if (writer) out.transcript = writer->take_bytes();
      } catch (const std::exception& e) {
        out.error = e.what();
      }
    }
  });
  for (std::size_t i = 0; i < count; ++i) {
    if (cacheable[i] && !cached[i] && results[i].ok) {
      results_.put(keys[i], results[i].result, results[i].transcript);
    }
  }
  jobs_.clear();
  return results;
}

std::vector<BatchResult> run_batch(std::vector<BatchJob> jobs,
                                   BatchOptions options) {
  BatchRunner runner(options);
  for (BatchJob& job : jobs) runner.add(std::move(job));
  return runner.run_all();
}

std::vector<RunResult> take_results(std::vector<BatchResult>&& results) {
  std::vector<RunResult> out;
  out.reserve(results.size());
  for (BatchResult& r : results) {
    if (!r.ok) {
      throw std::runtime_error("batch job " + std::to_string(r.index) +
                               " failed: " + r.error);
    }
    out.push_back(std::move(r.result));
  }
  return out;
}

}  // namespace dgap
