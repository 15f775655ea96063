// Batch runner contract (docs/MODEL.md, "Batch execution model"):
//  * results are bit-identical to the serial loop for any worker count and
//    any submission order, keyed by submission index;
//  * the graph cache returns the same immutable Graph object for equal
//    specs;
//  * a throwing job fails alone, with its index and error reported;
//  * a shared engine scratch never changes results.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "mis/algorithms.hpp"
#include "mis/checkers.hpp"
#include "predict/generators.hpp"
#include "predict/provider.hpp"
#include "random/luby.hpp"
#include "sim/batch.hpp"
#include "sim/transcript.hpp"
#include "templates/mis_with_predictions.hpp"

namespace dgap {
namespace {

/// A job expressed re-runnably: the factory is re-created per execution so
/// the same job can be run serially and through batches repeatedly.
struct SweepCase {
  std::shared_ptr<const Graph> graph;
  Predictions pred;
  ProgramFactory (*make)();
  EngineOptions options;
};

std::vector<SweepCase> sweep_cases(GraphCache& cache) {
  std::vector<SweepCase> cases;
  ProgramFactory (*algos[])() = {&mis_simple_greedy, &mis_consecutive_gather,
                                 &mis_parallel_linial};
  const GraphSpec specs[] = {
      GraphSpec::line(24, GraphSpec::IdPolicy::kSorted),
      GraphSpec::gnp(20, 0.2, /*seed=*/7, GraphSpec::IdPolicy::kRandomized),
      GraphSpec::grid(5, 4),
  };
  int salt = 0;
  for (const GraphSpec& spec : specs) {
    auto g = cache.get(spec);
    Rng rng(100 + salt);
    auto base = mis_correct_prediction(*g, rng);
    for (int flips : {0, 3, 9}) {
      auto pred = flip_bits(*g, base, flips, rng);
      for (auto make : algos) {
        cases.push_back({g, pred, make, EngineOptions{}});
        ++salt;
      }
    }
  }
  return cases;
}

std::vector<RunResult> run_serially(const std::vector<SweepCase>& cases) {
  std::vector<RunResult> out;
  for (const SweepCase& c : cases) {
    out.push_back(
        run_with_predictions(*c.graph, c.pred, c.make(), c.options));
  }
  return out;
}

void expect_identical(const RunResult& a, const RunResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.outputs, b.outputs) << label;
  EXPECT_EQ(a.edge_outputs, b.edge_outputs) << label;
  EXPECT_EQ(a.termination_round, b.termination_round) << label;
  EXPECT_EQ(a.total_messages, b.total_messages) << label;
  EXPECT_EQ(a.total_words, b.total_words) << label;
  EXPECT_EQ(a.max_message_words, b.max_message_words) << label;
  EXPECT_EQ(a.congest_violations, b.congest_violations) << label;
  EXPECT_EQ(result_checksum(a), result_checksum(b)) << label;
}

TEST(Batch, BitIdenticalAcrossWorkerCounts) {
  GraphCache cache;
  const auto cases = sweep_cases(cache);
  const auto serial = run_serially(cases);
  for (int workers : {1, 2, 4}) {
    BatchRunner runner({workers});
    for (const SweepCase& c : cases) {
      runner.add(*c.graph, c.make(), c.pred, c.options);
    }
    auto batch = take_results(runner.run_all());
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_identical(serial[i], batch[i],
                       "workers=" + std::to_string(workers) + " job " +
                           std::to_string(i));
    }
    EXPECT_EQ(results_checksum(serial), results_checksum(batch));
  }
}

TEST(Batch, SubmissionOrderKeysResultsUnderShuffle) {
  GraphCache cache;
  const auto cases = sweep_cases(cache);
  const auto serial = run_serially(cases);
  std::vector<std::size_t> perm(cases.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  Rng rng(42);
  rng.shuffle(perm);

  BatchRunner runner({3});
  for (std::size_t p : perm) {
    const SweepCase& c = cases[p];
    runner.add(*c.graph, c.make(), c.pred, c.options);
  }
  auto shuffled = take_results(runner.run_all());
  ASSERT_EQ(shuffled.size(), serial.size());
  // Result slot i holds the i-th *submitted* job, i.e. original job
  // perm[i] — independent of completion order.
  for (std::size_t i = 0; i < perm.size(); ++i) {
    expect_identical(serial[perm[i]], shuffled[i],
                     "slot " + std::to_string(i));
  }
}

TEST(Batch, SpecJobsMatchBorrowedGraphJobs) {
  const auto spec =
      GraphSpec::gnp(18, 0.25, /*seed=*/3, GraphSpec::IdPolicy::kRandomized);
  const Graph g = spec.build();
  Rng rng(5);
  auto pred = flip_bits(g, mis_correct_prediction(g, rng), 4, rng);

  BatchRunner runner({2});
  runner.add(spec, mis_simple_greedy(), pred);
  runner.add(g, mis_simple_greedy(), pred);
  auto results = take_results(runner.run_all());
  expect_identical(results[0], results[1], "spec vs borrowed");
  EXPECT_TRUE(is_valid_mis(g, results[0].outputs));
}

TEST(Batch, LiteralPredictionsTravelAsALiteralProvider) {
  const Graph g = GraphSpec::gnp(18, 0.25, /*seed=*/3).build();
  Rng rng(5);
  const Predictions pred = mis_correct_prediction(g, rng);
  EXPECT_EQ(make_job(g, mis_simple_greedy()).provider, nullptr);
  EXPECT_EQ(make_job(g, mis_simple_greedy(), Predictions{}).provider, nullptr);
  const BatchJob job = make_job(g, mis_simple_greedy(), pred);
  ASSERT_NE(job.provider, nullptr);
  EXPECT_EQ(job.provider->digest(), literal_provider(pred)->digest());
  EXPECT_EQ(provide_with_seed(*job.provider, g, ProblemKind::kMis, 0)
                .node_values(),
            pred.node_values());
}

TEST(Batch, GraphCacheHitReturnsSameObject) {
  GraphCache cache;
  const auto spec = GraphSpec::gnp(30, 0.15, /*seed=*/11);
  auto first = cache.get(spec);
  auto second = cache.get(spec);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);

  // A different seed is a different instance.
  auto other = cache.get(GraphSpec::gnp(30, 0.15, /*seed=*/12));
  EXPECT_NE(first.get(), other.get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(Batch, RunnerResolvesRepeatedSpecsThroughCache) {
  BatchRunner runner({2});
  const auto spec = GraphSpec::line(16, GraphSpec::IdPolicy::kSorted);
  for (int i = 0; i < 6; ++i) runner.add(spec, greedy_mis_algorithm());
  auto results = take_results(runner.run_all());
  EXPECT_EQ(runner.graph_cache().misses(), 1);
  EXPECT_EQ(runner.graph_cache().hits(), 5);
  for (std::size_t i = 1; i < results.size(); ++i) {
    expect_identical(results[0], results[i], "job " + std::to_string(i));
  }
}

/// Terminates without assigning an output — DGAP_REQUIRE throws inside the
/// engine's receive phase.
struct TerminateWithoutOutput : NodeProgram {
  void on_send(NodeContext&) override {}
  void on_receive(NodeContext& ctx) override { ctx.terminate(); }
};

TEST(Batch, ThrowingJobFailsAloneWithIndexReported) {
  Graph g = make_ring(12);
  sorted_ids(g);
  BatchRunner runner({2});
  runner.add(g, greedy_mis_algorithm());
  runner.add(g, [](NodeId) -> std::unique_ptr<NodeProgram> {
    return std::make_unique<TerminateWithoutOutput>();
  });
  runner.add(g, greedy_mis_algorithm());
  auto results = runner.run_all();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_TRUE(results[2].ok);
  EXPECT_EQ(results[1].index, 1u);
  EXPECT_NE(results[1].error.find("terminates only after"),
            std::string::npos)
      << results[1].error;
  expect_identical(results[0].result, results[2].result, "surviving jobs");
  EXPECT_TRUE(is_valid_mis(g, results[0].result.outputs));

  // take_results surfaces the failure, naming the job.
  auto again = runner.run_all();  // empty batch is fine
  EXPECT_TRUE(again.empty());
  runner.add(g, [](NodeId) -> std::unique_ptr<NodeProgram> {
    return std::make_unique<TerminateWithoutOutput>();
  });
  EXPECT_THROW(take_results(runner.run_all()), std::runtime_error);
}

TEST(Batch, ScratchReuseAcrossEnginesIsBitIdentical) {
  // Big run, then a small run, on the same scratch: capacity persists,
  // results must not. The failed-run case exercises the mid-round-abort
  // invariant restore (nonzero recv counts, stale inbox stamps).
  Rng rng(17);
  Graph big = make_gnp(64, 0.15, rng);
  randomize_ids(big, rng);
  Graph small = make_line(10);
  sorted_ids(small);

  auto fresh_big = run_algorithm(big, luby_mis_algorithm(5));
  auto fresh_small = run_algorithm(small, greedy_mis_algorithm());

  EngineScratch scratch;
  {
    Engine e(big, empty_predictions(), luby_mis_algorithm(5), {}, &scratch);
    expect_identical(fresh_big, e.run(), "big on shared scratch");
  }
  {
    Engine e(small, empty_predictions(), greedy_mis_algorithm(), {}, &scratch);
    expect_identical(fresh_small, e.run(), "small after big");
  }
  {
    Engine e(small, empty_predictions(),
             [](NodeId) -> std::unique_ptr<NodeProgram> {
               return std::make_unique<TerminateWithoutOutput>();
             },
             {}, &scratch);
    EXPECT_THROW(e.run(), std::invalid_argument);
  }
  {
    Engine e(small, empty_predictions(), greedy_mis_algorithm(), {}, &scratch);
    expect_identical(fresh_small, e.run(), "small after aborted run");
  }
}

// Full-transcript capture: byte equality across worker counts, shuffled
// submission, and against a directly recorded serial run. Stronger than
// the checksum comparisons above — a transcript pins every delivered word
// of every round, so scheduling cannot leak into *any* observable, not
// just the aggregated RunResult fields.
TEST(Batch, CapturedTranscriptsAreSchedulingInvariant) {
  GraphCache cache;
  const auto cases = sweep_cases(cache);

  // Reference bytes: record each job serially, outside any batch.
  std::vector<std::vector<std::uint8_t>> reference;
  for (const SweepCase& c : cases) {
    EngineOptions opt = c.options;
    opt.num_threads = 1;
    reference.push_back(
        record_run(*c.graph, c.pred, c.make(), opt).transcript);
  }

  auto make_capture_job = [](const SweepCase& c) {
    BatchJob job = make_job(*c.graph, c.make(), c.pred, c.options);
    job.capture_transcript = true;
    return job;
  };

  for (int workers : {1, 2, 4}) {
    BatchRunner runner({workers});
    for (const SweepCase& c : cases) runner.add(make_capture_job(c));
    const auto results = runner.run_all();
    ASSERT_EQ(results.size(), cases.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok) << results[i].error;
      EXPECT_EQ(results[i].transcript, reference[i])
          << "workers=" << workers << " job " << i;
    }
  }

  // Shuffled submission: slot i's bytes are original job perm[i]'s bytes.
  std::vector<std::size_t> perm(cases.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  Rng rng(4242);
  rng.shuffle(perm);
  BatchRunner runner({3});
  for (std::size_t p : perm) runner.add(make_capture_job(cases[p]));
  const auto shuffled = runner.run_all();
  for (std::size_t i = 0; i < perm.size(); ++i) {
    ASSERT_TRUE(shuffled[i].ok) << shuffled[i].error;
    EXPECT_EQ(shuffled[i].transcript, reference[perm[i]])
        << "slot " << i;
  }
}

TEST(Batch, SpecJobsEmbedTheirSpecInTheTranscript) {
  const auto spec =
      GraphSpec::gnp(18, 0.25, /*seed=*/3, GraphSpec::IdPolicy::kRandomized);
  BatchRunner runner({2});
  BatchJob job = make_job(spec, luby_mis_algorithm(5));
  job.capture_transcript = true;
  job.transcript_label = "spec_job";
  runner.add(std::move(job));
  const auto results = runner.run_all();
  ASSERT_TRUE(results[0].ok) << results[0].error;
  const Transcript t = decode_transcript(results[0].transcript);
  EXPECT_EQ(t.label, "spec_job");
  ASSERT_TRUE(t.spec.has_value());
  EXPECT_EQ(*t.spec, spec);
  EXPECT_EQ(t.n, runner.graph_cache().get(spec)->num_nodes());
  EXPECT_TRUE(t.summary.completed);
}

TEST(Batch, CaptureRejectsJobsWithTheirOwnSink) {
  Graph g = make_ring(8);
  TranscriptWriter writer;
  BatchJob job = make_job(g, greedy_mis_algorithm());
  job.capture_transcript = true;
  job.options.trace_sink = &writer;
  BatchRunner runner({1});
  EXPECT_THROW(runner.add(std::move(job)), std::invalid_argument);
}

TEST(Batch, JobNumThreadsIsForcedSingleThreaded) {
  // num_threads moves to the batch level: a job asking for 4 engine
  // threads still runs (single-threaded) and still matches the serial
  // single-threaded result bit for bit.
  Graph g = make_ring(30);
  sorted_ids(g);
  auto serial = run_algorithm(g, greedy_mis_algorithm());
  BatchRunner runner({2});
  EngineOptions opt;
  opt.num_threads = 4;
  runner.add(g, greedy_mis_algorithm(), Predictions{}, opt);
  auto results = take_results(runner.run_all());
  expect_identical(serial, results[0], "forced single-threaded");
}

TEST(Batch, ResultCacheKeySeparatesCompileOptions) {
  // A compiled job must never be served an uncompiled job's result: its
  // wire counters differ.
  const auto job_with = [](CompileOptions compile) {
    BatchJob job;
    job.spec = GraphSpec::gnp_sparse(256, 8.0 / 256, /*seed=*/5);
    job.use_spec = true;
    job.factory = mis_simple_greedy();
    job.provider = perturbed_provider(8);
    job.provider_kind = ProblemKind::kMis;
    job.provider_seed = 3;
    job.algorithm_id = "mis_simple_greedy";
    job.options.compile = compile;
    return job;
  };
  CompileOptions compiled;
  compiled.cache_resends = true;
  compiled.decode_defaults = true;
  const RunResult want = run_batch({job_with(compiled)})[0].result;
  ASSERT_GT(want.messages_suppressed, 0);

  BatchRunner runner;
  runner.add(job_with({}));
  ASSERT_TRUE(runner.run_all()[0].ok);
  runner.add(job_with(compiled));
  const BatchResult second = runner.run_all()[0];
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(second.result.messages_sent, want.messages_sent);
  EXPECT_EQ(second.result.messages_suppressed, want.messages_suppressed);
  runner.add(job_with(compiled));
  const BatchResult third = runner.run_all()[0];
  EXPECT_TRUE(third.cache_hit);
  EXPECT_EQ(third.result.messages_suppressed, want.messages_suppressed);
}

TEST(Batch, OptionsDigestCoversExactlyTheResultOptions) {
  // Each option that can change a result moves the digest on its own.
  const EngineOptions base;
  const std::uint64_t base_digest = options_digest(base);
  std::vector<EngineOptions> semantic(5, base);
  semantic[0].max_rounds = base.max_rounds - 1;
  semantic[1].congest_word_limit = 4;
  semantic[2].congest_policy = CongestPolicy::kDefer;
  semantic[3].compile.cache_resends = true;
  semantic[4].compile.decode_defaults = true;
  std::set<std::uint64_t> digests = {base_digest};
  for (const EngineOptions& options : semantic) {
    digests.insert(options_digest(options));
  }
  EXPECT_EQ(digests.size(), semantic.size() + 1);

  // Execution knobs never do: a key names the logical run.
  TraceSink sink;
  std::vector<EngineOptions> execution(3, base);
  execution[0].num_threads = 4;
  execution[1].profile_phases = true;
  execution[2].trace_sink = &sink;
  for (const EngineOptions& options : execution) {
    EXPECT_EQ(options_digest(options), base_digest);
  }
}

}  // namespace
}  // namespace dgap
