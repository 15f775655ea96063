// Self-test of the outside-in timing helpers: decorating a job's provider
// and factory must not change what the job computes or how it is keyed.
//
//   ctest --test-dir .bench_build/perfbench   (after python3 perfbench/run.py)
#include <cstdio>
#include <cstdlib>

#include "graph/spec.hpp"
#include "layers.hpp"
#include "sim/batch.hpp"
#include "sim/result_cache.hpp"
#include "templates/mis_with_predictions.hpp"
#include "templates/problems_with_predictions.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

dgap::BatchJob job_for(const dgap::GraphSpec& spec, dgap::ProviderPtr provider,
                       dgap::ProgramFactory factory, dgap::ProblemKind kind) {
  dgap::BatchJob job;
  job.spec = spec;
  job.use_spec = true;
  job.provider = std::move(provider);
  job.provider_kind = kind;
  job.provider_seed = 11;
  job.factory = std::move(factory);
  return job;
}

}  // namespace

int main() {
  const dgap::GraphSpec spec = dgap::GraphSpec::gnp_sparse(
      128, 8.0 / 128, 5, dgap::GraphSpec::IdPolicy::kRandomized);
  auto provide_clock = std::make_shared<LayerClock>();
  auto factory_clock = std::make_shared<LayerClock>();

  struct Case {
    dgap::ProgramFactory (*make)();
    dgap::ProblemKind kind;
  };
  const Case cases[] = {
      {&dgap::mis_simple_greedy, dgap::ProblemKind::kMis},
      {&dgap::matching_simple_greedy, dgap::ProblemKind::kMatching},
      {&dgap::coloring_parallel_linial, dgap::ProblemKind::kColoring},
  };
  for (const Case& c : cases) {
    const dgap::ProviderPtr raw = dgap::perturbed_provider(8);
    const dgap::ProviderPtr timed = timed_provider(raw, provide_clock);
    expect(timed->name() == raw->name(), "decorator forwards name()");
    expect(timed->digest() == raw->digest(), "decorator forwards digest()");
    expect(dgap::provider_slot_digest(*timed, c.kind, 11) ==
               dgap::provider_slot_digest(*raw, c.kind, 11),
           "decorated provider keys the result cache identically");

    dgap::BatchRunner runner(dgap::BatchOptions{1});
    runner.add(job_for(spec, raw, c.make(), c.kind));
    runner.add(job_for(spec, timed, timed_factory(c.make(), factory_clock),
                       c.kind));
    const std::vector<dgap::BatchResult> results = runner.run_all();
    expect(results[0].ok && results[1].ok, "both jobs run");
    expect(dgap::result_checksum(results[0].result) ==
               dgap::result_checksum(results[1].result),
           "decorated job's result_checksum equals the undecorated one's");
    const dgap::Graph& g = *runner.graph_cache().get(spec);
    expect(check_solution(c.kind, g, results[1].result).empty(),
           "decorated job's output is valid");
  }
  expect(provide_clock->calls == 3, "provider decorator counted every call");
  expect(factory_clock->calls == 3 * 128,
         "factory wrapper counted one call per node");

  if (failures == 0) std::printf("perfbench_layers_test: ok\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
