// sweep_templates: the paper's experiment shape (Sections 7-8) run through
// BatchRunner with no algorithm_id, so every job executes. Seven templates
// × four perturbation levels × 48 small G(n, 8/n) instances, plus two
// slices: mis_simple_greedy under the message-reduction compiler, and a
// CONGEST slice under an enforced one-word link budget (kDefer, B = 1).
// The CONGEST slice runs mis_consecutive_congest on the same instances
// (its traffic fits the budget, so nothing defers) and its reference,
// congest_global_mis_algorithm, alone on 48 twelve-node graphs (its
// two-word records defer on every link).
// Per-job fixed costs dominate: providers, engine construction, per-round
// overhead, batch scheduling and the checkers.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "graph/spec.hpp"
#include "layers.hpp"
#include "mis/congest_global.hpp"
#include "sim/batch.hpp"
#include "templates/mis_with_predictions.hpp"
#include "templates/problems_with_predictions.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kNodes = 256;
constexpr int kInstances = 48;
constexpr std::int64_t kReferenceNodes = 12;
constexpr int kErrors[] = {0, 8, 32, kNodes / 4};
constexpr int kSliceErrors = 8;

struct Template {
  const char* name;
  dgap::ProgramFactory (*make)();
  dgap::ProblemKind kind;
};

constexpr Template kTemplates[] = {
    {"mis_simple_greedy", &dgap::mis_simple_greedy, dgap::ProblemKind::kMis},
    {"mis_consecutive_linial", &dgap::mis_consecutive_linial,
     dgap::ProblemKind::kMis},
    {"mis_parallel_linial", &dgap::mis_parallel_linial,
     dgap::ProblemKind::kMis},
    {"matching_simple_greedy", &dgap::matching_simple_greedy,
     dgap::ProblemKind::kMatching},
    {"matching_parallel_linegraph", &dgap::matching_parallel_linegraph,
     dgap::ProblemKind::kMatching},
    {"coloring_simple_greedy", &dgap::coloring_simple_greedy,
     dgap::ProblemKind::kColoring},
    {"coloring_parallel_linial", &dgap::coloring_parallel_linial,
     dgap::ProblemKind::kColoring},
};
constexpr int kNumTemplates = sizeof(kTemplates) / sizeof(kTemplates[0]);
// Slice ids follow the templates in JobMeta::group.
constexpr int kCompileSlice = kNumTemplates;
constexpr int kCongestSlice = kNumTemplates + 1;
constexpr int kCongestReference = kNumTemplates + 2;

struct JobMeta {
  int group;     // template index or one of the slice ids above
  int instance;  // index into the spec list
  dgap::ProblemKind kind;
};

const char* group_name(int group) {
  if (group == kCompileSlice) return "compile_slice";
  if (group == kCongestSlice) return "congest_slice";
  if (group == kCongestReference) return "congest_reference";
  return kTemplates[group].name;
}

}  // namespace

Iteration run_sweep_templates(std::uint64_t seed, bool traced) {
  Iteration it;
  std::vector<dgap::GraphSpec> specs;
  for (int i = 0; i < kInstances; ++i) {
    specs.push_back(dgap::GraphSpec::gnp_sparse(
        kNodes, 8.0 / kNodes, seed * 1000 + static_cast<std::uint64_t>(i),
        dgap::GraphSpec::IdPolicy::kRandomized));
  }
  for (int i = 0; i < kInstances; ++i) {
    specs.push_back(dgap::GraphSpec::gnp(
        kReferenceNodes, 0.3, seed * 1000 + 500 + static_cast<std::uint64_t>(i),
        dgap::GraphSpec::IdPolicy::kRandomized));
  }

  dgap::BatchRunner runner(dgap::BatchOptions{1});
  const auto setup0 = Clock::now();
  std::vector<std::shared_ptr<const dgap::Graph>> graphs;
  for (const dgap::GraphSpec& spec : specs) {
    graphs.push_back(runner.graph_cache().get(spec));
  }
  it.setup_s = seconds_since(setup0);

  auto provide_clock = std::make_shared<LayerClock>();
  auto factory_clock = std::make_shared<LayerClock>();
  auto provider_for = [&](int errors) {
    dgap::ProviderPtr p = dgap::perturbed_provider(errors);
    return traced ? timed_provider(std::move(p), provide_clock) : p;
  };
  auto factory_for = [&](dgap::ProgramFactory f) {
    return traced ? timed_factory(std::move(f), factory_clock) : f;
  };

  std::vector<JobMeta> meta;
  const auto solve0 = Clock::now();
  auto submit = [&](int group, int instance, dgap::ProblemKind kind,
                    const dgap::ProviderPtr& provider, int errors,
                    dgap::ProgramFactory factory,
                    const dgap::EngineOptions& options) {
    dgap::BatchJob job;
    job.spec = specs[static_cast<std::size_t>(instance)];
    job.use_spec = true;
    job.provider = provider;
    job.provider_kind = kind;
    job.provider_seed = seed * 7919 + static_cast<std::uint64_t>(instance) * 97 +
                        static_cast<std::uint64_t>(errors);
    job.factory = factory_for(std::move(factory));
    job.options = options;
    runner.add(std::move(job));
    meta.push_back({group, instance, kind});
  };
  dgap::EngineOptions plain;
  plain.num_threads = 1;
  plain.profile_phases = traced;
  for (int errors : kErrors) {
    const dgap::ProviderPtr provider = provider_for(errors);
    for (int t = 0; t < kNumTemplates; ++t) {
      for (int i = 0; i < kInstances; ++i) {
        submit(t, i, kTemplates[t].kind, provider, errors, kTemplates[t].make(),
               plain);
      }
    }
  }
  {
    const dgap::ProviderPtr provider = provider_for(kSliceErrors);
    dgap::EngineOptions compiled = plain;
    compiled.compile.cache_resends = true;
    compiled.compile.decode_defaults = true;
    dgap::EngineOptions congest = plain;
    congest.congest_policy = dgap::CongestPolicy::kDefer;
    congest.congest_word_limit = 1;
    for (int i = 0; i < kInstances; ++i) {
      submit(kCompileSlice, i, dgap::ProblemKind::kMis, provider, kSliceErrors,
             dgap::mis_simple_greedy(), compiled);
    }
    for (int i = 0; i < kInstances; ++i) {
      submit(kCongestSlice, i, dgap::ProblemKind::kMis, provider, kSliceErrors,
             dgap::mis_consecutive_congest(), congest);
    }
    for (int i = kInstances; i < 2 * kInstances; ++i) {
      submit(kCongestReference, i, dgap::ProblemKind::kMis, nullptr, 0,
             dgap::congest_global_mis_algorithm(), congest);
    }
  }
  const auto run_all0 = Clock::now();
  std::vector<dgap::BatchResult> results = runner.run_all();
  const double run_all_s = seconds_since(run_all0);
  it.solve_s = seconds_since(solve0);
  const std::int64_t graph_hits = runner.graph_cache().hits();
  const std::int64_t graph_misses = runner.graph_cache().misses();

  const auto check0 = Clock::now();
  std::vector<dgap::RunResult> runs;
  runs.reserve(results.size());
  for (std::size_t j = 0; j < results.size(); ++j) {
    dgap::BatchResult& r = results[j];
    const JobMeta& m = meta[j];
    ++it.jobs;
    const std::string error =
        r.ok ? check_solution(m.kind, *graphs[static_cast<std::size_t>(m.instance)],
                              r.result)
             : r.error;
    if (!error.empty()) {
      it.fail(std::string(group_name(m.group)) + " job " + std::to_string(j) +
              ": " + error);
    }
    it.rounds += r.result.rounds;
    it.messages_sent += r.result.messages_sent;
    runs.push_back(std::move(r.result));
  }
  it.checksum = dgap::results_checksum(runs);
  it.check_s = seconds_since(check0);

  if (traced) {
    auto& l = it.layers;
    double run_s = 0, peak_arena = 0;
    std::int64_t compile_total = 0, compile_suppressed = 0;
    for (std::size_t j = 0; j < runs.size(); ++j) {
      const dgap::RunResult& r = runs[j];
      const JobMeta& m = meta[j];
      run_s += r.wall_ms * 1e-3;
      l[std::string("engine.run_s.") + group_name(m.group)] += r.wall_ms * 1e-3;
      add_phases(l, "engine.phase.", r.phase_ns);
      peak_arena = std::max(peak_arena,
                            static_cast<double>(r.peak_arena_bytes) / (1 << 20));
      if (m.group == kCompileSlice) {
        compile_total += r.total_messages;
        compile_suppressed += r.messages_suppressed;
      }
      if (m.group == kCongestSlice || m.group == kCongestReference) {
        l["link.deferred_words"] += static_cast<double>(r.deferred_words);
        l["link.backlog_peak_words"] =
            std::max(l["link.backlog_peak_words"],
                     static_cast<double>(r.link_backlog_peak_words));
        l["link.rounds_with_backlog"] += static_cast<double>(r.rounds_with_backlog);
        l["link.congest_rounds"] += r.rounds;
      }
    }
    l["graph.build_s"] = it.setup_s;
    l["graph.cache_hits"] = static_cast<double>(graph_hits);
    l["graph.cache_misses"] = static_cast<double>(graph_misses);
    l["predict.provide_s"] = provide_clock->seconds;
    l["predict.provide_calls"] = static_cast<double>(provide_clock->calls);
    l["engine.factory_s"] = factory_clock->seconds;
    l["engine.run_s"] = run_s;
    l["engine.peak_arena_mb"] = peak_arena;
    l["engine.msgs_per_s"] = static_cast<double>(it.messages_sent) / run_s;
    l["compile.total_msgs"] = static_cast<double>(compile_total);
    l["compile.suppressed_msgs"] = static_cast<double>(compile_suppressed);
    l["compile.suppressed_frac"] =
        compile_total > 0 ? static_cast<double>(compile_suppressed) /
                                static_cast<double>(compile_total)
                          : 0.0;
    l["batch.run_all_s"] = run_all_s;
    l["batch.overhead_s"] = run_all_s - run_s - provide_clock->seconds -
                            factory_clock->seconds;
    l["check.s"] = it.check_s;
    l["unattributed_s"] = it.solve_s - run_all_s;
  }
  return it;
}

}  // namespace perfbench
