// epochs_churn: the Section 1.1 stale-prediction scenario as a serving
// stream. One EpochHarness per problem (MIS, matching, coloring) evolves a
// sparse G(n, 8/n) instance at n = 8192 through 10 epochs of churn (2% of
// edges, 1% of nodes per epoch), capturing kPayloads transcripts of the
// warm runs. Each harness runs a cold pass (every job executes and fills
// the result cache) and then a hot pass (every job is a cache hit).
// Graph edits sit beside runs, cache fills beside cache reads, and
// transcript encoding is on.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "graph/edits.hpp"
#include "graph/spec.hpp"
#include "layers.hpp"
#include "predict/provider.hpp"
#include "sim/epoch.hpp"
#include "sim/result_cache.hpp"
#include "templates/epoch_problems.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kNodes = 8192;
constexpr int kEpochs = 10;

struct Stream {
  const char* name;
  dgap::EpochProblem (*make)();
};

constexpr Stream kStreams[] = {
    {"mis", &dgap::epoch_mis},
    {"matching", &dgap::epoch_matching},
    {"coloring", &dgap::epoch_coloring},
};

dgap::EpochConfig config_for(std::uint64_t seed, std::size_t stream,
                             bool traced) {
  dgap::EpochConfig config;
  config.base = dgap::GraphSpec::gnp_sparse(
      kNodes, 8.0 / kNodes, seed * 3 + stream,
      dgap::GraphSpec::IdPolicy::kRandomized);
  config.churn.seed = seed * 3 + stream + 1;
  config.churn.edge_remove_frac = 0.02;
  config.churn.edge_add_frac = 0.02;
  config.churn.node_remove_frac = 0.01;
  config.churn.node_add_frac = 0.01;
  config.epochs = kEpochs;
  config.options.num_threads = 1;
  config.options.profile_phases = traced;
  config.workers = 1;
  config.capture_transcripts = true;
  config.detail = dgap::TraceDetail::kPayloads;
  config.label = kStreams[stream].name;
  return config;
}

}  // namespace

Iteration run_epochs_churn(std::uint64_t seed, bool traced) {
  Iteration it;
  constexpr std::size_t kNumStreams = sizeof(kStreams) / sizeof(kStreams[0]);

  // Set-up: every instance the streams will serve — the base graph and its
  // churned versions, built exactly as the harness derives them. The
  // harness repeats this work inside its run (it owns its graphs); the
  // copies here are what the verification checks outputs against.
  std::vector<dgap::EpochConfig> configs;
  std::vector<std::vector<dgap::Graph>> graphs(kNumStreams);
  const auto setup0 = Clock::now();
  for (std::size_t s = 0; s < kNumStreams; ++s) {
    configs.push_back(config_for(seed, s, traced));
    std::vector<dgap::Graph>& versions = graphs[s];
    versions.push_back(configs[s].base.build());
    for (int k = 1; k < kEpochs; ++k) {
      const dgap::EditBatch batch = configs[s].churn.generate(versions.back(), k);
      versions.push_back(dgap::apply_edits(versions.back(), batch));
    }
  }
  it.setup_s = seconds_since(setup0);

  auto provide_clock = std::make_shared<LayerClock>();
  auto factory_clock = std::make_shared<LayerClock>();
  std::vector<dgap::EpochProblem> problems;
  for (const Stream& stream : kStreams) {
    dgap::EpochProblem p = stream.make();
    if (traced) {
      p.scratch = timed_provider(p.scratch, provide_clock);
      p.factory = [inner = p.factory, factory_clock] {
        return timed_factory(inner(), factory_clock);
      };
    }
    problems.push_back(std::move(p));
  }

  std::vector<dgap::EpochReport> cold(kNumStreams), hot(kNumStreams);
  std::vector<double> cold_s(kNumStreams), hot_s(kNumStreams);
  double cold_provide_factory_s = 0;  // decorator time inside cold passes
  const auto solve0 = Clock::now();
  for (std::size_t s = 0; s < kNumStreams; ++s) {
    dgap::EpochHarness harness(problems[s], configs[s]);
    const double clocks0 = provide_clock->seconds + factory_clock->seconds;
    auto t0 = Clock::now();
    cold[s] = harness.run();
    cold_s[s] = seconds_since(t0);
    cold_provide_factory_s +=
        provide_clock->seconds + factory_clock->seconds - clocks0;
    t0 = Clock::now();
    hot[s] = harness.run();
    hot_s[s] = seconds_since(t0);
  }
  it.solve_s = seconds_since(solve0);

  const auto check0 = Clock::now();
  std::vector<std::uint64_t> stream_sums;
  for (std::size_t s = 0; s < kNumStreams; ++s) {
    const dgap::EpochProblem& p = problems[s];
    const std::string stream = kStreams[s].name;
    const std::uint64_t cold_sum = dgap::epoch_report_checksum(cold[s]);
    stream_sums.push_back(cold_sum);
    if (dgap::epoch_report_checksum(hot[s]) != cold_sum) {
      it.fail(stream + ": hot pass differs from the cold pass");
    }
    // The control runs' error: the scratch prediction's η on each version
    // (from the undecorated provider, so verification stays off the clocks).
    const dgap::ProviderPtr scratch = kStreams[s].make().scratch;
    std::vector<int> scratch_eta;
    for (const dgap::Graph& g : graphs[s]) {
      scratch_eta.push_back(
          p.eta(g, dgap::provide_with_seed(*scratch, g, p.kind, 0)));
    }
    for (const dgap::EpochReport* report : {&cold[s], &hot[s]}) {
      if (report->epochs.size() != static_cast<std::size_t>(kEpochs)) {
        it.fail(stream + ": wrong epoch count");
        continue;
      }
      for (const dgap::EpochRecord& e : report->epochs) {
        const dgap::Graph& g = graphs[s][static_cast<std::size_t>(e.epoch)];
        const std::string where = stream + " epoch " + std::to_string(e.epoch);
        if (e.nodes != g.num_nodes() || e.edges != g.num_edges()) {
          it.fail(where + ": instance differs from the replayed edits");
          continue;
        }
        const std::pair<const dgap::RunResult*, int> runs[] = {
            {&e.warm, e.eta}, {&e.control, scratch_eta[e.epoch]}};
        for (const auto& [result, eta] : runs) {
          ++it.jobs;
          std::string error = check_solution(p.kind, g, *result);
          const int bound = p.degradation_bound(eta, g);
          if (error.empty() && result->rounds > bound) {
            error = std::to_string(result->rounds) + " rounds exceed the bound " +
                    std::to_string(bound) + " at eta " + std::to_string(eta);
          }
          if (!error.empty()) {
            it.fail(where + (result == &e.warm ? " warm: " : " control: ") +
                    error);
          }
        }
      }
    }
    for (const dgap::EpochRecord& e : cold[s].epochs) {
      it.rounds += e.warm.rounds + e.control.rounds;
      it.messages_sent += e.warm.messages_sent + e.control.messages_sent;
    }
  }
  it.checksum = dgap::fnv1a_bytes(
      {reinterpret_cast<const std::uint8_t*>(stream_sums.data()),
       stream_sums.size() * sizeof(std::uint64_t)});
  it.check_s = seconds_since(check0);

  if (traced) {
    auto& l = it.layers;
    double run_s = 0, peak_arena = 0, cold_total = 0, hot_total = 0;
    double cold_run_s = 0, eta_sum = 0, warm_started = 0;
    std::int64_t hits = 0, misses = 0;
    for (std::size_t s = 0; s < kNumStreams; ++s) {
      const std::string stream = kStreams[s].name;
      for (const dgap::EpochReport* report : {&cold[s], &hot[s]}) {
        hits += report->cache_hits;
        misses += report->cache_misses;
        for (const dgap::EpochRecord& e : report->epochs) {
          const std::pair<const dgap::RunResult*, bool> runs[] = {
              {&e.warm, e.warm_cache_hit}, {&e.control, e.control_cache_hit}};
          for (const auto& [result, hit] : runs) {
            if (hit) continue;  // a hit carries the original run's timings
            const double wall = result->wall_ms * 1e-3;
            run_s += wall;
            if (report == &cold[s]) cold_run_s += wall;
            l["engine.run_s." + stream] += wall;
            add_phases(l, "engine.phase.", result->phase_ns);
            add_phases(l, "engine.phase." + stream + ".", result->phase_ns);
            peak_arena = std::max(
                peak_arena, static_cast<double>(result->peak_arena_bytes) /
                                (1 << 20));
          }
        }
      }
      for (const dgap::EpochRecord& e : cold[s].epochs) {
        l["epoch.warm_rounds"] += e.warm.rounds;
        l["epoch.control_rounds"] += e.control.rounds;
        l["transcript.bytes"] += static_cast<double>(e.warm_transcript.size());
        if (e.epoch > 0) {
          eta_sum += e.eta;
          ++warm_started;
        }
      }
      l["epoch.cold_s." + stream] = cold_s[s];
      cold_total += cold_s[s];
      hot_total += hot_s[s];
    }
    l["graph.build_s"] = it.setup_s;
    l["predict.provide_s"] = provide_clock->seconds;
    l["predict.provide_calls"] = static_cast<double>(provide_clock->calls);
    l["engine.factory_s"] = factory_clock->seconds;
    l["engine.run_s"] = run_s;
    l["engine.peak_arena_mb"] = peak_arena;
    l["engine.msgs_per_s"] = static_cast<double>(it.messages_sent) / run_s;
    l["cache.hits"] = static_cast<double>(hits);
    l["cache.misses"] = static_cast<double>(misses);
    l["cache.hit_rate"] =
        hits + misses > 0 ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0;
    l["epoch.hot_s"] = hot_total;
    l["epoch.harness_s"] = cold_total - cold_run_s - cold_provide_factory_s;
    l["epoch.mean_eta"] = warm_started > 0 ? eta_sum / warm_started : 0.0;
    l["check.s"] = it.check_s;
    l["unattributed_s"] = it.solve_s - cold_total - hot_total;
  }
  return it;
}

}  // namespace perfbench
