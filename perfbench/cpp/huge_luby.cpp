// huge_luby: one sparse G(n, 8/n) instance at n = 10^6 with random
// identifiers, solved by Luby's MIS. Graph build, engine construction and
// the broadcast message plane (send / scatter / receive) do almost all the
// work; predictions, batch, caches and transcripts do none.
#include <string>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "layers.hpp"
#include "random/luby.hpp"
#include "sim/batch.hpp"

namespace perfbench {

namespace {

constexpr dgap::NodeId kNodes = 1'000'000;
constexpr double kAverageDegree = 8.0;
constexpr std::uint64_t kLubySeed = 42;

}  // namespace

Iteration run_huge_luby(std::uint64_t seed, bool traced) {
  Iteration it;

  const double rss_before = vm_rss_mb();
  const auto setup0 = Clock::now();
  dgap::Rng rng(seed);
  dgap::Graph g = dgap::make_gnp_sparse(kNodes, kAverageDegree / kNodes, rng,
                                        /*num_threads=*/1);
  dgap::randomize_ids(g, rng);
  it.setup_s = seconds_since(setup0);
  const double rss_after = vm_rss_mb();

  dgap::EngineOptions options;
  options.num_threads = 1;
  options.profile_phases = traced;
  auto factory_clock = std::make_shared<LayerClock>();
  dgap::ProgramFactory factory = dgap::luby_mis_algorithm(kLubySeed);
  if (traced) factory = timed_factory(std::move(factory), factory_clock);

  // solve_s = construction + run + teardown: what run_algorithm() costs.
  dgap::RunResult result;
  double construct_s = 0, run_s = 0;
  const auto solve0 = Clock::now();
  auto teardown0 = solve0;
  {
    dgap::Engine engine(g, dgap::empty_predictions(), std::move(factory),
                        options);
    construct_s = seconds_since(solve0);
    const auto run0 = Clock::now();
    result = engine.run();
    run_s = seconds_since(run0);
    teardown0 = Clock::now();
  }
  const double teardown_s = seconds_since(teardown0);
  it.solve_s = seconds_since(solve0);

  const auto check0 = Clock::now();
  it.jobs = 1;
  const std::string error = check_solution(dgap::ProblemKind::kMis, g, result);
  if (!error.empty()) it.fail("luby: " + error);
  it.rounds = result.rounds;
  it.messages_sent = result.messages_sent;
  it.checksum = dgap::result_checksum(result);
  it.check_s = seconds_since(check0);

  if (traced) {
    auto& l = it.layers;
    l["graph.build_s"] = it.setup_s;
    l["graph.rss_delta_mb"] = rss_after - rss_before;
    l["engine.construct_s"] = construct_s;
    l["engine.factory_s"] = factory_clock->seconds;
    l["engine.run_s"] = result.wall_ms * 1e-3;
    l["engine.teardown_s"] = teardown_s;
    add_phases(l, "engine.phase.", result.phase_ns);
    l["engine.peak_arena_mb"] =
        static_cast<double>(result.peak_arena_bytes) / (1 << 20);
    l["engine.msgs_per_s"] = static_cast<double>(result.messages_sent) / run_s;
    l["check.s"] = it.check_s;
    l["unattributed_s"] = it.solve_s - construct_s - run_s - teardown_s;
    l["build_construct_share"] =
        (it.setup_s + construct_s) / (it.setup_s + it.solve_s);
  }
  return it;
}

}  // namespace perfbench
