// Batch runner throughput — the sweep scheduler itself, not any paper
// experiment. Two sweeps with opposite amortization profiles:
//   * tradeoff: the E14 grid (line × flips × lambda) — many small engines
//     over a handful of pre-built graphs; measures pure scheduling
//     overhead and cross-simulation parallelism;
//   * cache: repeated-seed GNP specs — the serial baseline rebuilds the
//     graph per job, the runner resolves each distinct spec once through
//     the GraphCache.
// Every mode's results are checksummed and compared against the serial
// loop; a mismatch is a hard failure (nonzero exit) — the determinism
// contract is the point, the speedup is the bonus. `--json` writes
// BENCH_batch.json (wall ms, jobs/sec, speedup, checksum, hw_threads) so
// CI can diff serial-vs-batch checksums across PRs.
#include "bench_util.hpp"

#include <chrono>
#include <cinttypes>
#include <functional>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "mis/algorithms.hpp"
#include "predict/generators.hpp"
#include "sim/batch.hpp"
#include "templates/mis_with_predictions.hpp"

namespace {

using namespace dgap;
using namespace dgap::benchutil;

/// A sweep expressed re-runnably: `serial` executes the plain loop the
/// benches used to carry, `submit` queues the same jobs on a runner.
struct Sweep {
  std::string name;
  std::size_t jobs = 0;
  std::function<std::vector<RunResult>()> serial;
  std::function<void(BatchRunner&)> submit;
};

Sweep tradeoff_sweep() {
  // The E14 grid: two sorted lines, five error levels, four lambda knobs.
  auto graphs = std::make_shared<std::vector<Graph>>();
  auto preds = std::make_shared<std::vector<Predictions>>();
  auto rows = std::make_shared<std::vector<std::pair<std::size_t, std::pair<int, int>>>>();
  const std::vector<std::pair<int, int>> lambdas{{0, 1}, {1, 4}, {1, 2},
                                                 {1, 1}};
  Rng rng(99);
  graphs->reserve(2);
  for (NodeId n : {64, 128}) {
    Graph& g = graphs->emplace_back(make_line(n));
    sorted_ids(g);
    auto base = mis_correct_prediction(g, rng);
    for (int flips : {0, 2, 8, 24, n}) {
      auto pred = flips == n ? all_same(g, 1) : flip_bits(g, base, flips, rng);
      preds->push_back(std::move(pred));
      for (auto lambda : lambdas) {
        rows->push_back({preds->size() - 1, lambda});
      }
    }
  }
  Sweep sweep;
  sweep.name = "tradeoff";
  sweep.jobs = rows->size();
  auto graph_for = [graphs, preds](std::size_t pred_index) -> const Graph& {
    // Predictions 0..4 belong to the first line, 5..9 to the second.
    return (*graphs)[pred_index < 5 ? 0 : 1];
  };
  sweep.serial = [graphs, preds, rows, graph_for] {
    std::vector<RunResult> out;
    out.reserve(rows->size());
    for (const auto& [pi, lambda] : *rows) {
      out.push_back(run_with_predictions(
          graph_for(pi), (*preds)[pi],
          mis_consecutive_linial_lambda(lambda.first, lambda.second)));
    }
    return out;
  };
  sweep.submit = [graphs, preds, rows, graph_for](BatchRunner& runner) {
    for (const auto& [pi, lambda] : *rows) {
      runner.add(graph_for(pi),
                 mis_consecutive_linial_lambda(lambda.first, lambda.second),
                 (*preds)[pi]);
    }
  };
  return sweep;
}

Sweep cache_sweep() {
  // Eight distinct GNP instances, six runs each. The serial loop pays
  // 48 graph constructions; the runner's cache pays 8.
  auto specs = std::make_shared<std::vector<GraphSpec>>();
  for (int rep = 0; rep < 6; ++rep) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      specs->push_back(GraphSpec::gnp(200, 0.05, seed,
                                      GraphSpec::IdPolicy::kRandomized));
    }
  }
  Sweep sweep;
  sweep.name = "cache";
  sweep.jobs = specs->size();
  sweep.serial = [specs] {
    std::vector<RunResult> out;
    out.reserve(specs->size());
    for (const GraphSpec& spec : *specs) {
      const Graph g = spec.build();
      out.push_back(run_algorithm(g, greedy_mis_algorithm()));
    }
    return out;
  };
  sweep.submit = [specs](BatchRunner& runner) {
    for (const GraphSpec& spec : *specs) {
      runner.add(spec, greedy_mis_algorithm());
    }
  };
  return sweep;
}

double time_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Runs one sweep serially and at each worker count; returns false iff any
/// batch checksum diverges from the serial loop's.
bool run_sweep(const Sweep& sweep, int reps, Table& table, JsonRecorder& out) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<RunResult> serial_results;
  // Best-of-reps wall time per mode, single checksum per mode (every rep
  // must agree — the checksum is data, not timing).
  double serial_ms = 0;
  for (int r = 0; r < reps; ++r) {
    std::vector<RunResult> got;
    const double ms = time_ms([&] { got = sweep.serial(); });
    if (r == 0 || ms < serial_ms) serial_ms = ms;
    serial_results = std::move(got);
  }
  const std::uint64_t serial_sum = results_checksum(serial_results);

  auto report = [&](const char* mode, int workers, double probe, double ms,
                    std::uint64_t sum) {
    const double jps = ms > 0 ? 1000.0 * static_cast<double>(sweep.jobs) / ms : 0;
    const double speedup = ms > 0 ? serial_ms / ms : 0;
    const bool match = sum == serial_sum;
    table.print_row({sweep.name, mode, fmt(workers),
                     workers > 1 ? fmt(probe) : "-",
                     fmt(static_cast<int>(sweep.jobs)), fmt(ms), fmt(jps),
                     fmt(speedup), match ? "yes" : "NO"});
    out.begin_record();
    out.field("sweep", sweep.name);
    out.field("mode", mode);
    out.field("workers", workers);
    if (workers > 1) out.field("probe", probe);
    out.field("jobs", static_cast<std::int64_t>(sweep.jobs));
    out.field("wall_ms", ms);
    out.field("jobs_per_sec", jps);
    out.field("speedup_vs_serial", speedup);
    out.field("checksum", hex64(sum));
    out.field("checksum_matches_serial", static_cast<std::int64_t>(match));
    out.field("hw_threads", hw);
    return match;
  };

  bool ok = report("serial", 0, 0, serial_ms, serial_sum);
  for (int workers : {1, 2, 4}) {
    // A speedup is read next to the cores the host granted just before.
    const double probe = workers > 1 ? parallelism_probe() : 0;
    BatchRunner runner({workers});
    double best_ms = 0;
    std::uint64_t sum = 0;
    for (int r = 0; r < reps; ++r) {
      std::vector<RunResult> got;
      const double ms = time_ms([&] {
        sweep.submit(runner);
        got = take_results(runner.run_all());
      });
      if (r == 0 || ms < best_ms) best_ms = ms;
      const std::uint64_t s = results_checksum(got);
      DGAP_ASSERT(r == 0 || s == sum, "batch checksum varies across reps");
      sum = s;
    }
    ok = report("batch", workers, probe, best_ms, sum) && ok;
  }
  return ok;
}

bool run_all(bool json) {
  banner("BATCH",
         "Sweep throughput through the batch runner vs the serial loop. "
         "`match` asserts the batch checksum equals the serial one — "
         "bit-identical results for any worker count is the contract; "
         "speedup depends on the cores the host grants (probe = spin-loop "
         "speedup on 4 threads, taken before each multi-worker row).");
  Table table({"sweep", "mode", "workers", "probe", "jobs", "wall_ms",
               "jobs_per_s", "speedup", "match"});
  table.print_header();
  JsonRecorder out(json, "BENCH_batch.json");
  bool ok = run_sweep(tradeoff_sweep(), 3, table, out);
  ok = run_sweep(cache_sweep(), 3, table, out) && ok;
  out.finish();
  if (!ok) std::fprintf(stderr, "FATAL: batch checksum mismatch\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bool ok = run_all(dgap::benchutil::has_flag(argc, argv, "--json"));
  return ok ? 0 : 1;
}
