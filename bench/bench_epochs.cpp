// Dynamic-graph serving epochs — the Section 1.1 scenario measured.
//
// For each problem {MIS, matching, coloring} and a grid of churn rates,
// an EpochHarness evolves one G(n, p) instance through deterministic edit
// batches and runs the Simple-template algorithm every epoch twice: warm-
// started from the previous epoch's output and from scratch. The table
// reports amortized rounds/messages per epoch for both trajectories plus
// the mean prediction error η the warm starts incurred.
//
// Three hard checks (nonzero exit on failure):
//   * at the lowest churn rate every warm trajectory beats its
//     from-scratch control on amortized rounds — the paper's pitch;
//   * mean η is monotone non-decreasing in the churn rate — more churn,
//     staler predictions (the knob behaves);
//   * the epoch-report checksum is identical between batch execution
//     (workers = 2) and the inline serial path (workers = 0) — the
//     determinism contract across the two execution modes.
// A final pass measures the content-addressed result cache: the same
// stream re-run on a warm harness must be served entirely from the cache,
// and the cold/hot wall-clock ratio is recorded. `--json` writes
// BENCH_epochs.json with every row.
#include "bench_util.hpp"

#include <chrono>
#include <cinttypes>

#include "common/require.hpp"
#include "sim/epoch.hpp"
#include "templates/epoch_problems.hpp"

namespace {

using namespace dgap;
using namespace dgap::benchutil;

constexpr double kRates[] = {0.01, 0.05, 0.12, 0.25};

EpochProblem problem_of(int p) {
  switch (p) {
    case 0: return epoch_mis();
    case 1: return epoch_matching();
    default: return epoch_coloring();
  }
}

EpochConfig config_of(double rate, int workers) {
  EpochConfig config;
  config.base = GraphSpec::gnp(64, 0.06, 21);
  config.churn.seed = 4242;
  config.churn.edge_remove_frac = rate;
  config.churn.edge_add_frac = rate;
  config.churn.node_remove_frac = rate / 2;
  config.churn.node_add_frac = rate / 2;
  config.epochs = 8;
  config.workers = workers;
  return config;
}

double mean_eta(const EpochReport& report) {
  // Epoch 0 has no previous output — its (scratch) η says nothing about
  // warm-start quality, so the mean is over the warm-started epochs.
  if (report.epochs.size() <= 1) return 0;
  double total = 0;
  for (std::size_t k = 1; k < report.epochs.size(); ++k) {
    total += report.epochs[k].eta;
  }
  return total / static_cast<double>(report.epochs.size() - 1);
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

bool run_all(bool json) {
  banner("EPOCHS",
         "Warm-starting a template from its own previous output across "
         "churn epochs (Section 1.1's serving scenario). `warm_r` vs "
         "`ctrl_r` are amortized rounds per epoch with and without the "
         "warm start; at low churn warm must win (hard check). `match` "
         "asserts the batch (workers 2) and inline serial (workers 0) "
         "executions produce identical epoch reports.");
  Table table({"problem", "churn", "eta", "warm_r", "ctrl_r", "warm_msg",
               "ctrl_msg", "match"});
  table.print_header();
  JsonRecorder out(json, "BENCH_epochs.json");
  static const char* names[] = {"mis", "matching", "coloring"};
  bool ok = true;

  for (int p = 0; p < 3; ++p) {
    double low_warm = 0, low_ctrl = 0, prev_eta = -1;
    for (double rate : kRates) {
      EpochHarness batch(problem_of(p), config_of(rate, 2));
      const EpochReport report = batch.run();
      EpochHarness serial(problem_of(p), config_of(rate, 0));
      const EpochReport serial_report = serial.run();
      const std::uint64_t sum = epoch_report_checksum(report);
      const bool match = sum == epoch_report_checksum(serial_report);
      ok = ok && match;

      const double eta = mean_eta(report);
      const double warm_r = amortized_warm_rounds(report);
      const double ctrl_r = amortized_control_rounds(report);
      if (rate == kRates[0]) {
        low_warm = warm_r;
        low_ctrl = ctrl_r;
      }
      // More churn must not make the warm predictions better.
      if (prev_eta >= 0 && eta < prev_eta) {
        std::fprintf(stderr, "FATAL: %s mean eta fell from %.2f to %.2f as "
                     "churn rose to %.2f\n", names[p], prev_eta, eta, rate);
        ok = false;
      }
      prev_eta = eta;

      table.print_row({names[p], fmt(rate), fmt(eta), fmt(warm_r),
                       fmt(ctrl_r), fmt(amortized_warm_messages(report)),
                       fmt(amortized_control_messages(report)),
                       match ? "yes" : "NO"});
      out.begin_record();
      out.field("problem", names[p]);
      // Which PredictionProviders fed the two trajectories: the control
      // always runs on the problem's scratch provider; the warm runs use
      // the harness's warm_start_provider over the previous epoch.
      out.field("scratch_provider", problem_of(p).scratch->name());
      out.field("warm_provider", "warm_start");
      out.field("churn_rate", rate);
      out.field("epochs", config_of(rate, 2).epochs);
      out.field("mean_eta", eta);
      out.field("amortized_warm_rounds", warm_r);
      out.field("amortized_control_rounds", ctrl_r);
      out.field("amortized_warm_messages", amortized_warm_messages(report));
      out.field("amortized_control_messages",
                amortized_control_messages(report));
      out.field("checksum", hex64(sum));
      out.field("serial_matches_batch", static_cast<std::int64_t>(match));
    }
    if (!(low_warm < low_ctrl)) {
      std::fprintf(stderr,
                   "FATAL: %s warm start does not beat from-scratch at the "
                   "lowest churn rate (%.2f vs %.2f amortized rounds)\n",
                   names[p], low_warm, low_ctrl);
      ok = false;
    }
  }

  // Content-addressed cache: a second identical stream on the same
  // harness must execute nothing, and the hit path should be measurably
  // faster than the cold run.
  {
    EpochHarness harness(epoch_mis(), config_of(0.05, 2));
    EpochReport cold_report, hot_report;
    const double cold_ms = time_ms([&] { cold_report = harness.run(); });
    const double hot_ms = time_ms([&] { hot_report = harness.run(); });
    const bool all_hits = hot_report.cache_misses == 0;
    const bool identical = epoch_report_checksum(cold_report) ==
                           epoch_report_checksum(hot_report);
    ok = ok && all_hits && identical;
    const double speedup = hot_ms > 0 ? cold_ms / hot_ms : 0;
    std::printf("\ncache: cold %.2f ms, hot %.2f ms (speedup %.1fx, "
                "%lld hits, %lld misses, identical %s)\n",
                cold_ms, hot_ms, speedup,
                static_cast<long long>(hot_report.cache_hits),
                static_cast<long long>(hot_report.cache_misses),
                identical ? "yes" : "NO");
    out.begin_record();
    out.field("problem", "mis");
    out.field("mode", "result_cache");
    out.field("cold_ms", cold_ms);
    out.field("hot_ms", hot_ms);
    out.field("cache_speedup", speedup);
    out.field("hot_hits", cold_report.cache_hits + hot_report.cache_hits);
    out.field("hot_misses", hot_report.cache_misses);
    out.field("hit_path_identical", static_cast<std::int64_t>(identical));
  }

  out.finish();
  if (!ok) std::fprintf(stderr, "FATAL: epoch bench self-check failed\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bool ok = run_all(dgap::benchutil::has_flag(argc, argv, "--json"));
  return ok ? 0 : 1;
}
