// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--commit SHA]
//
// Runs iterations of one workload (huge_luby, sweep_templates,
// epochs_churn) until S seconds have passed and at least kMinIterations
// have run, verifies every job, and prints, in order: one line per
// iteration, a {"host": ...} line, a {"detail": ...} line with every
// metric the run measured, and as the last line the result object
// {"correct", "attempted", "failed", "metrics"}.
//
// --trace 0 reports the end-to-end metrics (medians over iterations).
// --trace 1 alternates traced and untraced iterations and reports the
// per-layer metrics (medians over the traced ones) plus the tracing
// overhead: traced solve_s against untraced solve_s.
//
// Every iteration of a run uses the same seed, so its determinism witness
// (checksum) must repeat; an iteration whose checksum differs from the
// first one's counts all its jobs as failed.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "layers.hpp"

namespace {

using namespace perfbench;

constexpr std::size_t kMinIterations = 3;
constexpr std::size_t kMinTracedIterations = 2;

const Workload kWorkloads[] = {
    {"huge_luby", "outputs_digest", &run_huge_luby},
    {"sweep_templates", "results_checksum", &run_sweep_templates},
    {"epochs_churn", "epoch_report_checksum", &run_epochs_churn},
};

struct Metric {
  const char* name;
  const char* unit;
};

// The per-layer metrics of the --trace 1 result line (BENCHMARK.json's
// "per_layer" list; run.py checks that the two agree). Layer times that
// are structurally zero on some workload (predict.provide_s on huge_luby,
// epoch.* outside epochs_churn, ...) are printed in the detail line only.
constexpr Metric kPerLayer[] = {
    {"graph.build_s", "s"},
    {"graph.rss_delta_mb", "MB"},
    {"graph.cache_hits", "count"},
    {"graph.cache_misses", "count"},
    {"predict.provide_calls", "count"},
    {"engine.factory_s", "s"},
    {"engine.run_s", "s"},
    {"engine.phase.send_s", "s"},
    {"engine.phase.scatter_s", "s"},
    {"engine.phase.receive_s", "s"},
    {"engine.phase.mutate_s", "s"},
    {"engine.peak_arena_mb", "MB"},
    {"engine.msgs_per_s", "1/s"},
    {"compile.suppressed_frac", "frac"},
    {"link.deferred_words", "count"},
    {"link.backlog_peak_words", "count"},
    {"link.rounds_with_backlog", "count"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_rate", "frac"},
    {"epoch.warm_rounds", "count"},
    {"epoch.control_rounds", "count"},
    {"epoch.mean_eta", "count"},
    {"transcript.bytes", "bytes"},
    {"check.s", "s"},
    {"unattributed_s", "s"},
    {"trace_overhead", "frac"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "huge_luby|sweep_templates|epochs_churn --seed N --seconds S "
               "--trace 0|1 [--commit SHA]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds takes a number > 0");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.trace = value[0] == '1';
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

struct Summary {
  double median = 0, min = 0, max = 0;
  std::size_t n = 0;
};

Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  s.median = median(v);
  s.min = *std::min_element(v.begin(), v.end());
  s.max = *std::max_element(v.begin(), v.end());
  return s;
}

// ---- JSON output -----------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string json_summary(const Summary& s) {
  return "{\"median\": " + json_number(s.median) +
         ", \"min\": " + json_number(s.min) + ", \"max\": " +
         json_number(s.max) + ", \"n\": " + std::to_string(s.n) + "}";
}

/// A ~50 ms single-threaded spin: a fixed multiply-add chain whose wall
/// time reveals a throttled or oversubscribed CPU. Recorded, never gated.
double spin_probe_ms() {
  constexpr std::uint64_t kSteps = 40'000'000;
  const auto t0 = Clock::now();
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  const double ms = seconds_since(t0) * 1e3;
  // Keep the chain observable so it cannot be folded away.
  if (x == 0) std::fprintf(stderr, "spin probe: degenerate chain\n");
  return ms;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int cpus_allowed() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  return CPU_COUNT(&set);
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __VERSION__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = __VERSION__;
#endif

void print_host(const Args& args, double probe_ms) {
  const char* tunables = std::getenv("GLIBC_TUNABLES");
  std::printf(
      "{\"host\": {\"nproc\": %u, \"cpus_allowed\": %d, \"build_type\": %s, "
      "\"compiler\": %s, \"commit\": %s, \"malloc_tunables\": %s, "
      "\"spin_probe_ms\": %s}}\n",
      std::thread::hardware_concurrency(), cpus_allowed(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(kCompiler).c_str(), json_string(args.commit).c_str(),
      json_string(tunables ? tunables : "").c_str(),
      json_number(probe_ms).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage(("unknown workload " + args.workload).c_str());

  const double probe_ms = spin_probe_ms();
  std::vector<Iteration> plain, traced;
  std::int64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  bool have_reference = false;
  std::uint64_t reference = 0;

  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    // In a traced run, traced iterations go first and alternate with
    // untraced ones, so both see the same host conditions.
    const bool trace_this = args.trace && i % 2 == 0;
    Iteration it;
    const double cpu0 = process_cpu_s();
    const auto wall0 = Clock::now();
    try {
      it = workload->run(args.seed, trace_this);
    } catch (const std::exception& e) {
      ++attempted;
      ++failed;
      failures.push_back(std::string("iteration threw: ") + e.what());
      break;
    }
    if (!have_reference) {
      reference = it.checksum;
      have_reference = true;
    } else if (it.checksum != reference) {
      it.fail("checksum " + hex64(it.checksum) + " differs from " +
              hex64(reference));
      it.failed = it.jobs;
    }
    attempted += it.jobs;
    failed += it.failed;
    for (const std::string& f : it.failures) {
      if (failures.size() < 16) failures.push_back(f);
    }
    // CPU time over wall time of the iteration: below 1 means the process
    // waited for a CPU (descheduled), which a reader should know.
    const double cpu_share = (process_cpu_s() - cpu0) / seconds_since(wall0);
    std::printf("%s iter %zu %s: setup %.4f s, solve %.4f s, check %.4f s, "
                "cpu/wall %.3f, jobs %" PRId64 ", failed %" PRId64
                ", rounds %" PRId64 ", messages_sent %" PRId64 ", %s %s\n",
                workload->name, i, trace_this ? "traced" : "plain", it.setup_s,
                it.solve_s, it.check_s, cpu_share, it.jobs, it.failed, it.rounds,
                it.messages_sent, workload->checksum_name,
                hex64(it.checksum).c_str());
    std::fflush(stdout);
    (trace_this ? traced : plain).push_back(std::move(it));
    const bool enough =
        plain.size() >= (args.trace ? kMinTracedIterations : kMinIterations) &&
        (!args.trace || traced.size() >= kMinTracedIterations);
    if (enough && seconds_since(start) >= args.seconds) break;
  }
  print_host(args, probe_ms);

  // End-to-end metrics, always from the untraced iterations.
  std::vector<double> setup, solve, rate;
  for (const Iteration& it : plain) {
    setup.push_back(it.setup_s);
    solve.push_back(it.solve_s);
    rate.push_back(static_cast<double>(it.jobs) / it.solve_s);
  }
  const Iteration* first = !plain.empty() ? &plain.front()
                           : !traced.empty() ? &traced.front()
                                             : nullptr;
  const double rounds = first ? static_cast<double>(first->rounds) : 0;
  const double messages = first ? static_cast<double>(first->messages_sent) : 0;
  const double pass_rate =
      attempted > 0 ? static_cast<double>(attempted - failed) /
                          static_cast<double>(attempted)
                    : 0;
  const std::map<std::string, std::pair<double, const char*>> e2e = {
      {"setup_s", {median(setup), "s"}},
      {"solve_s", {median(solve), "s"}},
      {"jobs_per_s", {median(rate), "1/s"}},
      {"peak_rss_mb", {vm_hwm_mb(), "MB"}},
      {"rounds", {rounds, "count"}},
      {"messages_sent", {messages, "count"}},
      {"pass_rate", {pass_rate, "frac"}},
  };

  // Per-layer metrics: median over traced iterations; memory figures are
  // peaks, so they take the maximum (the first build maps fresh pages,
  // later ones reuse the freed heap).
  std::map<std::string, std::vector<double>> samples;
  for (const Iteration& it : traced) {
    for (const auto& [name, value] : it.layers) samples[name].push_back(value);
  }
  std::map<std::string, double> layers;
  for (const auto& [name, values] : samples) {
    const bool peak = name.size() > 3 && name.compare(name.size() - 3, 3, "_mb") == 0;
    layers[name] = peak ? *std::max_element(values.begin(), values.end())
                        : median(values);
  }
  if (args.trace) {
    std::vector<double> traced_solve;
    for (const Iteration& it : traced) traced_solve.push_back(it.solve_s);
    layers["trace_overhead"] = median(traced_solve) / median(solve) - 1.0;
  }

  // The detail line: everything measured, for readers and later changes.
  std::string detail = "{\"detail\": {\"workload\": " +
                       json_string(workload->name) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"trace\": " + (args.trace ? "1" : "0") + ", " +
                       json_string(workload->checksum_name) + ": " +
                       json_string(hex64(reference)) +
                       ", \"iterations\": {\"plain\": " +
                       std::to_string(plain.size()) + ", \"traced\": " +
                       std::to_string(traced.size()) + "}";
  detail += ", \"setup_s\": " + json_summary(summarize(setup));
  detail += ", \"solve_s\": " + json_summary(summarize(solve));
  std::vector<double> check;
  for (const Iteration& it : plain) check.push_back(it.check_s);
  detail += ", \"check_s\": " + json_summary(summarize(check));
  detail += ", \"end_to_end\": {";
  bool comma = false;
  for (const auto& [name, metric] : e2e) {
    detail += (comma ? ", " : "") + json_string(name) + ": " +
              json_number(metric.first);
    comma = true;
  }
  detail += "}, \"layers\": {";
  comma = false;
  for (const auto& [name, value] : layers) {
    detail += (comma ? ", " : "") + json_string(name) + ": " + json_number(value);
    comma = true;
  }
  detail += "}, \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    detail += (i ? ", " : "") + json_string(failures[i]);
  }
  detail += "]}}";
  std::printf("%s\n", detail.c_str());

  std::string metrics;
  auto add_metric = [&](const std::string& name, double value, const char* unit) {
    metrics += (metrics.empty() ? "" : ", ") + json_string(name) +
               ": {\"value\": " + json_number(value) + ", \"unit\": " +
               json_string(unit) + "}";
  };
  if (args.trace) {
    for (const Metric& m : kPerLayer) {
      const auto found = layers.find(m.name);
      add_metric(m.name, found == layers.end() ? 0.0 : found->second, m.unit);
    }
  } else {
    for (const auto& [name, metric] : e2e) {
      add_metric(name, metric.first, metric.second);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {%s}}\n",
              failed == 0 && attempted > 0 ? "true" : "false", attempted, failed,
              metrics.c_str());
  std::fflush(stdout);
  return 0;
}
