// Engine throughput benchmark — the simulator's own data plane, not any
// paper experiment. Sweeps n on GNP / grid / ring topologies under two MIS
// workloads with opposite cost profiles:
//   * Luby: few rounds, message-heavy (every active node broadcasts) —
//     stresses payload allocation and delivery;
//   * Greedy on ascending ring identifiers: Theta(n) rounds with a shrinking
//     active frontier — stresses per-round fixed costs (active worklist).
// Reports wall ms, rounds/sec and messages/sec per case; `--json` also
// writes BENCH_engine.json so the perf trajectory is tracked across PRs.
#include "bench_util.hpp"

#include <chrono>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "mis/algorithms.hpp"
#include "random/luby.hpp"
#include "sim/engine.hpp"
#include "sim/transcript.hpp"

namespace {

using namespace dgap;
using namespace dgap::benchutil;

struct CaseResult {
  double wall_ms = 0;
  int rounds = 0;
  std::int64_t messages = 0;
  std::int64_t peak_arena_bytes = 0;
  std::int64_t transcript_bytes = 0;
  bool completed = false;
  /// Per-stage wall-ns from a profiled twin run (zeros when none was made):
  /// the timed reps stay profiler-free so wall_ms rows remain comparable
  /// across recordings that predate the profiler.
  PhaseProfile phase;
};

/// Runs the workload `reps` times and keeps the best (min) wall time —
/// the usual noise-robust choice for throughput tracking. `trace`
/// installs a TranscriptWriter at that detail level (the recorded-run
/// overhead rows); nullopt benches the sink-free fast path, which makes
/// no virtual calls at all.
CaseResult run_case(const Graph& g, const std::function<ProgramFactory()>& make,
                    int reps, int num_threads,
                    std::optional<TraceDetail> trace = std::nullopt,
                    bool profile = false) {
  CaseResult best;
  for (int r = 0; r < reps; ++r) {
    EngineOptions opt;
    opt.num_threads = num_threads;
    std::optional<TranscriptWriter> writer;
    if (trace) {
      writer.emplace(*trace);
      opt.trace_sink = &*writer;
    }
    const auto t0 = std::chrono::steady_clock::now();
    auto result = run_algorithm(g, make(), opt);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best.wall_ms) {
      best.wall_ms = ms;
      best.rounds = result.rounds;
      best.messages = result.total_messages;
      best.peak_arena_bytes = result.peak_arena_bytes;
      best.transcript_bytes =
          writer ? static_cast<std::int64_t>(writer->bytes().size()) : 0;
      best.completed = result.completed;
    }
  }
  if (profile) {
    // One extra run with the phase profiler on; its wall time is discarded
    // so the clock reads never contaminate the timed reps above.
    EngineOptions opt;
    opt.num_threads = num_threads;
    opt.profile_phases = true;
    best.phase = run_algorithm(g, make(), opt).phase_ns;
  }
  return best;
}

struct Case {
  std::string family;    // gnp / grid / ring
  std::string workload;  // luby / greedy
  NodeId n;
  Graph graph;
  std::function<ProgramFactory()> make;
  int num_threads = 1;
  /// Recorded-run overhead rows: record a transcript at this detail.
  std::optional<TraceDetail> trace;
};

std::vector<Case> build_cases() {
  std::vector<Case> cases;
  auto luby = [] { return luby_mis_algorithm(42); };
  auto greedy = [] { return greedy_mis_algorithm(); };

  // Luby on GNP: allocation/delivery bound (avg degree 8).
  for (NodeId n : {2048, 8192, 32768}) {
    Rng rng(1000 + n);
    Graph g = make_gnp(n, 8.0 / n, rng);
    randomize_ids(g, rng);
    cases.push_back({"gnp", "luby", n, std::move(g), luby, 1, std::nullopt});
  }
  // Luby on grid.
  for (NodeId side : {32, 64, 128}) {
    Rng rng(2000 + side);
    Graph g = make_grid(side, side);
    randomize_ids(g, rng);
    cases.push_back({"grid", "luby", side * side, std::move(g), luby, 1, std::nullopt});
  }
  // Luby on ring.
  for (NodeId n : {4096, 16384, 65536}) {
    Rng rng(3000 + n);
    Graph g = make_ring(n);
    randomize_ids(g, rng);
    cases.push_back({"ring", "luby", n, std::move(g), luby, 1, std::nullopt});
  }
  // Greedy MIS on ascending-id ring: the sequential frontier worst case —
  // Theta(n) rounds, O(1) live work per round once most nodes terminated.
  // The 65536 row is the long-thin regime the idle/wake scheduler exists
  // for: before event-driven wakeups every round swept all n nodes
  // (quadratic total), which priced this row out of the bench entirely.
  for (NodeId n : {1024, 4096, 65536}) {
    Graph g = make_ring(n);
    sorted_ids(g);
    cases.push_back({"ring", "greedy", n, std::move(g), greedy, 1, std::nullopt});
  }
  // Greedy MIS on GNP with random identifiers: O(log n)-ish rounds.
  for (NodeId n : {2048, 8192}) {
    Rng rng(4000 + n);
    Graph g = make_gnp(n, 8.0 / n, rng);
    randomize_ids(g, rng);
    cases.push_back({"gnp", "greedy", n, std::move(g), greedy, 1, std::nullopt});
  }
  // Parallel delivery: rerun the largest Luby/GNP instance sharded over a
  // small thread pool (results are bit-identical to serial by contract).
  // The dedicated scaling section below re-measures the same case with the
  // phase profiler; these rows keep the plain-sweep trajectory intact.
  for (int t : {2, 4, 8}) {
    Rng rng(1000 + 32768);
    Graph g = make_gnp(32768, 8.0 / 32768, rng);
    randomize_ids(g, rng);
    cases.push_back({"gnp", "luby", 32768, std::move(g), luby, t, std::nullopt});
  }
  // Recorded-run overhead: the same largest Luby/GNP instance with a
  // TranscriptWriter installed, at round granularity and at full payload
  // capture. Compare against the trace=none row above to price the spine.
  for (TraceDetail detail : {TraceDetail::kRounds, TraceDetail::kPayloads}) {
    Rng rng(1000 + 32768);
    Graph g = make_gnp(32768, 8.0 / 32768, rng);
    randomize_ids(g, rng);
    cases.push_back({"gnp", "luby", 32768, std::move(g), luby, 1, detail});
  }
  return cases;
}

std::string trace_name(const std::optional<TraceDetail>& trace) {
  if (!trace) return "none";
  switch (*trace) {
    case TraceDetail::kRounds: return "rounds";
    case TraceDetail::kPayloads: return "payloads";
  }
  return "?";
}

/// Thread-scaling section: the canonical message-heavy case (Luby on
/// GNP 32768) at 1/2/4/8 delivery threads, each row paired with a
/// profiled twin run so the table shows where the round pipeline spends
/// its time per thread count, and with a parallelism probe taken just
/// before it. Returns false only when `check` is set, the probes of both
/// the 1- and the 4-thread row read >= 3.5x, and 4 threads fail to beat
/// serial by the CI floor (1.3x; the design target on a quiet >= 4-core
/// host is 2.0x).
bool run_scaling(JsonRecorder& out, bool check) {
  banner("ENGINE / THREAD SCALING",
         "luby/gnp-32768 at 1/2/4/8 delivery threads; per-phase ms from a "
         "profiled twin run (wall_ms reps stay profiler-free); probe = "
         "spin-loop speedup on 4 threads measured before the row.");
  Table table({"threads", "probe", "wall_ms", "speedup", "send_ms",
               "scatter_ms", "link_ms", "trace_ms", "receive_ms",
               "mutate_ms"});
  table.print_header();
  auto luby = [] { return luby_mis_algorithm(42); };
  Rng rng(1000 + 32768);
  Graph g = make_gnp(32768, 8.0 / 32768, rng);
  randomize_ids(g, rng);
  double serial_ms = 0;
  double speedup4 = 0;
  double gate_probe = 0;  // min of the 1- and 4-thread rows' probes
  for (int t : {1, 2, 4, 8}) {
    const double probe = parallelism_probe();
    const CaseResult r = run_case(g, luby, 2, t, std::nullopt, true);
    if (t == 1) {
      serial_ms = r.wall_ms;
      gate_probe = probe;
    }
    const double speedup = r.wall_ms > 0 ? serial_ms / r.wall_ms : 0;
    if (t == 4) {
      speedup4 = speedup;
      gate_probe = std::min(gate_probe, probe);
    }
    table.print_row({fmt(t), fmt(probe), fmt(r.wall_ms), fmt(speedup),
                     fmt(phase_ms(r.phase.send_ns)),
                     fmt(phase_ms(r.phase.scatter_ns)),
                     fmt(phase_ms(r.phase.link_ns)),
                     fmt(phase_ms(r.phase.trace_ns)),
                     fmt(phase_ms(r.phase.receive_ns)),
                     fmt(phase_ms(r.phase.mutate_ns))});
    out.begin_record();
    out.field("section", "scaling");
    out.field("family", "gnp");
    out.field("workload", "luby");
    out.field("n", static_cast<std::int64_t>(32768));
    out.field("threads", t);
    out.field("probe", probe);
    out.field("wall_ms", r.wall_ms);
    out.field("speedup_vs_1t", speedup);
    out.field("send_ms", phase_ms(r.phase.send_ns));
    out.field("scatter_ms", phase_ms(r.phase.scatter_ns));
    out.field("link_ms", phase_ms(r.phase.link_ns));
    out.field("trace_ms", phase_ms(r.phase.trace_ns));
    out.field("receive_ms", phase_ms(r.phase.receive_ns));
    out.field("mutate_ms", phase_ms(r.phase.mutate_ns));
  }
  if (!check) return true;
  if (gate_probe < 3.5) {
    std::printf(
        "\nSCALING CHECK SKIPPED (probe %.2fx): the host did not grant four "
        "cores, so speedup is not measurable (determinism across thread "
        "counts is still asserted by the test suite).\n",
        gate_probe);
    return true;
  }
  if (speedup4 < 1.3) {
    std::printf(
        "\nSCALING CHECK FAILED: 4 threads gave %.2fx over serial with "
        "probe %.2fx (floor 1.3x).\n",
        speedup4, gate_probe);
    return false;
  }
  std::printf("\nscaling check ok: 4 threads = %.2fx over serial (probe "
              "%.2fx)\n",
              speedup4, gate_probe);
  return true;
}

int run_all(bool json, bool check_scaling) {
  banner("ENGINE",
         "Simulator data-plane throughput: wall ms / rounds per sec / "
         "messages per sec per (family, workload, n, threads). Tracked "
         "across PRs via --json (BENCH_engine.json).");
  Table table({"family", "workload", "n", "threads", "trace", "wall_ms",
               "rounds", "k_msgs", "rounds_per_s", "mmsgs_per_s",
               "peak_arena_kb", "transcript_kb"});
  table.print_header();
  JsonRecorder out(json, "BENCH_engine.json");
  for (auto& c : build_cases()) {
    const int reps = c.n <= 8192 ? 3 : 2;
    const CaseResult r =
        run_case(c.graph, c.make, reps, c.num_threads, c.trace);
    const double secs = r.wall_ms / 1000.0;
    const double rps = secs > 0 ? r.rounds / secs : 0;
    const double mps = secs > 0 ? static_cast<double>(r.messages) / secs : 0;
    table.print_row({c.family, c.workload, fmt(c.n), fmt(c.num_threads),
                     trace_name(c.trace), fmt(r.wall_ms), fmt(r.rounds),
                     fmt(r.messages / 1000), fmt(rps), fmt(mps / 1e6),
                     fmt(r.peak_arena_bytes / 1024),
                     fmt(r.transcript_bytes / 1024)});
    out.begin_record();
    out.field("family", c.family);
    out.field("workload", c.workload);
    out.field("n", static_cast<std::int64_t>(c.n));
    out.field("threads", c.num_threads);
    out.field("trace", trace_name(c.trace));
    out.field("wall_ms", r.wall_ms);
    out.field("rounds", r.rounds);
    out.field("messages", r.messages);
    out.field("rounds_per_sec", rps);
    out.field("messages_per_sec", mps);
    out.field("peak_arena_bytes", r.peak_arena_bytes);
    out.field("transcript_bytes", r.transcript_bytes);
    out.field("completed", static_cast<std::int64_t>(r.completed ? 1 : 0));
  }
  const bool scaling_ok = run_scaling(out, check_scaling);
  out.finish();
  return scaling_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using dgap::benchutil::has_flag;
  return run_all(has_flag(argc, argv, "--json"),
                 has_flag(argc, argv, "--check-scaling"));
}
