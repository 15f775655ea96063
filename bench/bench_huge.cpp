// Million-node engine benchmark — the scale family the SoA data plane,
// coalesced small-message path and streaming transcripts exist for.
//
// Rows run MIS workloads on O(m) sparse random graphs (make_gnp_sparse /
// make_gnm) at n = 10^5 and 10^6 (10^7 behind --n10m), with a HARD peak
// memory budget per row: after each case the process high-water mark
// (VmHWM from /proc/self/status) must stay under budget_bytes_per_node * n
// plus a fixed slack, or the bench exits nonzero. VmHWM is monotone over
// the process lifetime, so rows run in ascending expected-peak order
// (ascending n, and cheap greedy rows before message-heavy Luby within
// each n) — the reading after a row is that row's own peak, not a
// predecessor's. The streaming row records a full kPayloads transcript through
// TranscriptWriter::stream_to and asserts the reuse buffer stayed bounded
// by one round block.
//
// Modes:
//   (default)  n = 10^5 and 10^6 rows, BENCH_huge.json with --json
//   --smoke    n = 10^5 rows only, plus the serial-vs-threaded transcript
//              byte-equality assertion (the CI gate)
//   --n10m     adds the n = 10^7 greedy and Luby rows
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/spec.hpp"
#include "mis/algorithms.hpp"
#include "random/luby.hpp"
#include "sim/engine.hpp"
#include "sim/transcript.hpp"

namespace {

using namespace dgap;
using namespace dgap::benchutil;

/// Process peak resident set in bytes (VmHWM), or -1 where /proc is not
/// available. Monotone over the process lifetime — callers order their
/// measurements ascending so the latest reading is the interesting one.
std::int64_t vm_hwm_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return -1;
  char line[256];
  std::int64_t kb = -1;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::sscanf(line, "VmHWM: %" SCNd64 " kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb < 0 ? -1 : kb * 1024;
}

struct HugeCase {
  std::string family;    // gnps / gnm
  std::string workload;  // luby / greedy
  NodeId n = 0;
  std::int64_t budget_bytes_per_node = 0;  // hard cap, checked via VmHWM
  std::function<Graph()> build;
  std::function<ProgramFactory()> make;
  bool stream_transcript = false;  // record kPayloads through stream_to
};

/// Fixed slack on top of the per-node budget: binary, runtime, and the
/// allocator's floor — everything that does not scale with n.
constexpr std::int64_t kBudgetSlackBytes = 192LL << 20;

std::vector<HugeCase> build_cases(bool smoke, bool n10m) {
  std::vector<HugeCase> cases;
  auto luby = [] { return luby_mis_algorithm(42); };
  auto greedy = [] { return greedy_mis_algorithm(); };
  // Graph construction uses up to 4 builder threads; the block scheme
  // makes the edge list byte-identical whatever this resolves to, so
  // build_ms is the only column it can move.
  const int bt = static_cast<int>(std::clamp(
      std::thread::hardware_concurrency(), 1u, 4u));
  auto gnps = [bt](NodeId n) {
    return [n, bt] {
      Rng rng(9000 + n % 9973);
      Graph g = make_gnp_sparse(n, 8.0 / n, rng, bt);
      randomize_ids(g, rng);
      return g;
    };
  };
  auto gnm = [bt](NodeId n) {
    return [n, bt] {
      Rng rng(9100 + n % 9973);
      Graph g = make_gnm(n, 4 * static_cast<std::int64_t>(n), rng, bt);
      randomize_ids(g, rng);
      return g;
    };
  };
  // Budgets (bytes/node, average degree 8). Luby's broadcasts take the
  // pull path: one outbox entry per broadcasting node plus a 16-B outbox
  // stamp per node, on top of the graph (44 B/node), the engine's copy of
  // the adjacency (32 B/node), the SoA scratch (~60 B/node) and one program
  // object per node — measured ~300 B/node at n = 10^6, capped at 512 B so
  // a return of per-copy message records (~1 KB/node) fails the row.
  // Greedy sends no messages (idle/wake signalling only), so the graph
  // dominates: 256 B. The streaming-transcript row adds the bounded reuse
  // buffer only.
  //
  // Within each n the low-budget greedy rows run BEFORE the Luby rows:
  // VmHWM is monotone, so a 256 B/node row scheduled after a 512 B/node
  // one would inherit the larger peak and fail its own budget spuriously.
  for (const NodeId n : {100'000, 1'000'000}) {
    if (smoke && n > 100'000) break;
    cases.push_back({"gnps", "greedy", n, 256, gnps(n), greedy, false});
    cases.push_back({"gnm", "greedy", n, 256, gnm(n), greedy, false});
    cases.push_back({"gnps", "luby", n, 512, gnps(n), luby, false});
    if (n == 100'000) {
      cases.push_back({"gnps", "luby", n, 512, gnps(n), luby, true});
    }
  }
  if (n10m && !smoke) {
    cases.push_back({"gnps", "greedy", 10'000'000, 256,
                     gnps(10'000'000), greedy, false});
    cases.push_back({"gnps", "luby", 10'000'000, 512, gnps(10'000'000), luby,
                     false});
  }
  return cases;
}

struct RowResult {
  double build_ms = 0;
  double wall_ms = 0;
  int rounds = 0;
  std::int64_t messages = 0;
  std::int64_t hwm_bytes = -1;
  std::int64_t transcript_bytes = 0;
  std::int64_t buffer_high_water = 0;
  bool completed = false;
};

RowResult run_case(const HugeCase& c) {
  RowResult row;
  const auto b0 = std::chrono::steady_clock::now();
  const Graph g = c.build();
  const auto b1 = std::chrono::steady_clock::now();
  row.build_ms = std::chrono::duration<double, std::milli>(b1 - b0).count();

  EngineOptions opt;
  std::optional<TranscriptWriter> writer;
  const std::string stream_path = "/tmp/dgap_bench_huge_stream.dgaptr";
  if (c.stream_transcript) {
    writer.emplace(TraceDetail::kPayloads, "huge_stream");
    writer->stream_to(stream_path);
    opt.trace_sink = &*writer;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult result = run_algorithm(g, c.make(), opt);
  const auto t1 = std::chrono::steady_clock::now();
  row.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  row.rounds = result.rounds;
  row.messages = result.total_messages;
  row.completed = result.completed;
  if (writer) {
    row.transcript_bytes = static_cast<std::int64_t>(writer->streamed_bytes());
    row.buffer_high_water =
        static_cast<std::int64_t>(writer->buffer_high_water());
    std::remove(stream_path.c_str());
  }
  row.hwm_bytes = vm_hwm_bytes();
  return row;
}

/// The CI determinism gate at scale: the same n = 10^5 Luby job recorded
/// serial and with 4 delivery threads must stream byte-identical
/// transcript files. Returns false (after printing why) on mismatch.
bool check_threaded_transcript_equality() {
  Rng rng(9000 + 100'000 % 9973);
  Graph g = make_gnp_sparse(100'000, 8.0 / 100'000, rng);
  randomize_ids(g, rng);
  const std::string serial_path = "/tmp/dgap_huge_serial.dgaptr";
  const std::string threaded_path = "/tmp/dgap_huge_threaded.dgaptr";
  EngineOptions serial_opt;
  const StreamedRun serial =
      record_run_to_file(serial_path, g, {}, luby_mis_algorithm(42),
                         serial_opt, TraceDetail::kPayloads, "huge_eq");
  EngineOptions threaded_opt;
  threaded_opt.num_threads = 4;
  const StreamedRun threaded =
      record_run_to_file(threaded_path, g, {}, luby_mis_algorithm(42),
                         threaded_opt, TraceDetail::kPayloads, "huge_eq");
  const std::vector<std::uint8_t> a = read_transcript_file(serial_path);
  const std::vector<std::uint8_t> b = read_transcript_file(threaded_path);
  std::remove(serial_path.c_str());
  std::remove(threaded_path.c_str());
  if (a != b) {
    std::printf("FAIL: serial and 4-thread transcripts differ at n=100000 "
                "(%zu vs %zu bytes)\n", a.size(), b.size());
    return false;
  }
  std::printf("transcript equality: serial == 4 threads at n=100000 "
              "(%zu bytes, writer buffer high water %zu / %" PRIu64 ")\n",
              a.size(), serial.buffer_high_water, serial.transcript_bytes);
  return true;
}

int run_all(bool json, bool smoke, bool n10m) {
  banner("HUGE",
         "Million-node engine scale: sparse generators, SoA data plane, "
         "streaming transcripts. Every row carries a hard VmHWM budget "
         "(bytes/node); the bench fails if a row exceeds it.");
  Table table({"family", "workload", "n", "probe", "build_ms", "wall_ms",
               "rounds", "k_msgs", "mmsgs_per_s", "hwm_mb", "budget_mb",
               "stream_kb"});
  table.print_header();
  JsonRecorder out(json, "BENCH_huge.json");
  bool ok = true;
  for (const HugeCase& c : build_cases(smoke, n10m)) {
    // Taken just before the row: its graph build uses up to 4 threads.
    const double probe = parallelism_probe();
    const RowResult r = run_case(c);
    const double secs = r.wall_ms / 1000.0;
    const double mps = secs > 0 ? static_cast<double>(r.messages) / secs : 0;
    const std::int64_t budget_bytes =
        c.budget_bytes_per_node * c.n + kBudgetSlackBytes;
    table.print_row({c.family, c.workload, fmt(static_cast<std::int64_t>(c.n)),
                     fmt(probe), fmt(r.build_ms), fmt(r.wall_ms),
                     fmt(r.rounds), fmt(r.messages / 1000), fmt(mps / 1e6),
                     fmt(r.hwm_bytes / (1 << 20)),
                     fmt(budget_bytes / (1 << 20)),
                     fmt(r.transcript_bytes / 1024)});
    if (r.hwm_bytes < 0) {
      std::printf("  (no /proc/self/status; memory budget not enforced)\n");
    } else if (r.hwm_bytes > budget_bytes) {
      std::printf("FAIL: %s/%s n=%d peak %.0f MB exceeds budget %.0f MB "
                  "(%lld B/node + %lld MB slack)\n",
                  c.family.c_str(), c.workload.c_str(), c.n,
                  r.hwm_bytes / double(1 << 20),
                  budget_bytes / double(1 << 20),
                  static_cast<long long>(c.budget_bytes_per_node),
                  static_cast<long long>(kBudgetSlackBytes >> 20));
      ok = false;
    }
    if (c.stream_transcript && r.buffer_high_water * 4 > r.transcript_bytes) {
      std::printf("FAIL: streaming writer buffer high water %lld not well "
                  "below file size %lld\n",
                  static_cast<long long>(r.buffer_high_water),
                  static_cast<long long>(r.transcript_bytes));
      ok = false;
    }
    if (!r.completed) {
      std::printf("FAIL: %s/%s n=%d did not complete\n", c.family.c_str(),
                  c.workload.c_str(), c.n);
      ok = false;
    }
    out.begin_record();
    out.field("family", c.family);
    out.field("workload", c.workload);
    out.field("n", static_cast<std::int64_t>(c.n));
    out.field("probe", probe);
    out.field("build_ms", r.build_ms);
    out.field("wall_ms", r.wall_ms);
    out.field("rounds", r.rounds);
    out.field("messages", r.messages);
    out.field("messages_per_sec", mps);
    out.field("hwm_bytes", r.hwm_bytes);
    out.field("budget_bytes", budget_bytes);
    out.field("transcript_bytes", r.transcript_bytes);
    out.field("buffer_high_water", r.buffer_high_water);
  }
  if (smoke && !check_threaded_transcript_equality()) ok = false;
  if (!out.finish()) ok = false;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false, smoke = false, n10m = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") json = true;
    else if (arg == "--smoke") smoke = true;
    else if (arg == "--n10m") n10m = true;
    else {
      std::printf("usage: %s [--json] [--smoke] [--n10m]\n", argv[0]);
      return 2;
    }
  }
  return run_all(json, smoke, n10m);
}
