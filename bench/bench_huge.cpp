// Million-node engine benchmark — the scale family the SoA data plane and
// the coalesced small-message path exist for.
//
// Rows run MIS workloads on O(m) sparse random graphs (make_gnp_sparse /
// make_gnm) at n = 10^5 and 10^6 (10^7 behind --n10m), with a HARD peak
// memory budget per row: after each case the process high-water mark
// (VmHWM from /proc/self/status) must stay under budget_bytes_per_node * n
// plus a fixed slack, or the bench exits nonzero. VmHWM is a peak over the
// whole process, and an allocator may keep freed memory resident (ASan's
// quarantine keeps all of it), so each row runs in a forked child: the
// reading after a row is that row's own peak, not a predecessor's.
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
#include <type_traits>
#include <vector>

#include <limits.h>
#include <sys/wait.h>
#include <unistd.h>

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
/// available. Monotone over the process lifetime, so each row reads it in
/// a process of its own.
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
  // The instance: generate(rng) builds the graph from an Rng seeded with
  // `seed`, then randomize_ids draws its identifiers from the same rng.
  std::uint64_t seed = 0;
  std::function<Graph(Rng&)> generate;
  std::function<ProgramFactory()> make;
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
    return [n, bt](Rng& rng) { return make_gnp_sparse(n, 8.0 / n, rng, bt); };
  };
  auto gnm = [bt](NodeId n) {
    return [n, bt](Rng& rng) {
      return make_gnm(n, 4 * static_cast<std::int64_t>(n), rng, bt);
    };
  };
  auto gnps_seed = [](NodeId n) -> std::uint64_t { return 9000 + n % 9973; };
  auto gnm_seed = [](NodeId n) -> std::uint64_t { return 9100 + n % 9973; };
  // Budgets (bytes/node, average degree 8). Luby's broadcasts take the
  // pull path: a 32-B pull slot per node, which holds each node's one short
  // broadcast, on top of the graph (44 B/node), the engine's copy of the
  // adjacency (32 B/node), the SoA scratch (~60 B/node) and one program
  // object per node — measured ~270 B/node at n = 10^6, capped at 512 B so
  // a return of per-copy message records (~1 KB/node) fails the row.
  // Greedy sends no messages (idle/wake signalling only), so the graph
  // dominates: 256 B.
  for (const NodeId n : {100'000, 1'000'000}) {
    if (smoke && n > 100'000) break;
    cases.push_back({"gnps", "greedy", n, 256, gnps_seed(n), gnps(n), greedy});
    cases.push_back({"gnm", "greedy", n, 256, gnm_seed(n), gnm(n), greedy});
    cases.push_back({"gnps", "luby", n, 512, gnps_seed(n), gnps(n), luby});
  }
  if (n10m && !smoke) {
    constexpr NodeId k10m = 10'000'000;
    cases.push_back({"gnps", "greedy", k10m, 256, gnps_seed(k10m),
                     gnps(k10m), greedy});
    cases.push_back({"gnps", "luby", k10m, 512, gnps_seed(k10m), gnps(k10m),
                     luby});
  }
  return cases;
}

struct RowResult {
  double build_ms = 0;  // generator + identifiers
  double ids_ms = 0;    // the randomize_ids share of build_ms
  double wall_ms = 0;
  int rounds = 0;
  std::int64_t messages = 0;
  std::int64_t hwm_bytes = -1;
  bool completed = false;
};

RowResult run_case(const HugeCase& c) {
  RowResult row;
  Rng rng(c.seed);
  const auto b0 = std::chrono::steady_clock::now();
  Graph g = c.generate(rng);
  const auto b1 = std::chrono::steady_clock::now();
  randomize_ids(g, rng);
  const auto b2 = std::chrono::steady_clock::now();
  row.build_ms = std::chrono::duration<double, std::milli>(b2 - b0).count();
  row.ids_ms = std::chrono::duration<double, std::milli>(b2 - b1).count();

  const auto t0 = std::chrono::steady_clock::now();
  const RunResult result = run_algorithm(g, c.make());
  const auto t1 = std::chrono::steady_clock::now();
  row.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  row.rounds = result.rounds;
  row.messages = result.total_messages;
  row.completed = result.completed;
  row.hwm_bytes = vm_hwm_bytes();
  return row;
}

/// run_case in a forked child, which sends its RowResult back through a
/// pipe; nullopt if the child fails or sends no result.
std::optional<RowResult> run_case_in_child(const HugeCase& c) {
  static_assert(std::is_trivially_copyable_v<RowResult> &&
                sizeof(RowResult) <= PIPE_BUF);  // one atomic write
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::fflush(stdout);  // or the child's exit prints the buffer again
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const RowResult row = run_case(c);
    const bool sent = write(fds[1], &row, sizeof(row)) == sizeof(row);
    // std::exit, not _exit, so that LeakSanitizer still checks the row.
    std::exit(sent ? 0 : 1);
  }
  close(fds[1]);
  RowResult row;
  const bool received =
      pid > 0 && read(fds[0], &row, sizeof(row)) == sizeof(row);
  close(fds[0]);
  int status = 0;
  const bool exited_ok = pid > 0 && waitpid(pid, &status, 0) == pid &&
                         WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!received || !exited_ok) return std::nullopt;
  return row;
}

/// The CI determinism gate at scale: the same n = 10^5 Luby job recorded
/// serial and with 4 delivery threads must write byte-identical kPayloads
/// transcripts. Returns false (after printing why) on mismatch.
bool check_threaded_transcript_equality() {
  Rng rng(9000 + 100'000 % 9973);
  Graph g = make_gnp_sparse(100'000, 8.0 / 100'000, rng);
  randomize_ids(g, rng);
  EngineOptions serial_opt;
  const std::vector<std::uint8_t> a =
      record_run(g, {}, luby_mis_algorithm(42), serial_opt,
                 TraceDetail::kPayloads, "huge_eq")
          .transcript;
  EngineOptions threaded_opt;
  threaded_opt.num_threads = 4;
  const std::vector<std::uint8_t> b =
      record_run(g, {}, luby_mis_algorithm(42), threaded_opt,
                 TraceDetail::kPayloads, "huge_eq")
          .transcript;
  if (a != b) {
    std::printf("FAIL: serial and 4-thread transcripts differ at n=100000 "
                "(%zu vs %zu bytes)\n", a.size(), b.size());
    return false;
  }
  std::printf("transcript equality: serial == 4 threads at n=100000 "
              "(%zu bytes)\n", a.size());
  return true;
}

int run_all(bool json, bool smoke, bool n10m) {
  banner("HUGE",
         "Million-node engine scale: sparse generators and the SoA data "
         "plane. Every row carries a hard VmHWM budget (bytes/node); the "
         "bench fails if a row exceeds it.");
  Table table({"family", "workload", "n", "probe", "build_ms", "ids_ms",
               "wall_ms", "rounds", "k_msgs", "mmsgs_per_s", "hwm_mb",
               "budget_mb"});
  table.print_header();
  JsonRecorder out(json, "BENCH_huge.json");
  bool ok = true;
  for (const HugeCase& c : build_cases(smoke, n10m)) {
    // Taken just before the row: its graph build uses up to 4 threads.
    const double probe = parallelism_probe();
    const std::optional<RowResult> child = run_case_in_child(c);
    if (!child) {
      std::printf("FAIL: %s/%s n=%d: the row's process failed or sent no "
                  "result\n",
                  c.family.c_str(), c.workload.c_str(), c.n);
      ok = false;
      continue;
    }
    const RowResult& r = *child;
    const double secs = r.wall_ms / 1000.0;
    const double mps = secs > 0 ? static_cast<double>(r.messages) / secs : 0;
    const std::int64_t budget_bytes =
        c.budget_bytes_per_node * c.n + kBudgetSlackBytes;
    table.print_row({c.family, c.workload, fmt(static_cast<std::int64_t>(c.n)),
                     fmt(probe), fmt(r.build_ms), fmt(r.ids_ms),
                     fmt(r.wall_ms), fmt(r.rounds), fmt(r.messages / 1000),
                     fmt(mps / 1e6),
                     fmt(r.hwm_bytes / (1 << 20)),
                     fmt(budget_bytes / (1 << 20))});
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
    out.field("ids_ms", r.ids_ms);
    out.field("wall_ms", r.wall_ms);
    out.field("rounds", r.rounds);
    out.field("messages", r.messages);
    out.field("messages_per_sec", mps);
    out.field("hwm_bytes", r.hwm_bytes);
    out.field("budget_bytes", budget_bytes);
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
