// Shared helpers for the bench binaries and dgap_claims: sweep aggregates,
// markdown tables, JSON records for the BENCH_*.json files, the parallelism
// probe and flag parsing.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace dgap::benchutil {

// ---------------------------------------------------------------------------
// Aggregates over a sweep's results. Benches that batch their runs get the
// whole result vector back at once; these reductions replace the ad-hoc
// accumulator loops each bench used to carry.
// ---------------------------------------------------------------------------

inline double mean_rounds(std::span<const RunResult> results) {
  if (results.empty()) return 0;
  double total = 0;
  for (const RunResult& r : results) total += r.rounds;
  return total / static_cast<double>(results.size());
}

inline int max_rounds(std::span<const RunResult> results) {
  int worst = 0;
  for (const RunResult& r : results) worst = std::max(worst, r.rounds);
  return worst;
}

/// A RunResult::phase_ns stage total in milliseconds.
inline double phase_ms(std::int64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

/// Worker count for converted sweeps: saturate a small machine without
/// oversubscribing a single-core one.
inline int default_batch_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(4u, hw == 0 ? 1u : hw));
}

/// Markdown table printer: header and rule once, then one row per call.
class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void print_header() const {
    print_row(columns_);
    std::string rule = "|";
    for (std::size_t i = 0; i < columns_.size(); ++i) rule += "---|";
    std::printf("%s\n", rule.c_str());
  }

  void print_row(const std::vector<std::string>& cells) const {
    std::string line = "|";
    for (const auto& cell : cells) line += " " + cell + " |";
    std::printf("%s\n", line.c_str());
  }

 private:
  std::vector<std::string> columns_;
};

inline std::string fmt(std::int64_t v) { return std::to_string(v); }
inline std::string fmt(int v) { return std::to_string(v); }
inline std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

inline void banner(const char* experiment, const char* claim) {
  std::printf("\n## %s\n\n%s\n\n", experiment, claim);
}

// ---------------------------------------------------------------------------
// --json output. A bench that wants its numbers tracked across PRs collects
// flat records into JsonRecords and writes them next to the working
// directory (e.g. BENCH_engine.json); the table output stays the primary
// human-facing artifact.
// ---------------------------------------------------------------------------

/// Accumulates an array of flat JSON objects and writes it as a file.
/// Values are stored pre-serialized; use the typed field() overloads.
class JsonRecords {
 public:
  void begin_record() { records_.emplace_back(); }

  void field(const char* key, const std::string& v) {
    std::string out = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    push(key, out);
  }
  void field(const char* key, const char* v) { field(key, std::string(v)); }
  void field(const char* key, std::int64_t v) { push(key, std::to_string(v)); }
  void field(const char* key, int v) { push(key, std::to_string(v)); }
  void field(const char* key, double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    push(key, buf);
  }

  bool write_file(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (!f) return false;
    std::fprintf(f, "[\n");
    for (std::size_t r = 0; r < records_.size(); ++r) {
      std::fprintf(f, "  {");
      for (std::size_t i = 0; i < records_[r].size(); ++i) {
        std::fprintf(f, "%s%s", i ? ", " : "", records_[r][i].c_str());
      }
      std::fprintf(f, "}%s\n", r + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    return true;
  }

 private:
  void push(const char* key, const std::string& serialized) {
    std::string entry = "\"";
    entry += key;
    entry += "\": ";
    entry += serialized;
    records_.back().push_back(std::move(entry));
  }
  std::vector<std::vector<std::string>> records_;  // "key": value strings
};

/// The standard way a bench tracks numbers across PRs: construct with the
/// `--json` flag state and the output path, call begin_record()/field()
/// per data point exactly as with JsonRecords (every call is a no-op when
/// disabled, so the bench body needs no `if (json)` blocks), and finish()
/// once at the end — it writes the file and prints the confirmation line.
class JsonRecorder {
 public:
  JsonRecorder(bool enabled, const char* path)
      : enabled_(enabled), path_(path) {}

  void begin_record() {
    if (enabled_) records_.begin_record();
  }
  template <typename V>
  void field(const char* key, V v) {
    if (enabled_) records_.field(key, v);
  }

  /// Write the file (if enabled). Returns false only on a write error.
  bool finish() {
    if (!enabled_) return true;
    if (records_.write_file(path_)) {
      std::printf("\nwrote %s\n", path_);
      return true;
    }
    std::printf("\nERROR: could not write %s\n", path_);
    return false;
  }

 private:
  bool enabled_;
  const char* path_;
  JsonRecords records_;
};

// ---------------------------------------------------------------------------
// Parallelism probe. Every threaded BENCH row records it, so a speedup (or
// a threaded build time) is read next to the cores the host granted at
// that moment.
// ---------------------------------------------------------------------------

/// A fixed multiply-add chain; the result keeps it from being folded away.
inline std::uint64_t spin(std::uint64_t steps) {
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < steps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return x;
}

/// Parallelism the host grants right now: a ~50 ms spin on one thread
/// divided by the wall time of the same steps split over 4 threads. Reads
/// ~4.0 when four cores are really there and ~1.0 when a VM withholds
/// them, whatever hardware_concurrency() claims.
inline double parallelism_probe() {
  constexpr std::uint64_t kSteps = 40'000'000;
  constexpr int kThreads = 4;
  std::atomic<std::uint64_t> sink{0};
  const auto t0 = std::chrono::steady_clock::now();
  sink += spin(kSteps);
  const auto t1 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink] { sink += spin(kSteps / kThreads); });
  }
  for (auto& th : threads) th.join();
  const auto t2 = std::chrono::steady_clock::now();
  if (sink.load() == 0) std::printf("parallelism probe: degenerate chain\n");
  return std::chrono::duration<double>(t1 - t0).count() /
         std::chrono::duration<double>(t2 - t1).count();
}

/// True iff `flag` appears among the arguments.
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

}  // namespace dgap::benchutil
