// Outside-in timing for the repository benchmark.
//
// Every layer is timed from the benchmark's side of a module's public API:
// a clock around a call, a forwarding PredictionProvider, a wrapping
// ProgramFactory, or a counter the module already returns (RunResult,
// GraphCache, EpochReport). Nothing here reaches into src/. The wrappers
// are installed only in the traced run; end-to-end numbers always come
// from runs without them.
//
// The benchmark is single-threaded throughout (one batch worker, one engine
// thread, one generator thread), so the clocks are plain accumulators.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "predict/provider.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Busy time and call count of one layer, accumulated at its boundary.
struct LayerClock {
  double seconds = 0;
  std::int64_t calls = 0;
};

/// A PredictionProvider that forwards to `inner` and times provide().
/// name() and digest() are forwarded unchanged, so result-cache keys and
/// results are identical to the undecorated provider's.
class TimedProvider final : public dgap::PredictionProvider {
 public:
  TimedProvider(dgap::ProviderPtr inner, std::shared_ptr<LayerClock> clock)
      : inner_(std::move(inner)), clock_(std::move(clock)) {}

  std::string name() const override { return inner_->name(); }
  std::uint64_t digest() const override { return inner_->digest(); }
  dgap::Predictions provide(const dgap::Graph& g, dgap::ProblemKind kind,
                            dgap::Rng& rng) const override;

 private:
  dgap::ProviderPtr inner_;
  std::shared_ptr<LayerClock> clock_;
};

dgap::ProviderPtr timed_provider(dgap::ProviderPtr inner,
                                 std::shared_ptr<LayerClock> clock);

/// A ProgramFactory that forwards to `inner` and times every per-node call
/// (the program-construction part of engine construction).
dgap::ProgramFactory timed_factory(dgap::ProgramFactory inner,
                                   std::shared_ptr<LayerClock> clock);

/// Process memory from /proc/self/status, in MiB (-1 where unavailable).
double vm_hwm_mb();
double vm_rss_mb();

/// Sum of one run's phase profile, in seconds, into `layers` under
/// "<prefix>send_s", "<prefix>scatter_s", ... (the six pipeline stages).
void add_phases(std::map<std::string, double>& layers, const std::string& prefix,
                const dgap::PhaseProfile& profile);

/// Empty iff `r` completed with a valid solution of `kind` on `g`
/// (is_valid_mis, check_matching or is_valid_coloring with Δ+1 colors).
std::string check_solution(dgap::ProblemKind kind, const dgap::Graph& g,
                           const dgap::RunResult& r);

/// What one iteration of a workload produced. Times are host seconds;
/// counts are exact and repeat for a fixed seed.
struct Iteration {
  double setup_s = 0;  // instance construction before any engine exists
  double solve_s = 0;  // built instances -> last job's result
  double check_s = 0;  // the benchmark's own verification (not in solve_s)
  std::int64_t jobs = 0;
  std::int64_t failed = 0;
  std::int64_t rounds = 0;
  std::int64_t messages_sent = 0;
  std::uint64_t checksum = 0;  // the workload's determinism witness
  std::vector<std::string> failures;  // first few failure descriptions
  /// Per-layer values; filled only by traced iterations.
  std::map<std::string, double> layers;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
};

/// One named workload: run an iteration for a seed, traced or not.
struct Workload {
  const char* name;
  const char* checksum_name;
  Iteration (*run)(std::uint64_t seed, bool traced);
};

Iteration run_huge_luby(std::uint64_t seed, bool traced);
Iteration run_sweep_templates(std::uint64_t seed, bool traced);
Iteration run_epochs_churn(std::uint64_t seed, bool traced);

}  // namespace perfbench
