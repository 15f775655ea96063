#include "layers.hpp"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "coloring/checkers.hpp"
#include "matching/checkers.hpp"
#include "mis/checkers.hpp"

namespace perfbench {

dgap::Predictions TimedProvider::provide(const dgap::Graph& g,
                                         dgap::ProblemKind kind,
                                         dgap::Rng& rng) const {
  const auto t0 = Clock::now();
  dgap::Predictions out = inner_->provide(g, kind, rng);
  clock_->seconds += seconds_since(t0);
  ++clock_->calls;
  return out;
}

dgap::ProviderPtr timed_provider(dgap::ProviderPtr inner,
                                 std::shared_ptr<LayerClock> clock) {
  return std::make_shared<TimedProvider>(std::move(inner), std::move(clock));
}

dgap::ProgramFactory timed_factory(dgap::ProgramFactory inner,
                                   std::shared_ptr<LayerClock> clock) {
  return [inner = std::move(inner), clock = std::move(clock)](dgap::NodeId v) {
    const auto t0 = Clock::now();
    std::unique_ptr<dgap::NodeProgram> program = inner(v);
    clock->seconds += seconds_since(t0);
    ++clock->calls;
    return program;
  };
}

namespace {

double status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return -1;
  char line[256];
  std::int64_t kb = -1;
  char format[64];
  std::snprintf(format, sizeof(format), "%s: %%" SCNd64 " kB", key);
  while (std::fgets(line, sizeof(line), f)) {
    if (std::sscanf(line, format, &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb);
}

}  // namespace

double vm_hwm_mb() {
  const double kb = status_kb("VmHWM");
  return kb < 0 ? -1 : kb / 1024.0;
}

double vm_rss_mb() {
  const double kb = status_kb("VmRSS");
  return kb < 0 ? -1 : kb / 1024.0;
}

void add_phases(std::map<std::string, double>& layers, const std::string& prefix,
                const dgap::PhaseProfile& p) {
  const std::pair<const char*, std::int64_t> phases[] = {
      {"send_s", p.send_ns},       {"scatter_s", p.scatter_ns},
      {"link_s", p.link_ns},       {"trace_s", p.trace_ns},
      {"receive_s", p.receive_ns}, {"mutate_s", p.mutate_ns}};
  for (const auto& [name, ns] : phases) {
    layers[prefix + name] += static_cast<double>(ns) * 1e-9;
  }
}

std::string check_solution(dgap::ProblemKind kind, const dgap::Graph& g,
                           const dgap::RunResult& r) {
  if (!r.completed) return "did not complete";
  switch (kind) {
    case dgap::ProblemKind::kMis:
      return dgap::is_valid_mis(g, r.outputs) ? std::string{}
                                              : dgap::check_mis(g, r.outputs);
    case dgap::ProblemKind::kMatching:
      return dgap::check_matching(g, r.outputs);
    case dgap::ProblemKind::kColoring: {
      const dgap::Value palette = g.max_degree() + 1;
      return dgap::is_valid_coloring(g, r.outputs, palette)
                 ? std::string{}
                 : dgap::check_coloring(g, r.outputs, palette);
    }
    default:
      return "no checker for this problem kind";
  }
}

}  // namespace perfbench
