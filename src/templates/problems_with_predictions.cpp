#include "templates/problems_with_predictions.hpp"

#include <algorithm>

#include "common/require.hpp"

#include "coloring/algorithms.hpp"
#include "coloring/linial.hpp"
#include "edgecoloring/algorithms.hpp"
#include "edgecoloring/linegraph.hpp"
#include "matching/algorithms.hpp"
#include "matching/from_edge_coloring.hpp"
#include "sim/compile.hpp"

namespace dgap {

namespace {

/// Matching reference: line-graph Linial (part 1) + color-class matching
/// extraction (part 2). The matching library does not depend on edge
/// coloring, so the reference is joined here.
TwoPartFactory line_graph_matching_reference() {
  return [](NodeId) {
    auto part1 = std::make_unique<LineGraphLinialPhase>();
    const LineGraphLinialPhase* colors = part1.get();
    return TwoPartReference{
        std::move(part1), [colors](const NodeContext&) {
          return std::make_unique<EdgeColorToMatchingPhase>(
              [colors](NodeId u) { return colors->edge_palette_color(u); });
        }};
  };
}

/// Doubling segment schedule sized so the U/R segments can cover a
/// reference needing `total` rounds: sum_{i=1..m} 2^i >= total.
int doubling_phase_count(int total) {
  int m = 1;
  while ((1 << (m + 1)) - 2 < total) ++m;
  return m;
}

int doubling_phase_budget(int phase) {
  DGAP_REQUIRE(phase >= 1 && phase < 31, "phase index out of range");
  return 1 << phase;
}

}  // namespace

int matching_reference_total_rounds(std::int64_t d, int delta) {
  return line_graph_linial_total_rounds(d, delta) +
         std::max(2 * delta, 1) + 1;
}

// ---------------------------------------------------------------------------
// Maximal Matching.
// ---------------------------------------------------------------------------

ProgramFactory matching_simple_greedy() {
  // As in mis_simple_greedy: the init phase's step-0 broadcast from a node
  // predicted unmatched is the declared default, decoded from silence when
  // EngineOptions::compile.decode_defaults is on, inert otherwise.
  return simple_template(
      compile_phase(make_matching_init(),
                    {.default_words = matching_init_default(),
                     .default_first_round_only = true}),
      make_greedy_matching());
}

ProgramFactory matching_consecutive_linegraph() {
  return consecutive_template(
      make_matching_init(), make_greedy_matching(), make_matching_cleanup(),
      whole_reference(line_graph_matching_reference()),
      [](NodeId, int delta, std::int64_t d) {
        return matching_reference_total_rounds(d, delta) +
               kMatchingCleanupRounds;
      });
}

ProgramFactory matching_parallel_linegraph() {
  ParallelConfig cfg;
  cfg.init = make_matching_init();
  cfg.uniform = make_greedy_matching();
  cfg.reference = line_graph_matching_reference();
  cfg.part1_budget = [](NodeId, int delta, std::int64_t d) {
    return line_graph_linial_total_rounds(d, delta);
  };
  // The uniform matcher's partial solutions are extendable at the end of
  // each 3-round group; a clean-up round catches the matched-but-unoutput
  // asymmetry that an arbitrary cut could leave.
  cfg.cleanup = make_matching_cleanup();
  cfg.budget_granularity = 3;
  return parallel_template(std::move(cfg));
}

ProgramFactory matching_interleaved_linegraph() {
  InterleavedConfig cfg;
  cfg.init = make_matching_init();
  cfg.uniform = make_greedy_matching();
  cfg.reference_persistent = whole_reference(line_graph_matching_reference());
  cfg.phase_budget = [](int phase, NodeId, int, std::int64_t) {
    return doubling_phase_budget(phase);
  };
  cfg.phase_count = [](NodeId, int delta, std::int64_t d) {
    return doubling_phase_count(matching_reference_total_rounds(d, delta));
  };
  return interleaved_template(std::move(cfg));
}

// ---------------------------------------------------------------------------
// (Δ+1)-Vertex Coloring.
// ---------------------------------------------------------------------------

ProgramFactory coloring_simple_greedy() {
  return simple_template(make_coloring_init(), make_greedy_coloring());
}

ProgramFactory coloring_consecutive_linial() {
  return consecutive_template(
      make_coloring_init(), make_greedy_coloring(), /*cleanup=*/nullptr,
      whole_reference(linial_coloring_reference()),
      [](NodeId, int delta, std::int64_t d) {
        return linial_total_rounds(d, delta) + delta + 1;
      });
}

ProgramFactory coloring_parallel_linial() {
  ParallelConfig cfg;
  cfg.init = make_coloring_init();
  cfg.uniform = make_greedy_coloring();
  cfg.reference = linial_coloring_reference();
  cfg.part1_budget = [](NodeId, int delta, std::int64_t d) {
    return linial_total_rounds(d, delta);
  };
  cfg.cleanup = nullptr;  // proper partial colorings are always extendable
  cfg.budget_granularity = 1;
  return parallel_template(std::move(cfg));
}

ProgramFactory coloring_interleaved_linial() {
  InterleavedConfig cfg;
  cfg.init = make_coloring_init();
  cfg.uniform = make_greedy_coloring();
  cfg.reference_persistent = whole_reference(linial_coloring_reference());
  cfg.phase_budget = [](int phase, NodeId, int, std::int64_t) {
    return doubling_phase_budget(phase);
  };
  cfg.phase_count = [](NodeId, int delta, std::int64_t d) {
    return doubling_phase_count(linial_total_rounds(d, delta) + delta + 1);
  };
  return interleaved_template(std::move(cfg));
}

// ---------------------------------------------------------------------------
// (2Δ−1)-Edge Coloring.
// ---------------------------------------------------------------------------

ProgramFactory edge_coloring_simple_greedy() {
  return simple_template(make_edge_coloring_base(),
                         make_greedy_edge_coloring());
}

ProgramFactory edge_coloring_consecutive_linegraph() {
  return consecutive_template(
      make_edge_coloring_base(), make_greedy_edge_coloring(),
      /*cleanup=*/nullptr,
      whole_reference(line_graph_edge_coloring_reference()),
      [](NodeId, int delta, std::int64_t d) {
        return line_graph_linial_total_rounds(d, delta) + 1;
      });
}

ProgramFactory edge_coloring_parallel_linegraph() {
  ParallelConfig cfg;
  cfg.init = make_edge_coloring_base();
  cfg.uniform = make_greedy_edge_coloring();
  cfg.reference = line_graph_edge_coloring_repair_reference();
  cfg.part1_budget = [](NodeId, int delta, std::int64_t d) {
    return line_graph_linial_total_rounds(d, delta);
  };
  // Every prefix of a proper partial edge coloring is extendable (claims
  // commit symmetrically within a round), so any cut is safe.
  cfg.cleanup = nullptr;
  cfg.budget_granularity = 1;
  return parallel_template(std::move(cfg));
}

ProgramFactory edge_coloring_interleaved_linegraph() {
  InterleavedConfig cfg;
  cfg.init = make_edge_coloring_base();
  cfg.uniform = make_greedy_edge_coloring();
  cfg.reference_persistent =
      whole_reference(line_graph_edge_coloring_repair_reference());
  cfg.phase_budget = [](int phase, NodeId, int, std::int64_t) {
    return doubling_phase_budget(phase);
  };
  cfg.phase_count = [](NodeId, int delta, std::int64_t d) {
    return doubling_phase_count(line_graph_linial_total_rounds(d, delta) +
                                std::max(2 * delta, 1) + 1);
  };
  return interleaved_template(std::move(cfg));
}

}  // namespace dgap
