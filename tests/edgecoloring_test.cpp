#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "edgecoloring/algorithms.hpp"
#include "edgecoloring/checkers.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "predict/error_measures.hpp"
#include "predict/generators.hpp"
#include "sim/engine.hpp"
#include "sim/phase.hpp"
#include "templates/problems_with_predictions.hpp"

namespace dgap {
namespace {

EdgeOutputs outputs_of(const RunResult& r) { return r.edge_outputs; }

TEST(EdgeColoringCheckers, AcceptsProper) {
  Graph g = make_line(3);  // Δ=2, palette 1..3
  EdgeOutputs out{{{1, 1}}, {{0, 1}, {2, 2}}, {{1, 2}}};
  EXPECT_TRUE(is_valid_edge_coloring(g, out));
}

TEST(EdgeColoringCheckers, RejectsDisagreementRepeatAndGap) {
  Graph g = make_line(3);
  EdgeOutputs disagree{{{1, 1}}, {{0, 2}, {2, 2}}, {{1, 2}}};
  EXPECT_FALSE(is_valid_edge_coloring(g, disagree));
  EdgeOutputs repeat{{{1, 1}}, {{0, 1}, {2, 1}}, {{1, 1}}};
  EXPECT_FALSE(is_valid_edge_coloring(g, repeat));
  EdgeOutputs gap{{{1, 1}}, {{0, 1}}, {}};
  EXPECT_FALSE(is_valid_edge_coloring(g, gap));
}

TEST(GreedyEdgeColoring, ValidOnFamilies) {
  Rng rng(1);
  for (auto make : {+[]() { return make_line(12); },
                    +[]() { return make_ring(9); },
                    +[]() { return make_clique(6); },
                    +[]() { return make_grid(4, 3); },
                    +[]() { return make_star(7); }}) {
    Graph g = make();
    randomize_ids(g, rng);
    auto result = run_algorithm(g, greedy_edge_coloring_algorithm());
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_edge_coloring(g, outputs_of(result)))
        << check_edge_coloring(g, outputs_of(result));
  }
}

// Section 8.3: O(s) rounds on an s-node component (our grouping: ≤ 2s + 2).
TEST(GreedyEdgeColoring, RoundBound) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = make_gnp(14, 0.25, rng);
    randomize_ids(g, rng);
    auto result = run_algorithm(g, greedy_edge_coloring_algorithm());
    NodeId s = 0;
    for (const auto& comp : connected_components(g)) {
      s = std::max(s, static_cast<NodeId>(comp.size()));
    }
    EXPECT_LE(result.rounds, 2 * s + 2) << "trial " << trial;
    EXPECT_TRUE(is_valid_edge_coloring(g, outputs_of(result)));
  }
}

TEST(GreedyEdgeColoring, IsolatedNodesTerminateImmediately) {
  Graph g(3);  // no edges
  auto result = run_algorithm(g, greedy_edge_coloring_algorithm());
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.rounds, 1);
}

TEST(EdgeColoringBasePhase, CorrectPredictionsColorEverythingInOneRound) {
  Rng rng(3);
  Graph g = make_grid(4, 3);
  auto pred = edge_coloring_correct_prediction(g, rng);
  auto result = run_with_predictions(
      g, pred, phase_as_algorithm(make_edge_coloring_base()));
  EXPECT_EQ(result.rounds, 1);  // consistency 1 (Section 8.3)
  EXPECT_TRUE(is_valid_edge_coloring(g, outputs_of(result)))
      << check_edge_coloring(g, outputs_of(result));
}

TEST(EdgeColoringBasePhase, MatchesAnalyticColoredSet) {
  Rng rng(4);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g = make_gnp(12, 0.3, rng);
    randomize_ids(g, rng);
    auto pred = scramble_edge_colors(
        g, edge_coloring_correct_prediction(g, rng),
        static_cast<int>(rng.next_below(6)), rng);
    auto result = run_with_predictions(
        g, pred, phase_as_algorithm(make_edge_coloring_base()));
    auto colored = edge_coloring_base_colored(g, pred);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto& nb = g.neighbors(v);
      for (std::size_t i = 0; i < nb.size(); ++i) {
        const bool has = [&] {
          for (const auto& [key, c] : result.edge_outputs[v]) {
            if (key == nb[i]) return true;
          }
          return false;
        }();
        EXPECT_EQ(has, static_cast<bool>(colored[v][i]))
            << "trial " << trial << " node " << v << " slot " << i;
      }
    }
    EXPECT_TRUE(is_proper_partial_edge_coloring(g, outputs_of(result)));
  }
}

TEST(EdgeColoring, BasePlusGreedyCompletes) {
  Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g = make_gnp(12, 0.3, rng);
    randomize_ids(g, rng);
    auto pred = scramble_edge_colors(
        g, edge_coloring_correct_prediction(g, rng),
        static_cast<int>(rng.next_below(8)), rng);
    auto result =
        run_with_predictions(g, pred, edge_coloring_simple_greedy());
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_edge_coloring(g, outputs_of(result)))
        << "trial " << trial << ": "
        << check_edge_coloring(g, outputs_of(result));
  }
}

TEST(EdgeColoring, LineGraphEquivalenceSanity) {
  // On a triangle every edge conflicts with every other: the 2Δ−1 = 3
  // palette is exactly used.
  Graph g = make_clique(3);
  auto result = run_algorithm(g, greedy_edge_coloring_algorithm());
  EXPECT_TRUE(is_valid_edge_coloring(g, outputs_of(result)));
  std::set<Value> used;
  for (const auto& row : result.edge_outputs) {
    for (auto [k, c] : row) used.insert(c);
  }
  EXPECT_EQ(used.size(), 3u);
}

}  // namespace
}  // namespace dgap
