#include <gtest/gtest.h>

#include "coloring/algorithms.hpp"
#include "coloring/checkers.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "predict/error_measures.hpp"
#include "predict/generators.hpp"
#include "sim/engine.hpp"
#include "sim/phase.hpp"
#include "templates/problems_with_predictions.hpp"

namespace dgap {
namespace {

TEST(ColoringCheckers, AcceptsProperColoring) {
  Graph g = make_line(3);
  EXPECT_TRUE(is_valid_coloring(g, {1, 2, 1}, 3));
}

TEST(ColoringCheckers, RejectsClashOutOfPaletteAndMissing) {
  Graph g = make_line(3);
  EXPECT_FALSE(is_valid_coloring(g, {1, 1, 2}, 3));
  EXPECT_FALSE(is_valid_coloring(g, {1, 4, 1}, 3));
  EXPECT_FALSE(is_valid_coloring(g, {1, kUndefined, 1}, 3));
}

TEST(ColoringCheckers, PartialProper) {
  Graph g = make_line(4);
  EXPECT_TRUE(is_proper_partial_coloring(g, {1, kUndefined, 1, 2}, 3));
  EXPECT_FALSE(is_proper_partial_coloring(g, {1, 1, kUndefined, 2}, 3));
}

TEST(GreedyColoring, ValidOnFamilies) {
  Rng rng(1);
  for (auto make : {+[]() { return make_line(15); },
                    +[]() { return make_ring(10); },
                    +[]() { return make_clique(7); },
                    +[]() { return make_grid(4, 4); },
                    +[]() { return make_star(8); }}) {
    Graph g = make();
    randomize_ids(g, rng);
    auto result = run_algorithm(g, greedy_coloring_algorithm());
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_coloring(g, result.outputs, g.max_degree() + 1))
        << check_coloring(g, result.outputs, g.max_degree() + 1);
  }
}

// Section 8.2: the measure-uniform algorithm finishes in ≤ s rounds on an
// s-node component.
TEST(GreedyColoring, RoundBoundIsComponentSize) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = make_gnp(18, 0.2, rng);
    randomize_ids(g, rng);
    auto result = run_algorithm(g, greedy_coloring_algorithm());
    EXPECT_LE(result.rounds, g.num_nodes());
    EXPECT_TRUE(is_valid_coloring(g, result.outputs, g.max_degree() + 1));
  }
}

TEST(ColoringBasePhase, CorrectPredictionsOutputInTwoRounds) {
  Rng rng(3);
  Graph g = make_grid(4, 4);
  auto pred = coloring_correct_prediction(g, rng);
  auto result = run_with_predictions(g, pred,
                                     phase_as_algorithm(make_coloring_base()));
  EXPECT_EQ(result.rounds, kColoringBaseRounds);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(result.outputs[v], pred.node(v));
  }
}

TEST(ColoringBasePhase, MatchesAnalyticStatus) {
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = make_gnp(15, 0.3, rng);
    randomize_ids(g, rng);
    auto pred = scramble_colors(g, coloring_correct_prediction(g, rng),
                                static_cast<int>(rng.next_below(8)), rng);
    auto result = run_with_predictions(
        g, pred, phase_as_algorithm(make_coloring_base()));
    auto status = coloring_base_status(g, pred);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (status[v] == 1) {
        EXPECT_EQ(result.outputs[v], pred.node(v));
      } else {
        EXPECT_EQ(result.outputs[v], kLeftoverActive);
      }
    }
    EXPECT_TRUE(is_proper_partial_coloring(g, result.outputs,
                                           g.max_degree() + 1));
  }
}

TEST(ColoringInitPhase, TieBreaksByIdentifier) {
  Graph g = make_line(2);  // ids 1, 2
  Predictions pred(std::vector<Value>{2, 2});
  auto result = run_with_predictions(g, pred,
                                     phase_as_algorithm(make_coloring_init()));
  EXPECT_EQ(result.outputs[1], 2);              // larger id keeps its color
  EXPECT_EQ(result.outputs[0], kLeftoverActive);  // loser stays active
}

TEST(ColoringInitPhase, ContainsBaseDecisions) {
  Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g = make_gnp(14, 0.3, rng);
    randomize_ids(g, rng);
    auto pred = scramble_colors(g, coloring_correct_prediction(g, rng),
                                static_cast<int>(rng.next_below(8)), rng);
    auto base = run_with_predictions(
        g, pred, phase_as_algorithm(make_coloring_base()));
    auto init = run_with_predictions(
        g, pred, phase_as_algorithm(make_coloring_init()));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (base.outputs[v] != kLeftoverActive) {
        EXPECT_EQ(init.outputs[v], base.outputs[v]);
      }
    }
    EXPECT_TRUE(is_proper_partial_coloring(g, init.outputs,
                                           g.max_degree() + 1));
  }
}

TEST(GreedyColoring, CompletesAPartialColoringAfterInit) {
  // Init + greedy (the Simple assembly): the completed coloring must still
  // be proper — the survivors respect the colors already output.
  Rng rng(6);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g = make_gnp(14, 0.3, rng);
    randomize_ids(g, rng);
    auto pred = scramble_colors(g, coloring_correct_prediction(g, rng), 6, rng);
    auto result = run_with_predictions(g, pred, coloring_simple_greedy());
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_coloring(g, result.outputs, g.max_degree() + 1))
        << check_coloring(g, result.outputs, g.max_degree() + 1);
  }
}

}  // namespace
}  // namespace dgap
