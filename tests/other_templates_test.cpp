// Template assemblies for the Section 8 problems: Maximal Matching,
// (Δ+1)-Vertex Coloring, (2Δ−1)-Edge Coloring — validity across prediction
// regimes, consistency constants, reference round bounds independent of n,
// and the robustness caps.
#include <gtest/gtest.h>

#include "coloring/checkers.hpp"
#include "common/rng.hpp"
#include "edgecoloring/checkers.hpp"
#include "edgecoloring/linegraph.hpp"
#include "graph/generators.hpp"
#include "matching/checkers.hpp"
#include "predict/error_measures.hpp"
#include "predict/generators.hpp"
#include "sim/engine.hpp"
#include "sim/phase.hpp"
#include "sim/result_cache.hpp"
#include "templates/problems_with_predictions.hpp"

namespace dgap {
namespace {

const char* kThreeTemplateNames[] = {"simple", "consecutive", "parallel",
                                     "interleaved"};

Graph test_graph(int index, Rng& rng) {
  switch (index % 5) {
    case 0: {
      Graph g = make_line(14);
      randomize_ids(g, rng);
      return g;
    }
    case 1: {
      Graph g = make_ring(11);
      randomize_ids(g, rng);
      return g;
    }
    case 2: {
      Graph g = make_grid(4, 4);
      randomize_ids(g, rng);
      return g;
    }
    case 3:
      return make_gnp(15, 0.25, rng);
    default: {
      Graph g = disjoint_union(make_clique(5), make_line(7));
      randomize_ids(g, rng);
      return g;
    }
  }
}

// ---- Line-graph Linial reference (standalone) ---------------------------------

TEST(LineGraphLinial, ProducesValidEdgeColoring) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    Graph g = test_graph(i, rng);
    auto result = run_algorithm(g, line_graph_edge_coloring_algorithm());
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_edge_coloring(g, result.edge_outputs))
        << "graph " << i << ": "
        << check_edge_coloring(g, result.edge_outputs);
  }
}

TEST(LineGraphLinial, RoundsIndependentOfN) {
  // Fixed Δ = 2 and fixed identifier domain: the same round count on a
  // ring of 12 and a ring of 200.
  Rng rng(2);
  Graph small = make_ring(12);
  Graph large = make_ring(200);
  randomize_ids_sparse(small, 4000, rng);
  randomize_ids_sparse(large, 4000, rng);
  auto rs = run_algorithm(small, line_graph_edge_coloring_algorithm());
  auto rl = run_algorithm(large, line_graph_edge_coloring_algorithm());
  EXPECT_EQ(rs.rounds, rl.rounds);
  EXPECT_LE(rl.rounds, line_graph_linial_total_rounds(4000, 2) + 1);
}

TEST(LineGraphLinial, MessageWidthBoundedByDegree) {
  Rng rng(3);
  Graph g = make_grid(5, 5);  // Δ = 4
  randomize_ids(g, rng);
  auto result = run_algorithm(g, line_graph_edge_coloring_algorithm());
  // [count, (id,color)*deg, count, used*deg] ≤ 2 + 3Δ words.
  EXPECT_LE(result.max_message_words, 2 + 3 * g.max_degree());
}

TEST(LineGraphLinial, RejectsIdBoundsWhoseSquareOverflows) {
  // Edge identifiers lie below (d+1)², which must fit in 64 bits:
  // d ≤ 3,037,000,498.
  EXPECT_GT(line_graph_linial_total_rounds(3'037'000'498, 2), 0);
  EXPECT_THROW(line_graph_linial_total_rounds(3'037'000'499, 2),
               std::invalid_argument);
  EXPECT_THROW(line_graph_linial_total_rounds(5'000'000'000, 2),
               std::invalid_argument);
  Graph ring = make_ring(6);
  ring.set_ids({1, 2, 3, 4, 5, 5'000'000'000});
  EXPECT_THROW(run_algorithm(ring, line_graph_edge_coloring_algorithm()),
               std::invalid_argument);
}

/// Line-graph Linial part 1 at one node. A victim crashes at `kill_round`:
/// it terminates with the marker -1 and no edge colors. A survivor outputs
/// the colors of its remaining edges when part 1 finishes.
class KillSwitchEdgeColoring final : public NodeProgram {
 public:
  KillSwitchEdgeColoring(int kill_round, bool victim)
      : kill_round_(kill_round), victim_(victim) {}

  void on_send(NodeContext& ctx) override {
    Channel ch(ctx, 0);
    phase_.on_send(ctx, ch);
  }
  void on_receive(NodeContext& ctx) override {
    Channel ch(ctx, 0);
    if (victim_ && ctx.round() == kill_round_) {
      ctx.set_output(-1);
      ctx.terminate();
      return;
    }
    if (phase_.on_receive(ctx, ch) == PhaseProgram::Status::kFinished) {
      for (NodeId u : ctx.neighbors()) {
        const Value c = phase_.edge_palette_color(u);
        if (c != kUndefined) ctx.set_output_for(u, c);
      }
      ctx.set_output(0);
      ctx.terminate();
    }
  }

 private:
  LineGraphLinialPhase phase_;
  int kill_round_;
  bool victim_;
};

// Lemma 11 needs part 1 to stay correct while the uniform algorithm
// terminates nodes. Crashes late in part 1 hit the reduction classes that
// hold most edges, where two endpoints deciding from different constraint
// sets would pick different colors.
TEST(LineGraphLinial, FaultTolerantUnderMidRunCrashes) {
  Rng rng(8);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<NodeId>(10 + rng.next_below(20));
    Graph g = make_gnp(n, 0.3, rng);
    randomize_ids(g, rng);
    // Part 1 finishes in round `total`; a crash in round r shows from
    // round r + 1 on.
    const int total =
        line_graph_linial_total_rounds(g.id_bound(), g.max_degree());
    if (total < 2) continue;
    std::vector<bool> victim(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) victim[v] = rng.flip(0.3);
    const int kill_round =
        total - 1 -
        static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(std::min(15, total - 1))));
    const RunResult result = run_algorithm(g, [&](NodeId v) {
      return std::make_unique<KillSwitchEdgeColoring>(kill_round, victim[v]);
    });
    ASSERT_TRUE(result.completed);
    const auto color_at = [&](NodeId v, NodeId u) {
      for (const auto& [w, c] : result.edge_outputs[v]) {
        if (w == u) return c;
      }
      return kUndefined;
    };
    for (const auto& [u, v] : g.edges()) {
      if (victim[u] || victim[v]) continue;
      EXPECT_NE(color_at(u, v), kUndefined)
          << "trial " << trial << " edge " << u << "-" << v;
      EXPECT_EQ(color_at(u, v), color_at(v, u))
          << "trial " << trial << " kill_round " << kill_round << " of "
          << total << ", edge " << u << "-" << v;
    }
    EXPECT_TRUE(is_proper_partial_edge_coloring(g, result.edge_outputs))
        << "trial " << trial << " kill_round " << kill_round;
  }
}

// Pins the reference's results on runs that take Linial steps, the stage
// and every reduction class and then run part 2, paths the sweep_templates
// witness never reaches. The gnp graphs (d ≥ 40) take one Linial step and
// the lines two; on the sorted lines all-wrong predictions leave the
// uniform algorithm short of its budget, so the reference decides nodes.
// No node terminates during part 1 in any of these runs. The values were
// recorded when the stage replaced the post-Linial class tail.
TEST(LineGraphLinial, ResultsUnchanged) {
  Rng rng(17);
  std::vector<std::uint64_t> got;
  for (const NodeId n : {40, 48, 56}) {
    Graph g = make_gnp(n, 0.1, rng);
    randomize_ids(g, rng);
    const RunResult r = run_algorithm(g, line_graph_edge_coloring_algorithm());
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(is_valid_edge_coloring(g, r.edge_outputs)) << "gnp " << n;
    got.push_back(result_checksum(r));
  }
  // The reference decided nodes when the template finishes before the
  // uniform algorithm alone (the Simple template) would have.
  for (const NodeId n : {60, 120}) {
    Graph line = make_line(n);
    sorted_ids(line);
    const Predictions unmatched = all_same(line, kNoNode);
    const RunResult matching = run_with_predictions(
        line, unmatched, matching_consecutive_linegraph());
    ASSERT_TRUE(matching.completed);
    EXPECT_TRUE(is_valid_maximal_matching(line, matching.outputs));
    EXPECT_LT(matching.rounds,
              run_with_predictions(line, unmatched, matching_simple_greedy())
                  .rounds)
        << "line " << n;
    got.push_back(result_checksum(matching));

    std::vector<std::vector<Value>> rows;
    for (NodeId v = 0; v < n; ++v) rows.emplace_back(line.degree(v), 99);
    const Predictions illegal = Predictions::for_edges(line, rows);
    const RunResult coloring = run_with_predictions(
        line, illegal, edge_coloring_consecutive_linegraph());
    ASSERT_TRUE(coloring.completed);
    EXPECT_TRUE(is_valid_edge_coloring(line, coloring.edge_outputs));
    EXPECT_LT(
        coloring.rounds,
        run_with_predictions(line, illegal, edge_coloring_simple_greedy())
            .rounds)
        << "line " << n;
    got.push_back(result_checksum(coloring));
  }
  // gnp 40, 48, 56; then per line (60, 120): matching, edge coloring.
  const std::vector<std::uint64_t> expected = {
      0x534514fe676aa798ULL, 0xe88ddc70673720fbULL, 0x7fef2734b2dde125ULL,
      0xb08423a499e78bb9ULL, 0xdf2e50d17415f1f0ULL, 0x8e8d52f90c58fc73ULL,
      0xef3385e2fd9c3800ULL,
  };
  EXPECT_EQ(got, expected);
}

// ---- Matching assemblies --------------------------------------------------------

using MatchingFactory = ProgramFactory (*)();
class MatchingTemplates : public ::testing::TestWithParam<int> {};

TEST_P(MatchingTemplates, ValidAcrossRegimes) {
  MatchingFactory factories[] = {&matching_simple_greedy,
                                 &matching_consecutive_linegraph,
                                 &matching_parallel_linegraph,
                                 &matching_interleaved_linegraph};
  auto factory = factories[GetParam()];
  Rng rng(100 + GetParam());
  for (int i = 0; i < 10; ++i) {
    Graph g = test_graph(i, rng);
    auto correct = matching_correct_prediction(g, rng);
    for (int breaks : {0, 2, 100}) {
      auto pred = break_matches(g, correct, breaks, rng);
      auto result = run_with_predictions(g, pred, factory());
      ASSERT_TRUE(result.completed) << "graph " << i << " breaks " << breaks;
      EXPECT_TRUE(is_valid_maximal_matching(g, result.outputs))
          << "graph " << i << " breaks " << breaks << ": "
          << check_matching(g, result.outputs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(All, MatchingTemplates, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(kThreeTemplateNames[info.param]);
                         });

TEST(MatchingTemplates, ConsistencyTwoRounds) {
  Rng rng(7);
  Graph g = make_grid(5, 5);
  randomize_ids(g, rng);
  auto pred = matching_correct_prediction(g, rng);
  for (auto factory : {&matching_simple_greedy,
                       &matching_consecutive_linegraph,
                       &matching_parallel_linegraph,
                       &matching_interleaved_linegraph}) {
    auto result = run_with_predictions(g, pred, (*factory)());
    EXPECT_EQ(result.rounds, 2);
    EXPECT_TRUE(is_valid_maximal_matching(g, result.outputs));
  }
}

TEST(MatchingTemplates, RobustnessCapsWorstCase) {
  // All-⊥ predictions on a sorted line: the uniform matcher alone needs
  // ~3n/2 rounds, the reference-capped templates stay near the line-graph
  // Linial bound (independent of n for fixed Δ and d).
  Graph g = make_line(240);
  sorted_ids(g);
  auto pred = all_same(g, kNoNode);
  auto simple = run_with_predictions(g, pred, matching_simple_greedy());
  auto consecutive =
      run_with_predictions(g, pred, matching_consecutive_linegraph());
  auto parallel =
      run_with_predictions(g, pred, matching_parallel_linegraph());
  EXPECT_TRUE(is_valid_maximal_matching(g, consecutive.outputs));
  EXPECT_TRUE(is_valid_maximal_matching(g, parallel.outputs));
  EXPECT_GE(simple.rounds, 200);  // Θ(n)
  const int ref = matching_reference_total_rounds(g.id_bound(),
                                                  g.max_degree());
  EXPECT_LE(consecutive.rounds, 2 + (ref + 1) + 1 + ref + 3);
  EXPECT_LE(parallel.rounds,
            2 + line_graph_linial_total_rounds(g.id_bound(), g.max_degree()) +
                3 + 1 + 2 * g.max_degree() + 2);
  EXPECT_LT(parallel.rounds, simple.rounds / 2);
}

// ---- Vertex-coloring assemblies ---------------------------------------------------

class ColoringTemplates : public ::testing::TestWithParam<int> {};

TEST_P(ColoringTemplates, ValidAcrossRegimes) {
  using Factory = ProgramFactory (*)();
  Factory factories[] = {&coloring_simple_greedy,
                         &coloring_consecutive_linial,
                         &coloring_parallel_linial,
                         &coloring_interleaved_linial};
  auto factory = factories[GetParam()];
  Rng rng(200 + GetParam());
  for (int i = 0; i < 10; ++i) {
    Graph g = test_graph(i, rng);
    auto correct = coloring_correct_prediction(g, rng);
    for (int scrambles : {0, 3, 100}) {
      auto pred = scramble_colors(g, correct, scrambles, rng);
      auto result = run_with_predictions(g, pred, factory());
      ASSERT_TRUE(result.completed)
          << "graph " << i << " scrambles " << scrambles;
      EXPECT_TRUE(is_valid_coloring(g, result.outputs, g.max_degree() + 1))
          << "graph " << i << " scrambles " << scrambles << ": "
          << check_coloring(g, result.outputs, g.max_degree() + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(All, ColoringTemplates, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(kThreeTemplateNames[info.param]);
                         });

TEST(ColoringTemplates, ConsistencyTwoRounds) {
  Rng rng(8);
  Graph g = make_grid(5, 5);
  randomize_ids(g, rng);
  auto pred = coloring_correct_prediction(g, rng);
  for (auto factory : {&coloring_simple_greedy, &coloring_consecutive_linial,
                       &coloring_parallel_linial,
                       &coloring_interleaved_linial}) {
    auto result = run_with_predictions(g, pred, (*factory)());
    EXPECT_EQ(result.rounds, 2);
    EXPECT_TRUE(is_valid_coloring(g, result.outputs, g.max_degree() + 1));
  }
}

TEST(ColoringTemplates, ParallelCapIndependentOfN) {
  // Same Δ, same d: the Parallel coloring's worst-case rounds should not
  // grow with n (all predictions illegal → pure robustness regime).
  Rng rng(9);
  Graph small = make_ring(16);
  Graph large = make_ring(400);
  randomize_ids_sparse(small, 1000, rng);
  randomize_ids_sparse(large, 1000, rng);
  auto bad_small = all_same(small, 99);  // out-of-palette predictions
  auto bad_large = all_same(large, 99);
  auto rs = run_with_predictions(small, bad_small, coloring_parallel_linial());
  auto rl = run_with_predictions(large, bad_large, coloring_parallel_linial());
  EXPECT_TRUE(is_valid_coloring(large, rl.outputs, 3));
  EXPECT_LE(std::abs(rl.rounds - rs.rounds), 2);
}

// ---- Edge-coloring assemblies -----------------------------------------------------

class EdgeColoringTemplates : public ::testing::TestWithParam<int> {};

TEST_P(EdgeColoringTemplates, ValidAcrossRegimes) {
  using Factory = ProgramFactory (*)();
  Factory factories[] = {&edge_coloring_simple_greedy,
                         &edge_coloring_consecutive_linegraph,
                         &edge_coloring_parallel_linegraph,
                         &edge_coloring_interleaved_linegraph};
  auto factory = factories[GetParam()];
  Rng rng(300 + GetParam());
  for (int i = 0; i < 10; ++i) {
    Graph g = test_graph(i, rng);
    auto correct = edge_coloring_correct_prediction(g, rng);
    for (int scrambles : {0, 3, 100}) {
      auto pred = scramble_edge_colors(g, correct, scrambles, rng);
      auto result = run_with_predictions(g, pred, factory());
      ASSERT_TRUE(result.completed)
          << "graph " << i << " scrambles " << scrambles;
      EXPECT_TRUE(is_valid_edge_coloring(g, result.edge_outputs))
          << "graph " << i << " scrambles " << scrambles << ": "
          << check_edge_coloring(g, result.edge_outputs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(All, EdgeColoringTemplates, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(kThreeTemplateNames[info.param]);
                         });

TEST(EdgeColoringTemplates, ConsistencyOneRound) {
  Rng rng(10);
  Graph g = make_grid(5, 5);
  randomize_ids(g, rng);
  auto pred = edge_coloring_correct_prediction(g, rng);
  for (auto factory : {&edge_coloring_simple_greedy,
                       &edge_coloring_consecutive_linegraph,
                       &edge_coloring_parallel_linegraph,
                       &edge_coloring_interleaved_linegraph}) {
    auto result = run_with_predictions(g, pred, (*factory)());
    EXPECT_EQ(result.rounds, 1);
    EXPECT_TRUE(is_valid_edge_coloring(g, result.edge_outputs));
  }
}

TEST(EdgeColoringTemplates, ConsecutiveCapIndependentOfN) {
  Rng rng(11);
  Graph small = make_ring(16);
  Graph large = make_ring(300);
  randomize_ids_sparse(small, 2000, rng);
  randomize_ids_sparse(large, 2000, rng);
  // Same illegal prediction everywhere → pure robustness regime.
  auto bad_small = Predictions::for_edges(
      small, std::vector<std::vector<Value>>(16, {99, 99}));
  auto bad_large = Predictions::for_edges(
      large, std::vector<std::vector<Value>>(300, {99, 99}));
  auto rs = run_with_predictions(small, bad_small,
                                 edge_coloring_consecutive_linegraph());
  auto rl = run_with_predictions(large, bad_large,
                                 edge_coloring_consecutive_linegraph());
  EXPECT_TRUE(is_valid_edge_coloring(large, rl.edge_outputs));
  // The cap is a pure function of (d, Δ): base + U budget + reference.
  const int ref = line_graph_linial_total_rounds(2000, 2) + 1;
  const int cap = 2 + (ref + 1) + ref;
  EXPECT_LE(rl.rounds, cap);
  EXPECT_LE(std::abs(rl.rounds - rs.rounds), 6);
}

}  // namespace
}  // namespace dgap
