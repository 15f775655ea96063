#include <gtest/gtest.h>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "coloring/checkers.hpp"
#include "graph/generators.hpp"
#include "mis/checkers.hpp"
#include "predict/error_measures.hpp"
#include "predict/generators.hpp"
#include "sim/engine.hpp"
#include "sim/phase.hpp"
#include "templates/mis_with_predictions.hpp"
#include "tree/algorithms.hpp"
#include "tree/gps.hpp"

namespace dgap {
namespace {

// ---- Algorithm 6 (measure-uniform on rooted trees) -----------------------------

TEST(TreeUniform, ValidOnTreeFamilies) {
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    RootedTree t = make_rooted_random_tree(30, rng);
    randomize_ids(t.graph, rng);
    auto result = run_algorithm(t.graph, tree_mis_uniform_algorithm(t));
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_mis(t.graph, result.outputs))
        << check_mis(t.graph, result.outputs);
  }
}

TEST(TreeUniform, RoundsTrackHeightNotSize) {
  // A star (height 1) finishes in O(1) rounds regardless of size; a line
  // of the same size needs rounds proportional to its height / 2.
  RootedTree star = make_rooted_kary_tree(63, 2);  // root + 63 leaves
  auto rs = run_algorithm(star.graph, tree_mis_uniform_algorithm(star));
  EXPECT_LE(rs.rounds, 3);
  RootedTree line = make_rooted_line(64);
  auto rl = run_algorithm(line.graph, tree_mis_uniform_algorithm(line));
  EXPECT_GE(rl.rounds, 64 / 4);
  EXPECT_LE(rl.rounds, 64 / 2 + 3);
  EXPECT_TRUE(is_valid_mis(line.graph, rl.outputs));
}

TEST(TreeUniform, BinaryTreeFast) {
  RootedTree t = make_rooted_binary_tree(8);  // 511 nodes, height 8
  auto result = run_algorithm(t.graph, tree_mis_uniform_algorithm(t));
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(is_valid_mis(t.graph, result.outputs));
  EXPECT_LE(result.rounds, 8 + 3);
}

// ---- Tree initialization (Section 9.2) ------------------------------------------

TEST(TreeInit, CorrectPredictionsTerminateInThreeRounds) {
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    RootedTree t = make_rooted_random_tree(25, rng);
    randomize_ids(t.graph, rng);
    auto pred = mis_correct_prediction(t.graph, rng);
    auto result = run_with_predictions(
        t.graph, pred, phase_as_algorithm(make_tree_mis_init(t)));
    EXPECT_LE(result.rounds, 3);
    EXPECT_TRUE(is_valid_mis(t.graph, result.outputs));
    for (NodeId v = 0; v < t.graph.num_nodes(); ++v) {
      EXPECT_EQ(result.outputs[v], pred.node(v));
    }
  }
}

TEST(TreeInit, ActiveComponentsAreMonochromatic) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    RootedTree t = make_rooted_random_tree(30, rng);
    randomize_ids(t.graph, rng);
    auto pred = flip_bits(t.graph, mis_correct_prediction(t.graph, rng),
                          static_cast<int>(rng.next_below(15)), rng);
    auto result = run_with_predictions(
        t.graph, pred, phase_as_algorithm(make_tree_mis_init(t)));
    EXPECT_TRUE(is_extendable_partial_mis(t.graph, result.outputs));
    // No two adjacent still-active nodes may have different predictions.
    for (auto [u, v] : t.graph.edges()) {
      if (result.outputs[u] == kLeftoverActive &&
          result.outputs[v] == kLeftoverActive) {
        EXPECT_EQ(pred.node(u) == 1, pred.node(v) == 1)
            << "active bichromatic edge {" << u << "," << v << "}";
      }
    }
  }
}

TEST(TreeInit, DirectedLineExampleTerminatesInTwoRoundsOfOutputs) {
  // Paper example: directed line of 3k nodes, white at distance ≡ 0 mod 3.
  // The base algorithm's set I is empty, but the tree initialization
  // decides EVERY node (blacks at distance 1 mod 3 join).
  const NodeId k = 5;
  RootedTree t = make_rooted_line(3 * k);
  std::vector<Value> x(static_cast<std::size_t>(3 * k), 1);
  for (NodeId v = 0; v < 3 * k; v += 3) x[v] = 0;
  Predictions pred{x};
  EXPECT_EQ(eta1_mis(t.graph, pred), 3 * k);  // base alg decides nothing
  auto result = run_with_predictions(
      t.graph, pred, phase_as_algorithm(make_tree_mis_init(t)));
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(is_valid_mis(t.graph, result.outputs));
  for (NodeId v = 0; v < 3 * k; ++v) {
    EXPECT_NE(result.outputs[v], kLeftoverActive);
  }
}

// ---- GPS 3-coloring ----------------------------------------------------------------

TEST(Gps, ScheduleGrowsLikeLogStar) {
  EXPECT_GE(gps_iterations(100), 1);
  const int small = gps_iterations(1 << 10);
  const int large = gps_iterations(1LL << 40);
  EXPECT_LE(large, small + 3);
  EXPECT_EQ(gps_total_rounds(100), gps_iterations(100) + 6);
}

TEST(Gps, ProperThreeColoringOnTrees) {
  Rng rng(4);
  for (int trial = 0; trial < 15; ++trial) {
    RootedTree t = make_rooted_random_tree(40, rng);
    randomize_ids(t.graph, rng);
    auto result = run_algorithm(t.graph, gps_coloring_algorithm(t));
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_coloring(t.graph, result.outputs, 3))
        << check_coloring(t.graph, result.outputs, 3);
  }
}

TEST(Gps, RoundsMatchSchedule) {
  RootedTree t = make_rooted_line(50);
  auto result = run_algorithm(t.graph, gps_coloring_algorithm(t));
  EXPECT_EQ(result.rounds, gps_total_rounds(t.graph.id_bound()));
}

TEST(Gps, RoundsIndependentOfHeight) {
  // log* d rounds whether the tree is a deep line or a shallow star.
  Rng rng(5);
  RootedTree line = make_rooted_line(256);
  RootedTree star = make_rooted_kary_tree(255, 2);
  auto rl = run_algorithm(line.graph, gps_coloring_algorithm(line));
  auto rs = run_algorithm(star.graph, gps_coloring_algorithm(star));
  EXPECT_EQ(rl.rounds, rs.rounds);
}

TEST(Gps, HugeSparseIdsStillLogStar) {
  Rng rng(6);
  RootedTree t = make_rooted_random_tree(30, rng);
  randomize_ids_sparse(t.graph, 1'000'000'000, rng);
  auto result = run_algorithm(t.graph, gps_coloring_algorithm(t));
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(is_valid_coloring(t.graph, result.outputs, 3));
  EXPECT_LE(result.rounds, gps_total_rounds(1'000'000'000));
}

TEST(Gps, CongestFriendly) {
  RootedTree t = make_rooted_line(40);
  EngineOptions opt;
  opt.congest_word_limit = 1;
  auto result = run_algorithm(t.graph, gps_coloring_algorithm(t), opt);
  EXPECT_EQ(result.congest_violations, 0);
}

// ---- GPS + part 2 = rooted tree MIS reference (Corollary 15's R) -------------------

TEST(GpsTreeMisReference, SolvesMis) {
  Rng rng(7);
  for (int trial = 0; trial < 15; ++trial) {
    RootedTree t = make_rooted_random_tree(35, rng);
    randomize_ids(t.graph, rng);
    auto result = run_algorithm(
        t.graph,
        phase_as_algorithm(whole_reference(gps_tree_mis_reference(t))));
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_mis(t.graph, result.outputs))
        << check_mis(t.graph, result.outputs);
    EXPECT_LE(result.rounds, gps_tree_mis_total_rounds(t.graph.id_bound()));
  }
}

// Fault injection: crash nodes mid-GPS; survivors' final coloring stays
// proper (fault tolerance required by the Parallel template, Cor. 15).
TEST(Gps, FaultTolerantUnderCrashes) {
  Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    RootedTree t = make_rooted_random_tree(25, rng);
    randomize_ids(t.graph, rng);
    const int total = gps_total_rounds(t.graph.id_bound());
    const int kill_round =
        1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(total)));
    std::vector<bool> victim(25, false);
    for (NodeId v = 0; v < 25; ++v) victim[v] = rng.flip(0.25);
    class KillSwitchGps final : public NodeProgram {
     public:
      KillSwitchGps(NodeId parent, int kill_round, bool victim)
          : phase_(parent), kill_round_(kill_round), victim_(victim) {}
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
          ctx.set_output(phase_.color() + 1);
          ctx.terminate();
        }
      }

     private:
      GpsColoringPhase phase_;
      int kill_round_;
      bool victim_;
    };
    auto result = run_algorithm(t.graph, [&](NodeId v) {
      return std::make_unique<KillSwitchGps>(t.parent[v], kill_round,
                                             victim[v]);
    });
    EXPECT_TRUE(result.completed);
    auto outputs = result.outputs;
    for (auto& o : outputs) {
      if (o == -1) o = kUndefined;
    }
    EXPECT_TRUE(is_proper_partial_coloring(t.graph, outputs, 3))
        << "trial " << trial;
  }
}

// ---- Full algorithms with predictions (Simple and Cor. 15) -------------------------

TEST(TreeMisSimple, ConsistentAndValid) {
  Rng rng(9);
  for (int trial = 0; trial < 15; ++trial) {
    RootedTree t = make_rooted_random_tree(30, rng);
    randomize_ids(t.graph, rng);
    auto good = mis_correct_prediction(t.graph, rng);
    auto r = run_with_predictions(t.graph, good, tree_mis_simple(t));
    EXPECT_TRUE(is_valid_mis(t.graph, r.outputs));
    EXPECT_LE(r.rounds, 3);  // consistency 3

    auto bad = flip_bits(t.graph, good, static_cast<int>(rng.next_below(15)), rng);
    auto rb = run_with_predictions(t.graph, bad, tree_mis_simple(t));
    EXPECT_TRUE(is_valid_mis(t.graph, rb.outputs))
        << check_mis(t.graph, rb.outputs);
    // Round complexity ≤ ⌈ηt/2⌉ + 5 (Section 9.2).
    const int eta_t = eta_t_mis(t, bad);
    EXPECT_LE(rb.rounds, (eta_t + 1) / 2 + 5) << "trial " << trial;
  }
}

TEST(TreeMisParallel, Corollary15Bounds) {
  Rng rng(10);
  for (int trial = 0; trial < 15; ++trial) {
    RootedTree t = make_rooted_random_tree(40, rng);
    randomize_ids(t.graph, rng);
    auto good = mis_correct_prediction(t.graph, rng);
    auto r = run_with_predictions(t.graph, good, tree_mis_parallel(t));
    EXPECT_TRUE(is_valid_mis(t.graph, r.outputs));
    EXPECT_LE(r.rounds, 3);  // consistency 3

    for (int flips : {2, 8, 40}) {
      auto bad = flip_bits(t.graph, good, flips, rng);
      auto rb = run_with_predictions(t.graph, bad, tree_mis_parallel(t));
      EXPECT_TRUE(is_valid_mis(t.graph, rb.outputs))
          << check_mis(t.graph, rb.outputs);
      const int eta_t = eta_t_mis(t, bad);
      const int degrading = (eta_t + 1) / 2 + 5;
      const int robust =
          4 + gps_tree_mis_total_rounds(t.graph.id_bound()) + 2;
      EXPECT_LE(rb.rounds, std::min(degrading, robust))
          << "trial " << trial << " flips " << flips;
    }
  }
}

}  // namespace
}  // namespace dgap
