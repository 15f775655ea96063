#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "matching/algorithms.hpp"
#include "matching/checkers.hpp"
#include "predict/error_measures.hpp"
#include "predict/generators.hpp"
#include "sim/engine.hpp"
#include "sim/phase.hpp"
#include "templates/problems_with_predictions.hpp"

namespace dgap {
namespace {

TEST(MatchingCheckers, AcceptsValidMatching) {
  Graph g = make_line(4);  // ids 1,2,3,4
  EXPECT_TRUE(is_valid_maximal_matching(g, {2, 1, 4, 3}));
}

TEST(MatchingCheckers, RejectsAsymmetryAndNonMaximality) {
  Graph g = make_line(4);
  EXPECT_FALSE(is_valid_maximal_matching(g, {2, 3, 2, kNoNode}));
  // 1-2 matched, 3 and 4 both unmatched though adjacent: not maximal.
  EXPECT_FALSE(is_valid_maximal_matching(g, {2, 1, kNoNode, kNoNode}));
}

TEST(MatchingCheckers, RejectsNonNeighborPartner) {
  Graph g = make_line(3);
  EXPECT_FALSE(is_valid_maximal_matching(g, {3, kNoNode, 1}));
}

TEST(MatchingCheckers, ExtendablePartials) {
  Graph g = make_line(5);
  std::vector<Value> partial(5, kUndefined);
  partial[1] = 3;  // node 1 ↔ node 2 (ids 2,3)
  partial[2] = 2;
  EXPECT_TRUE(is_extendable_partial_matching(g, partial));
  partial[2] = kUndefined;  // dangling pointer: not extendable
  EXPECT_FALSE(is_extendable_partial_matching(g, partial));
  std::vector<Value> bot(5, kUndefined);
  bot[0] = kNoNode;  // ⊥ with an unmatched neighbor: not extendable
  EXPECT_FALSE(is_extendable_partial_matching(g, bot));
}

TEST(GreedyMatching, ValidOnFamilies) {
  Rng rng(1);
  for (auto make : {+[]() { return make_line(14); },
                    +[]() { return make_ring(11); },
                    +[]() { return make_clique(7); },
                    +[]() { return make_grid(4, 4); },
                    +[]() { return make_star(8); }}) {
    Graph g = make();
    randomize_ids(g, rng);
    auto result = run_algorithm(g, greedy_matching_algorithm());
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_maximal_matching(g, result.outputs))
        << check_matching(g, result.outputs);
  }
}

// Section 8.1: round complexity ≤ 3⌊s/2⌋ on an s ≥ 2 node component.
TEST(GreedyMatching, RoundBound) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = make_gnp(16, 0.2, rng);
    randomize_ids(g, rng);
    auto result = run_algorithm(g, greedy_matching_algorithm());
    NodeId s = 0;
    for (const auto& comp : connected_components(g)) {
      s = std::max(s, static_cast<NodeId>(comp.size()));
    }
    EXPECT_LE(result.rounds, std::max(3 * (s / 2), NodeId{1}))
        << "trial " << trial;
    EXPECT_TRUE(is_valid_maximal_matching(g, result.outputs));
  }
}

TEST(GreedyMatching, SingletonOutputsBottomImmediately) {
  Graph g(1);
  auto result = run_algorithm(g, greedy_matching_algorithm());
  EXPECT_EQ(result.rounds, 1);
  EXPECT_EQ(result.outputs[0], kNoNode);
}

TEST(MatchingBasePhase, CorrectPredictionIsOutputInTwoRounds) {
  Rng rng(3);
  Graph g = make_grid(4, 4);
  auto pred = matching_correct_prediction(g, rng);
  auto result = run_with_predictions(g, pred,
                                     phase_as_algorithm(make_matching_base()));
  EXPECT_EQ(result.rounds, kMatchingBaseRounds);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(result.outputs[v], pred.node(v)) << "node " << v;
  }
  EXPECT_TRUE(is_valid_maximal_matching(g, result.outputs));
}

TEST(MatchingBasePhase, MatchesAnalyticStatus) {
  Rng rng(4);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g = make_gnp(14, 0.25, rng);
    randomize_ids(g, rng);
    auto pred = break_matches(g, matching_correct_prediction(g, rng),
                              static_cast<int>(rng.next_below(4)), rng);
    auto result = run_with_predictions(
        g, pred, phase_as_algorithm(make_matching_base()));
    auto status = matching_base_status(g, pred);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (status[v] == -1) {
        EXPECT_EQ(result.outputs[v], kLeftoverActive);
      } else if (status[v] == 0) {
        EXPECT_EQ(result.outputs[v], kNoNode);
      } else {
        EXPECT_EQ(result.outputs[v], pred.node(v));
      }
    }
    EXPECT_TRUE(is_extendable_partial_matching(g, result.outputs));
  }
}

TEST(MatchingInitPhase, AlsoBottomsNonBottomPredictors) {
  // Triangle ids 1,2,3: prediction matches 1↔2; node 3 predicts id 1
  // (not reciprocated). The base algorithm leaves node 3 active; the
  // reasonable initialization lets it output ⊥ because both its neighbors
  // matched.
  Graph g = make_clique(3);
  Predictions pred(std::vector<Value>{2, 1, 1});
  auto base = run_with_predictions(g, pred,
                                   phase_as_algorithm(make_matching_base()));
  EXPECT_EQ(base.outputs[2], kLeftoverActive);
  auto init = run_with_predictions(g, pred,
                                   phase_as_algorithm(make_matching_init()));
  EXPECT_EQ(init.outputs[2], kNoNode);
  EXPECT_TRUE(is_valid_maximal_matching(g, init.outputs));
}

TEST(Matching, InitPlusGreedyCompletesToValidMatching) {
  Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g = make_gnp(14, 0.25, rng);
    randomize_ids(g, rng);
    auto pred = break_matches(g, matching_correct_prediction(g, rng), 3, rng);
    auto result = run_with_predictions(g, pred, matching_simple_greedy());
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_maximal_matching(g, result.outputs))
        << check_matching(g, result.outputs);
  }
}

TEST(MatchingCleanup, AdoptsDanglingMatch) {
  // Simulate the situation the clean-up exists for: a terminated node v
  // output partner u, but u has not output yet. One cleanup round makes u
  // adopt the match.
  Graph g = make_line(2);  // ids 1,2
  class HalfMatched final : public NodeProgram {
   public:
    explicit HalfMatched(bool first) : first_(first) {}
    void on_send(NodeContext&) override {}
    void on_receive(NodeContext& ctx) override {
      if (first_ && ctx.round() == 1) {
        ctx.set_output(2);  // claim partner id 2
        ctx.terminate();
        return;
      }
      if (!first_ && ctx.round() >= 2) {  // cleanup runs after v terminated
        Channel ch(ctx, 0);
        if (cleanup_.on_receive(ctx, ch) == PhaseProgram::Status::kFinished &&
            !ctx.terminated()) {
          ctx.set_output(kLeftoverActive);
          ctx.terminate();
        }
      }
    }

   private:
    bool first_;
    MatchingCleanupPhase cleanup_;
  };
  auto result = run_algorithm(g, [](NodeId v) {
    return std::make_unique<HalfMatched>(v == 0);
  });
  EXPECT_EQ(result.outputs[0], 2);
  EXPECT_EQ(result.outputs[1], 1);  // adopted the match back
  EXPECT_TRUE(is_valid_maximal_matching(g, result.outputs));
}

}  // namespace
}  // namespace dgap
