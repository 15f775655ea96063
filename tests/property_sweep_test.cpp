// Cross-cutting property sweeps:
//  * every algorithm produces valid complete solutions on a family ×
//    size × prediction-regime matrix;
//  * every algorithm's intermediate state (cut at an arbitrary even round)
//    is an extendable partial solution — the invariant all of Section 7's
//    composition machinery rests on;
//  * determinism: identical runs give identical transcripts.
#include <gtest/gtest.h>

#include "coloring/checkers.hpp"
#include "common/rng.hpp"
#include "edgecoloring/checkers.hpp"
#include "graph/generators.hpp"
#include "matching/checkers.hpp"
#include "mis/checkers.hpp"
#include "predict/generators.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "templates/mis_with_predictions.hpp"
#include "templates/problems_with_predictions.hpp"

namespace dgap {
namespace {

struct GraphCase {
  const char* name;
  Graph (*make)(Rng&);
};

/// Cut sweeps rerun the same job at max_rounds = 1..full.rounds-1; the
/// runs are independent, so they go through the batch runner (two workers
/// — the sweeps double as a batch-vs-serial equivalence check, since the
/// properties asserted were established against serial runs).
std::vector<RunResult> sweep_cuts(const Graph& g, const Predictions& pred,
                                  ProgramFactory (*make_factory)(),
                                  int first_cut, int step, int full_rounds,
                                  EngineOptions base_options = {}) {
  std::vector<BatchJob> jobs;
  for (int cut = first_cut; cut < full_rounds; cut += step) {
    EngineOptions opt = base_options;
    opt.max_rounds = cut;
    jobs.push_back(make_job(g, make_factory(), pred, opt));
  }
  return take_results(run_batch(std::move(jobs), {2}));
}

const GraphCase kGraphs[] = {
    {"line", [](Rng& r) { Graph g = make_line(11); randomize_ids(g, r); return g; }},
    {"ring", [](Rng& r) { Graph g = make_ring(9); randomize_ids(g, r); return g; }},
    {"clique", [](Rng& r) { Graph g = make_clique(6); randomize_ids(g, r); return g; }},
    {"star", [](Rng& r) { Graph g = make_star(8); randomize_ids(g, r); return g; }},
    {"grid", [](Rng& r) { Graph g = make_grid(4, 3); randomize_ids(g, r); return g; }},
    {"gnp_sparse", [](Rng& r) { return make_gnp(14, 0.12, r); }},
    {"gnp_dense", [](Rng& r) { return make_gnp(12, 0.45, r); }},
    {"tree", [](Rng& r) { Graph g = make_random_tree(13, r); randomize_ids(g, r); return g; }},
    {"two_comps",
     [](Rng& r) {
       Graph g = disjoint_union(make_ring(5), make_line(6));
       randomize_ids(g, r);
       return g;
     }},
};

class MisSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MisSweep, AllMisAlgorithmsExtendableAtEveryEvenCut) {
  const auto [graph_index, flips] = GetParam();
  Rng rng(static_cast<std::uint64_t>(graph_index * 101 + flips));
  Graph g = kGraphs[graph_index].make(rng);
  auto pred = flip_bits(g, mis_correct_prediction(g, rng), flips, rng);

  ProgramFactory (*factories[])() = {&mis_simple_greedy,
                                     &mis_consecutive_gather,
                                     &mis_interleaved_gather,
                                     &mis_parallel_linial};
  for (auto make_factory : factories) {
    auto full = run_with_predictions(g, pred, make_factory());
    ASSERT_TRUE(full.completed);
    ASSERT_TRUE(is_valid_mis(g, full.outputs)) << check_mis(g, full.outputs);
    // The consistency invariant (no adjacent 1s, every 0 covered) must
    // hold at EVERY cut; full extendability transiently fails between a
    // winner's round and its neighbors' response round, so it is only
    // asserted at the boundaries the composition machinery uses (below).
    auto partials = sweep_cuts(g, pred, make_factory, 1, 1, full.rounds);
    for (std::size_t i = 0; i < partials.size(); ++i) {
      EXPECT_TRUE(is_consistent_partial_mis(g, partials[i].outputs))
          << kGraphs[graph_index].name << " cut " << 1 + static_cast<int>(i);
    }
  }
  // Simple(Init, Greedy): after the 3-round initialization, every even
  // Greedy boundary (global rounds 3 + 2k) is an extendable partial
  // solution — the property the Consecutive/Interleaved/Parallel
  // schedules rely on.
  {
    auto full = run_with_predictions(g, pred, mis_simple_greedy());
    auto partials = sweep_cuts(g, pred, &mis_simple_greedy, 3, 2, full.rounds);
    for (std::size_t i = 0; i < partials.size(); ++i) {
      EXPECT_TRUE(is_extendable_partial_mis(g, partials[i].outputs))
          << kGraphs[graph_index].name << " boundary cut "
          << 3 + 2 * static_cast<int>(i);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, MisSweep,
    ::testing::Combine(::testing::Range(0, 9), ::testing::Values(0, 3, 7)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return std::string(kGraphs[std::get<0>(info.param)].name) + "_f" +
             std::to_string(std::get<1>(info.param));
    });

class OtherProblemsSweep : public ::testing::TestWithParam<int> {};

TEST_P(OtherProblemsSweep, MatchingPipelineValid) {
  const int graph_index = GetParam();
  Rng rng(static_cast<std::uint64_t>(graph_index * 57 + 1));
  Graph g = kGraphs[graph_index].make(rng);
  for (int breaks : {0, 2, 100}) {
    auto pred =
        break_matches(g, matching_correct_prediction(g, rng), breaks, rng);
    auto result = run_with_predictions(g, pred, matching_simple_greedy());
    ASSERT_TRUE(result.completed) << "breaks " << breaks;
    EXPECT_TRUE(is_valid_maximal_matching(g, result.outputs))
        << check_matching(g, result.outputs);
  }
}

TEST_P(OtherProblemsSweep, EdgeColoringPipelineValid) {
  const int graph_index = GetParam();
  Rng rng(static_cast<std::uint64_t>(graph_index * 91 + 5));
  Graph g = kGraphs[graph_index].make(rng);
  for (int scrambles : {0, 3, 50}) {
    auto pred = scramble_edge_colors(
        g, edge_coloring_correct_prediction(g, rng), scrambles, rng);
    auto result =
        run_with_predictions(g, pred, edge_coloring_simple_greedy());
    ASSERT_TRUE(result.completed) << "scrambles " << scrambles;
    EXPECT_TRUE(is_valid_edge_coloring(g, result.edge_outputs))
        << check_edge_coloring(g, result.edge_outputs);
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, OtherProblemsSweep, ::testing::Range(0, 9),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return kGraphs[info.param].name;
                         });

TEST_P(OtherProblemsSweep, ColoringProperAtEveryCut) {
  // Proper partial colorings are extendable at EVERY round (Section 8.2);
  // assert it for the full Parallel pipeline at every cut.
  const int graph_index = GetParam();
  Rng rng(static_cast<std::uint64_t>(graph_index * 193 + 11));
  Graph g = kGraphs[graph_index].make(rng);
  auto pred = scramble_colors(g, coloring_correct_prediction(g, rng), 5, rng);
  auto full = run_with_predictions(g, pred, coloring_parallel_linial());
  ASSERT_TRUE(full.completed);
  auto partials =
      sweep_cuts(g, pred, &coloring_parallel_linial, 1, 1, full.rounds);
  for (std::size_t i = 0; i < partials.size(); ++i) {
    EXPECT_TRUE(is_proper_partial_coloring(g, partials[i].outputs,
                                           g.max_degree() + 1))
        << kGraphs[graph_index].name << " cut " << 1 + static_cast<int>(i);
  }
}

TEST_P(OtherProblemsSweep, MatchingPartialsStayConsistent) {
  // At every cut of the matching pipeline, the committed matches must be
  // symmetric and land on real edges (extendability may transiently lack
  // only the ⊥-coverage part, which the clean-up restores).
  const int graph_index = GetParam();
  Rng rng(static_cast<std::uint64_t>(graph_index * 389 + 23));
  Graph g = kGraphs[graph_index].make(rng);
  auto pred =
      break_matches(g, matching_correct_prediction(g, rng), 4, rng);
  auto full = run_with_predictions(g, pred, matching_parallel_linegraph());
  ASSERT_TRUE(full.completed);
  auto partials =
      sweep_cuts(g, pred, &matching_parallel_linegraph, 1, 1, full.rounds);
  for (std::size_t i = 0; i < partials.size(); ++i) {
    const RunResult& partial = partials[i];
    // Committed partner claims must be mutual.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const Value out = partial.outputs[v];
      if (out == kUndefined || out == kLeftoverActive || out == kNoNode) {
        continue;
      }
      bool mutual = false;
      for (NodeId u : g.neighbors(v)) {
        if (g.id(u) == out) mutual = (partial.outputs[u] == g.id(v));
      }
      EXPECT_TRUE(mutual) << kGraphs[graph_index].name << " cut "
                          << 1 + static_cast<int>(i) << " node " << v;
    }
  }
}

TEST(EnforcedCongest, ComposedTemplateConsistentAtEveryCutUnderTightBudget) {
  // The composed Consecutive(Init, Greedy, Cleanup | congest-global) run,
  // executed under an ENFORCED 2-word budget (the width its CONGEST
  // compliance promises): every message fits its link's round budget, so
  // nothing defers, the run matches the audited one exactly, and every
  // mid-run cut is still a consistent partial MIS.
  Rng rng(31);
  Graph g = make_gnp(12, 0.3, rng);
  randomize_ids(g, rng);
  auto pred = flip_bits(g, mis_correct_prediction(g, rng), 4, rng);

  EngineOptions enforced;
  enforced.congest_policy = CongestPolicy::kDefer;
  enforced.congest_word_limit = 2;
  auto full =
      run_with_predictions(g, pred, mis_consecutive_congest(), enforced);
  ASSERT_TRUE(full.completed);
  ASSERT_TRUE(is_valid_mis(g, full.outputs)) << check_mis(g, full.outputs);
  EXPECT_EQ(full.congest_violations, 0);
  EXPECT_EQ(full.deferred_words, 0);  // width <= 2 never exceeds the budget

  auto audited = run_with_predictions(g, pred, mis_consecutive_congest());
  EXPECT_EQ(full.rounds, audited.rounds);
  EXPECT_EQ(full.outputs, audited.outputs);
  EXPECT_EQ(full.total_words, audited.total_words);

  auto partials = sweep_cuts(g, pred, &mis_consecutive_congest, 1, 1,
                             full.rounds, enforced);
  for (std::size_t i = 0; i < partials.size(); ++i) {
    EXPECT_TRUE(is_consistent_partial_mis(g, partials[i].outputs))
        << "cut " << 1 + static_cast<int>(i);
  }
}

TEST(Determinism, IdenticalRunsIdenticalTranscripts) {
  Rng rng(9);
  Graph g = make_gnp(16, 0.25, rng);
  auto pred = flip_bits(g, mis_correct_prediction(g, rng), 5, rng);
  for (auto factory : {&mis_simple_greedy, &mis_parallel_linial}) {
    auto a = run_with_predictions(g, pred, (*factory)());
    auto b = run_with_predictions(g, pred, (*factory)());
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_EQ(a.total_messages, b.total_messages);
    EXPECT_EQ(a.total_words, b.total_words);
    EXPECT_EQ(a.termination_round, b.termination_round);
  }
}

}  // namespace
}  // namespace dgap
