// All four problems of the paper on the same graph, with predictions:
// Maximal Independent Set, Maximal Matching, (Δ+1)-Vertex Coloring and
// (2Δ−1)-Edge Coloring (Sections 3 and 8). Each runs its initialization
// algorithm followed by its measure-uniform algorithm (the library's
// Simple-template assembly), across prediction quality levels.
#include <cstdio>

#include "coloring/checkers.hpp"
#include "common/rng.hpp"
#include "edgecoloring/checkers.hpp"
#include "graph/generators.hpp"
#include "matching/checkers.hpp"
#include "mis/checkers.hpp"
#include "predict/error_measures.hpp"
#include "predict/generators.hpp"
#include "sim/engine.hpp"
#include "templates/mis_with_predictions.hpp"
#include "templates/problems_with_predictions.hpp"

using namespace dgap;

namespace {

/// Prints one table row; returns `valid`.
bool row(const char* problem, const char* label, int eta1, int rounds,
         bool valid) {
  std::printf("%-18s %-12s %-7d %-8d %s\n", problem, label, eta1, rounds,
              valid ? "yes" : "NO");
  return valid;
}

}  // namespace

int main() {
  std::printf("dgap example: the four problems of the paper on one graph\n\n");
  Rng rng(5);
  Graph g = make_grid(10, 10);
  randomize_ids(g, rng);
  std::printf("graph: 10x10 grid, n=%d, Delta=%d\n\n", g.num_nodes(),
              g.max_degree());
  std::printf("%-18s %-12s %-7s %-8s %s\n", "problem", "predictions", "eta1",
              "rounds", "valid");

  bool all_valid = true;
  for (int errors : {0, 5, 40}) {
    const char* label =
        errors == 0 ? "correct" : (errors == 5 ? "5 errors" : "40 errors");
    {
      auto pred =
          flip_bits(g, mis_correct_prediction(g, rng), errors, rng);
      auto r = run_with_predictions(g, pred, mis_simple_greedy());
      all_valid &= row("MIS", label, eta1_mis(g, pred), r.rounds,
                       is_valid_mis(g, r.outputs));
    }
    {
      auto pred =
          break_matches(g, matching_correct_prediction(g, rng), errors, rng);
      auto r = run_with_predictions(g, pred, matching_simple_greedy());
      all_valid &= row("MaximalMatching", label, eta1_matching(g, pred),
                       r.rounds, is_valid_maximal_matching(g, r.outputs));
    }
    {
      auto pred =
          scramble_colors(g, coloring_correct_prediction(g, rng), errors, rng);
      auto r = run_with_predictions(g, pred, coloring_simple_greedy());
      all_valid &= row("(D+1)-VertexCol", label, eta1_coloring(g, pred),
                       r.rounds,
                       is_valid_coloring(g, r.outputs, g.max_degree() + 1));
    }
    {
      auto pred = scramble_edge_colors(
          g, edge_coloring_correct_prediction(g, rng), errors, rng);
      auto r = run_with_predictions(g, pred, edge_coloring_simple_greedy());
      all_valid &= row("(2D-1)-EdgeCol", label, eta1_edge_coloring(g, pred),
                       r.rounds, is_valid_edge_coloring(g, r.edge_outputs));
    }
  }
  std::printf("\nEach row: initialization algorithm (consistency) followed "
              "by the problem's\nmeasure-uniform algorithm (degradation in "
              "the error measure, not in n).\n");
  return all_valid ? 0 : 1;
}
