// Section 9.2 on a rooted tree: the Rooted Tree Initialization Algorithm,
// Algorithm 6, and Corollary 15's Parallel-template algorithm, including
// the directed-line instance where the base algorithm decides nothing but
// the tree-specific initialization finishes in 3 rounds.
#include <cstdio>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "mis/checkers.hpp"
#include "predict/error_measures.hpp"
#include "predict/generators.hpp"
#include "sim/engine.hpp"
#include "templates/mis_with_predictions.hpp"
#include "tree/gps.hpp"

using namespace dgap;

int main() {
  std::printf("dgap example: MIS with predictions on rooted trees\n\n");
  bool all_valid = true;

  // Part 1: the paper's directed-line instance (Section 9.2).
  {
    const NodeId k = 12;
    RootedTree t = make_rooted_line(3 * k);
    std::vector<Value> x(static_cast<std::size_t>(3 * k), 1);
    for (NodeId v = 0; v < 3 * k; v += 3) x[v] = 0;  // white every 3rd node
    Predictions pred{x};
    std::printf("directed line, n=%d, white at depth 0 mod 3:\n", 3 * k);
    std::printf("  eta1 = %-4d (MIS Base Algorithm decides nothing)\n",
                eta1_mis(t.graph, pred));
    std::printf("  eta_t = %-3d (monochromatic parent-paths are short)\n",
                eta_t_mis(t, pred));
    auto r = run_with_predictions(t.graph, pred, tree_mis_simple(t));
    const bool valid = is_valid_mis(t.graph, r.outputs);
    all_valid &= valid;
    std::printf("  TreeInit + Algorithm 6: %d rounds, valid=%s\n\n", r.rounds,
                valid ? "yes" : "NO");
  }

  // Part 2: Corollary 15 across error levels on a random rooted tree.
  Rng rng(11);
  RootedTree t = make_rooted_random_tree(300, rng);
  randomize_ids(t.graph, rng);
  std::printf("random rooted tree, n=%d, d=%lld, GPS cap=O(log* d)=%d "
              "rounds\n\n",
              t.graph.num_nodes(),
              static_cast<long long>(t.graph.id_bound()),
              gps_tree_mis_total_rounds(t.graph.id_bound()));
  std::printf("%-9s %-7s %-7s %-9s %-11s %s\n", "flips", "eta1", "eta_t",
              "simple", "parallel", "valid");
  auto base = mis_correct_prediction(t.graph, rng);
  for (int flips : {0, 2, 8, 32, 128, 300}) {
    auto pred =
        flips == 300 ? all_same(t.graph, 0) : flip_bits(t.graph, base, flips, rng);
    auto simple = run_with_predictions(t.graph, pred, tree_mis_simple(t));
    auto parallel = run_with_predictions(t.graph, pred, tree_mis_parallel(t));
    const bool valid = is_valid_mis(t.graph, parallel.outputs) &&
                       is_valid_mis(t.graph, simple.outputs);
    all_valid &= valid;
    std::printf("%-9d %-7d %-7d %-9d %-11d %s\n", flips,
                eta1_mis(t.graph, pred), eta_t_mis(t, pred), simple.rounds,
                parallel.rounds, valid ? "yes" : "NO");
  }
  std::printf("\nParallel = min{ceil(eta_t/2)+5, O(log* d)}: degradation "
              "from Algorithm 6,\nrobustness from the "
              "Goldberg-Plotkin-Shannon 3-coloring reference.\n");
  return all_valid ? 0 : 1;
}
