// Figure 2, live: the 4-striped grid whose predictions are globally awful
// (η1 = n: the base algorithm decides NOTHING) yet locally structured
// (η_bw = 4: black and white nodes form 2x2 blocks). The black/white
// alternating measure-uniform algorithm U_bw (Section 9.1) exploits the
// structure; plain Greedy MIS cannot.
#include <cstdio>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "mis/checkers.hpp"
#include "predict/error_measures.hpp"
#include "predict/generators.hpp"
#include "sim/engine.hpp"
#include "templates/mis_with_predictions.hpp"

using namespace dgap;

namespace {

void draw(const char* title, NodeId w, NodeId h,
          const std::vector<Value>& cell, Value one_char) {
  std::printf("%s\n", title);
  for (NodeId y = 0; y < h; ++y) {
    std::printf("  ");
    for (NodeId x = 0; x < w; ++x) {
      const Value v = cell[grid_index(w, x, y)];
      std::printf("%c", v == one_char ? '#' : '.');
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("dgap example: Figure 2's black/white grid (Section 9.1)\n\n");
  const NodeId w = 16, h = 8;
  Graph g = make_grid(w, h);
  Rng rng(3);
  randomize_ids(g, rng);
  auto pred = grid_stripe_prediction(w, h);

  draw("predictions (# = predicted in the set):", w, h, pred.node_values(), 1);

  std::printf("eta1   = %d   (the base algorithm decides nothing: every\n"
              "              black node has a black neighbor)\n",
              eta1_mis(g, pred));
  std::printf("eta_bw = %d   (monochromatic components are 2x2 blocks)\n\n",
              eta_bw_mis(g, pred));

  auto bw = run_with_predictions(g, pred, mis_simple_bw());
  auto plain = run_with_predictions(g, pred, mis_simple_greedy());

  const bool bw_valid = is_valid_mis(g, bw.outputs);
  const bool plain_valid = is_valid_mis(g, plain.outputs);
  std::printf("U_bw   (black/white alternating): %d rounds, valid=%s\n",
              bw.rounds, bw_valid ? "yes" : "NO");
  std::printf("Greedy (identifier-based only):   %d rounds, valid=%s\n\n",
              plain.rounds, plain_valid ? "yes" : "NO");

  draw("U_bw's maximal independent set:", w, h, bw.outputs, 1);

  std::printf("The prediction colors act as a symmetry-breaking mechanism: "
              "splitting\nerror components by predicted color turns one "
              "n-node component into\nconstant-size pieces.\n");
  return bw_valid && plain_valid ? 0 : 1;
}
