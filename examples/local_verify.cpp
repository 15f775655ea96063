// Local verification (Section 1.3) in action: all four problems are
// locally verifiable — a one-round distributed check accepts a correct
// claimed solution at every node and rejects a corrupted one at some node
// NEAR the corruption. This is the benchmark against which the paper
// defines consistency: an algorithm with predictions is consistent when
// its zero-error round count is within a constant of this check.
#include <cstdio>

#include "common/rng.hpp"
#include "graph/exact.hpp"
#include "graph/generators.hpp"
#include "predict/generators.hpp"
#include "sim/engine.hpp"
#include "templates/mis_with_predictions.hpp"
#include "verify/local_verifier.hpp"

using namespace dgap;

int main() {
  std::printf("dgap example: local verification of claimed solutions\n\n");
  Rng rng(4);
  Graph g = make_grid(6, 6);
  randomize_ids(g, rng);

  // A correct MIS claim: every node accepts, one round.
  auto in = sequential_mis(g);
  std::vector<Value> claimed(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) claimed[i] = in[i] ? 1 : 0;
  auto ok = verify_mis_locally(g, claimed);
  std::printf("correct MIS claim:    accepted=%s rounds=%d messages=%lld\n",
              ok.accepted ? "yes" : "no", ok.rounds,
              static_cast<long long>(ok.total_messages));

  // Corrupt one bit; the rejectors cluster around the fault.
  const NodeId fault = grid_index(6, 3, 3);
  claimed[fault] = claimed[fault] == 1 ? 0 : 1;
  auto bad = verify_mis_locally(g, claimed);
  std::printf("after flipping node %d: accepted=%s, rejecting nodes:", fault,
              bad.accepted ? "yes" : "no");
  for (NodeId v : bad.rejecting) std::printf(" %d", v);
  std::printf("\n  (all within distance 1 of the flipped node — local "
              "verifiability)\n\n");

  // The consistency connection: verification cost vs an algorithm with
  // predictions fed a correct prediction.
  claimed[fault] = claimed[fault] == 1 ? 0 : 1;  // restore
  auto algo = run_with_predictions(g, Predictions{claimed},
                                   mis_parallel_linial());
  std::printf("verification:              %d round\n", ok.rounds);
  std::printf("MIS algo, eta = 0:         %d rounds  (consistency 3 — a\n"
              "                           constant multiple of the check)\n",
              algo.rounds);
  return ok.accepted && !bad.accepted ? 0 : 1;
}
