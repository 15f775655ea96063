#include "templates/mis_with_predictions.hpp"

#include <algorithm>
#include <limits>

#include "common/require.hpp"
#include "coloring/linial.hpp"
#include "mis/algorithms.hpp"
#include "mis/congest_global.hpp"
#include "mis/gather.hpp"
#include "random/luby.hpp"
#include "sim/compile.hpp"
#include "tree/algorithms.hpp"
#include "tree/gps.hpp"

namespace dgap {

namespace {

/// Interleaved schedule for the gather reference: phase i (1-based) has an
/// even budget 2^i, which is also the gather radius.
int interleave_budget(int phase, NodeId, int, std::int64_t) {
  DGAP_REQUIRE(phase >= 1 && phase < 31, "phase index out of range");
  return 1 << phase;
}

int interleave_count(NodeId n, int, std::int64_t) {
  int m = 1;
  while ((1 << m) < std::max<NodeId>(n - 1, 1)) ++m;
  return m;
}

}  // namespace

ProgramFactory mis_simple_greedy() {
  // The init phase's prediction broadcast (step 0 only) overwhelmingly
  // carries {0} under sparse predictions; declaring it lets the
  // message-reduction pass (sim/compile.hpp) decode the common case from
  // silence. Inert unless EngineOptions::compile.decode_defaults is set,
  // so this single assembly serves compiled and uncompiled runs.
  return simple_template(
      compile_phase(make_mis_init(),
                    {.default_words = mis_init_default(),
                     .default_first_round_only = true}),
      make_greedy_mis());
}

ProgramFactory mis_simple_luby(std::uint64_t seed) {
  return simple_template(make_mis_init(), make_luby_mis(seed));
}

ProgramFactory mis_simple_linial() {
  return simple_template(make_mis_init(),
                         whole_reference(linial_mis_reference()));
}

ProgramFactory mis_consecutive_gather() {
  return consecutive_template(
      make_mis_init(), make_greedy_mis(), make_mis_cleanup(),
      make_mis_gather_full(), [](NodeId n, int, std::int64_t) {
        // r(n) + c'(n), per Lemma 8.
        return mis_gather_total_rounds(n) + kMisCleanupRounds;
      });
}

ProgramFactory mis_consecutive_linial_lambda(int lambda_num, int lambda_den) {
  DGAP_REQUIRE(lambda_num >= 0 && lambda_den >= 1, "bad lambda");
  return consecutive_template(
      make_mis_init(), make_greedy_mis(), make_mis_cleanup(),
      whole_reference(linial_mis_reference()),
      [lambda_num, lambda_den](NodeId, int delta, std::int64_t d) {
        const int r = linial_mis_total_rounds(d, delta) + kMisCleanupRounds;
        return static_cast<int>(
            (static_cast<std::int64_t>(r) * lambda_num) / lambda_den);
      });
}

ProgramFactory mis_consecutive_congest() {
  return consecutive_template(
      make_mis_init(), make_greedy_mis(), make_mis_cleanup(),
      make_congest_global_mis(), [](NodeId n, int, std::int64_t) {
        // Nominal (unenforced) budget: small-n schedules fit in int.
        return static_cast<int>(congest_global_total_rounds(n)) +
               kMisCleanupRounds;
      });
}

ProgramFactory mis_consecutive_linial() {
  return mis_consecutive_linial_lambda(1, 1);
}

ProgramFactory mis_interleaved_gather() {
  InterleavedConfig cfg;
  cfg.init = make_mis_init();
  cfg.uniform = make_greedy_mis();
  cfg.reference_phase = [](int phase, NodeId node) {
    return make_mis_gather_phase(phase)(node);
  };
  cfg.phase_budget = interleave_budget;
  cfg.phase_count = interleave_count;
  return interleaved_template(std::move(cfg));
}

ProgramFactory mis_parallel_linial() {
  ParallelConfig cfg;
  cfg.init = make_mis_init();
  cfg.uniform = make_greedy_mis();
  cfg.reference = linial_mis_reference();
  cfg.part1_budget = [](NodeId, int delta, std::int64_t d) {
    return linial_total_rounds(d, delta);
  };
  cfg.cleanup = nullptr;  // even budget: the Greedy partial is extendable
  return parallel_template(std::move(cfg));
}

// ---------------------------------------------------------------------------
// Section 9.1: black/white alternating Greedy MIS.
// ---------------------------------------------------------------------------

bool BwGreedyMisPhase::my_turn(const NodeContext& ctx) const {
  // Blocks of two rounds, blacks first: block b handles color (b mod 2).
  const int block = (step_ - 1) / 2;
  const bool black_block = (block % 2 == 0);
  const bool i_am_black = (ctx.prediction() == 1);
  return black_block == i_am_black;
}

void BwGreedyMisPhase::on_send(NodeContext& ctx, Channel& ch) {
  if (step_ == 0) ch.broadcast({ctx.prediction()});
}

PhaseProgram::Status BwGreedyMisPhase::on_receive(NodeContext& ctx,
                                                  Channel& ch) {
  if (step_ == 0) {
    for (const Message* m : ch.inbox()) {
      neighbor_predictions_.emplace_back(m->from, m->words.at(0));
    }
    std::sort(neighbor_predictions_.begin(), neighbor_predictions_.end());
    ++step_;
    return Status::kRunning;
  }
  const int inner = step_ % 2;  // 1 = select, 0 = remove
  ++step_;
  if (inner == 1) {
    if (!my_turn(ctx)) return Status::kRunning;
    // Local max among active neighbors with MY prediction color.
    for (const Value out : ctx.neighbor_outputs()) {
      if (out == 1) return Status::kRunning;  // handled next (even) round
    }
    for (NodeId u : ctx.active_neighbors()) {
      auto it = std::lower_bound(
          neighbor_predictions_.begin(), neighbor_predictions_.end(),
          std::make_pair(u, std::numeric_limits<Value>::min()));
      const Value up =
          (it != neighbor_predictions_.end() && it->first == u) ? it->second
                                                                : 0;
      const bool same_color = (up == 1) == (ctx.prediction() == 1);
      if (same_color && ctx.neighbor_id(u) > ctx.id()) return Status::kRunning;
    }
    ctx.set_output(1);
    ctx.terminate();
  } else {
    for (const Value out : ctx.neighbor_outputs()) {
      if (out == 1) {
        ctx.set_output(0);
        ctx.terminate();
        break;
      }
    }
  }
  return Status::kRunning;
}

PhaseFactory make_bw_greedy_mis() {
  return [](NodeId) { return std::make_unique<BwGreedyMisPhase>(); };
}

ProgramFactory mis_simple_bw() {
  return simple_template(make_mis_init(), make_bw_greedy_mis());
}

ProgramFactory mis_parallel_bw() {
  ParallelConfig cfg;
  cfg.init = make_mis_init();
  cfg.uniform = make_bw_greedy_mis();
  cfg.reference = linial_mis_reference();
  cfg.part1_budget = [](NodeId, int delta, std::int64_t d) {
    return linial_total_rounds(d, delta);
  };
  // U_bw's extendable boundaries sit after its remove rounds (setup round
  // + an even number of block rounds puts an even cut mid-block), so a
  // clean-up round restores extendability at the stage switch.
  cfg.cleanup = make_mis_cleanup();
  return parallel_template(std::move(cfg));
}

// ---------------------------------------------------------------------------
// Section 9.2: rooted trees.
// ---------------------------------------------------------------------------

ProgramFactory tree_mis_simple(const RootedTree& tree) {
  return simple_template(make_tree_mis_init(tree),
                         make_tree_mis_uniform(tree));
}

ProgramFactory tree_mis_parallel(const RootedTree& tree) {
  ParallelConfig cfg;
  cfg.init = make_tree_mis_init(tree);
  cfg.uniform = make_tree_mis_uniform(tree);
  cfg.reference = gps_tree_mis_reference(tree);
  cfg.part1_budget = [](NodeId, int, std::int64_t d) {
    return gps_total_rounds(d);
  };
  cfg.cleanup = nullptr;  // Algorithm 6 partials are extendable on even cuts
  return parallel_template(std::move(cfg));
}

}  // namespace dgap
