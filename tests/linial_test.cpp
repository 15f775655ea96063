#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "coloring/checkers.hpp"
#include "coloring/linial.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "edgecoloring/linegraph.hpp"
#include "graph/generators.hpp"
#include "mis/checkers.hpp"
#include "sim/engine.hpp"
#include "sim/phase.hpp"

namespace dgap {
namespace {

TEST(LinialSchedule, StepsUsePrimesAboveKDelta) {
  auto s = linial_schedule(1'000'000, 4);
  for (const auto& step : s.steps) {
    EXPECT_TRUE(is_prime(step.q));
    EXPECT_GT(step.q, step.k * 4);
    EXPECT_GE(ipow_sat(step.q, static_cast<int>(step.k + 1)), 1);
  }
  EXPECT_GT(s.total_rounds, 0);
}

TEST(LinialSchedule, ZeroDegreeIsTrivial) {
  auto s = linial_schedule(100, 0);
  EXPECT_TRUE(s.steps.empty());
  EXPECT_EQ(s.final_colors, 1);
  EXPECT_EQ(s.total_rounds, 1);
}

TEST(LinialSchedule, IterationCountGrowsLikeLogStar) {
  // Doubling d exponentially should add only O(1) iterations.
  const auto small = linial_schedule(1 << 10, 3).steps.size();
  const auto large = linial_schedule(1LL << 40, 3).steps.size();
  EXPECT_LE(large, small + 3);
}

TEST(LinialSchedule, FinalPaletteIndependentOfD) {
  const auto a = linial_schedule(1000, 5);
  const auto b = linial_schedule(1'000'000'000, 5);
  EXPECT_EQ(a.final_colors, b.final_colors);
  EXPECT_EQ(a.stage_rounds, b.stage_rounds);
  EXPECT_EQ(a.tail_count, b.tail_count);
}

TEST(LinialColoring, ProperOnFamilies) {
  Rng rng(1);
  for (auto make : {+[]() { return make_line(12); },
                    +[]() { return make_ring(9); },
                    +[]() { return make_clique(6); },
                    +[]() { return make_grid(4, 4); },
                    +[]() { return make_star(8); },
                    +[]() { return make_hypercube(4); }}) {
    Graph g = make();
    randomize_ids(g, rng);
    auto result = run_algorithm(g, linial_coloring_algorithm());
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_coloring(g, result.outputs, g.max_degree() + 1))
        << check_coloring(g, result.outputs, g.max_degree() + 1);
  }
}

TEST(LinialColoring, RoundsMatchSchedule) {
  Rng rng(2);
  Graph g = make_ring(20);
  randomize_ids(g, rng);
  auto result = run_algorithm(g, linial_coloring_algorithm());
  // The wrapper outputs in the round the phase reports finished.
  EXPECT_EQ(result.rounds, linial_total_rounds(g.id_bound(), g.max_degree()));
}

TEST(LinialColoring, RoundsIndependentOfNForFixedDelta) {
  // Round count depends on (d, Δ) only — the hallmark the Parallel template
  // exploits. Same Δ and d ⇒ same round count on very different n.
  Rng rng(3);
  Graph small = make_ring(8);
  Graph large = make_ring(200);
  randomize_ids_sparse(small, 1000, rng);
  randomize_ids_sparse(large, 1000, rng);
  auto rs = run_algorithm(small, linial_coloring_algorithm());
  auto rl = run_algorithm(large, linial_coloring_algorithm());
  EXPECT_EQ(rs.rounds, rl.rounds);
}

TEST(LinialColoring, SparseHugeIdentifiersStillWork) {
  Rng rng(4);
  Graph g = make_grid(5, 4);
  randomize_ids_sparse(g, 1'000'000'000, rng);
  auto result = run_algorithm(g, linial_coloring_algorithm());
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(is_valid_coloring(g, result.outputs, g.max_degree() + 1));
}

TEST(LinialColoring, CongestFriendly) {
  // Linial sends one word per message (the current color).
  Rng rng(5);
  Graph g = make_ring(16);
  randomize_ids(g, rng);
  EngineOptions opt;
  opt.congest_word_limit = 1;
  auto result = run_algorithm(g, linial_coloring_algorithm(), opt);
  EXPECT_EQ(result.congest_violations, 0);
}

// Fault injection: kill a random subset of nodes mid-run; the surviving
// partial coloring must stay proper — this is the fault tolerance that
// Lemma 11 requires of part 1.
class KillSwitchColoring final : public NodeProgram {
 public:
  KillSwitchColoring(int kill_round, bool victim)
      : kill_round_(kill_round), victim_(victim) {}

  void on_send(NodeContext& ctx) override {
    Channel ch(ctx, 0);
    phase_.on_send(ctx, ch);
  }
  void on_receive(NodeContext& ctx) override {
    Channel ch(ctx, 0);
    if (victim_ && ctx.round() == kill_round_) {
      ctx.set_output(-1);  // "crashed" marker
      ctx.terminate();
      return;
    }
    if (phase_.on_receive(ctx, ch) == PhaseProgram::Status::kFinished) {
      ctx.set_output(phase_.palette_color());
      ctx.terminate();
    }
  }

 private:
  LinialColoringPhase phase_;
  int kill_round_;
  bool victim_;
};

TEST(LinialColoring, FaultTolerantUnderMidRunCrashes) {
  Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = make_gnp(16, 0.25, rng);
    randomize_ids(g, rng);
    const int total = linial_total_rounds(g.id_bound(), g.max_degree());
    std::vector<bool> victim(16, false);
    for (NodeId v = 0; v < 16; ++v) victim[v] = rng.flip(0.3);
    const int kill_round = 1 + static_cast<int>(rng.next_below(
                                   static_cast<std::uint64_t>(total)));
    auto result = run_algorithm(g, [&](NodeId v) {
      return std::make_unique<KillSwitchColoring>(kill_round, victim[v]);
    });
    EXPECT_TRUE(result.completed);
    // Survivors must form a proper partial coloring.
    auto outputs = result.outputs;
    for (auto& o : outputs) {
      if (o == -1) o = kUndefined;  // crashed nodes have no color
    }
    EXPECT_TRUE(is_proper_partial_coloring(g, outputs, g.max_degree() + 1))
        << "trial " << trial << " kill_round " << kill_round;
  }
}

// The stage is scheduled exactly when 2Δ+1 stage rounds plus the class
// tail from q colors are fewer than the class tail from the post-Linial
// palette, and the reduction after the Linial steps then stays within
// 5Δ+1 rounds (6Δ+2 when every class is re-examined).
TEST(LinialSchedule, StageExactlyWhenShorter) {
  int with_stage = 0, without_stage = 0;
  for (const std::int64_t d : std::vector<std::int64_t>{
           1, 2, 10, 60, 256, 1000, 257 * 257, 1'000'000, 1'000'000'000,
           std::int64_t{1} << 40, std::int64_t{1} << 62}) {
    for (int delta = 0; delta <= 200; ++delta) {
      for (const bool all : {false, true}) {
        const LinialSchedule s = linial_schedule(d, delta, all);
        const std::string where = "d=" + std::to_string(d) +
                                  " delta=" + std::to_string(delta) +
                                  " all=" + std::to_string(all);
        const auto steps = static_cast<int>(s.steps.size());
        if (delta == 0) {
          EXPECT_EQ(s.total_rounds, 1) << where;
          continue;
        }
        const std::int64_t floor = all ? 0 : delta + 1;
        const std::int64_t q = next_prime(2 * delta + 1);
        const std::int64_t class_tail =
            std::max<std::int64_t>(s.final_colors - floor, 0);
        const std::int64_t staged = 2 * delta + 1 + (q - floor);
        ASSERT_GE(q * q, s.final_colors) << where;
        if (staged < class_tail) {
          ++with_stage;
          EXPECT_EQ(s.stage_q, q) << where;
          EXPECT_EQ(s.stage_rounds, 2 * delta + 1) << where;
          EXPECT_EQ(s.tail_first, q - 1) << where;
          EXPECT_EQ(s.tail_count, q - floor) << where;
        } else {
          ++without_stage;
          EXPECT_EQ(s.stage_q, 0) << where;
          EXPECT_EQ(s.stage_rounds, 0) << where;
          EXPECT_EQ(s.tail_first, s.final_colors - 1) << where;
          EXPECT_EQ(s.tail_count, class_tail) << where;
        }
        EXPECT_EQ(s.total_rounds, steps + std::min(staged, class_tail) + 1)
            << where;
        EXPECT_LE(s.total_rounds - steps - 1,
                  all ? 6 * delta + 2 : 5 * delta + 1)
            << where;
      }
    }
  }
  EXPECT_GT(with_stage, 0);
  EXPECT_GT(without_stage, 0);
}

// The caps at d = 10^6 that the O(Δ² + log* d) class tail put at 520 and
// 3,456 rounds (vertex, Δ = 11 and 27) and 11,452 (line graph, Δ = 27).
TEST(LinialSchedule, CapsAtAMillionIdentifiers) {
  EXPECT_EQ(linial_total_rounds(1'000'000, 11), 37);
  EXPECT_EQ(linial_total_rounds(1'000'000, 27), 89);
  EXPECT_EQ(line_graph_linial_total_rounds(1'000'000, 27), 215);
}

/// Part 1 at one node under a crash set: the node crashes (terminates with
/// the marker -1) before its round `crash_step`, if any, and otherwise
/// logs its state after every round of the phase into `log`, indexed by
/// round − 1 and node. State is the node's color (vertex phase) or the
/// (neighbor, color) list of its live edges (line-graph phase).
template <class Phase, class State>
class CrashingPart1 final : public NodeProgram {
 public:
  CrashingPart1(int crash_step, std::vector<std::vector<State>>& log)
      : crash_step_(crash_step), log_(log) {}

  void on_send(NodeContext& ctx) override {
    Channel ch(ctx, 0);
    phase_.on_send(ctx, ch);
  }
  void on_receive(NodeContext& ctx) override {
    Channel ch(ctx, 0);
    if (++step_ == crash_step_) {
      ctx.set_output(-1);
      ctx.terminate();
      return;
    }
    const bool finished =
        phase_.on_receive(ctx, ch) == PhaseProgram::Status::kFinished;
    State& state = log_.at(static_cast<std::size_t>(step_ - 1))[ctx.index()];
    if constexpr (std::is_same_v<Phase, LinialColoringPhase>) {
      state = phase_.palette_color() - 1;
    } else {
      for (NodeId u : ctx.neighbors()) {
        const Value c = phase_.edge_palette_color(u);
        if (c != kUndefined) state.emplace_back(u, c - 1);
      }
    }
    if (finished) {
      ctx.set_output(0);
      ctx.terminate();
    }
  }

 private:
  Phase phase_;
  int step_ = 0;
  int crash_step_;
  std::vector<std::vector<State>>& log_;
};

/// A run of part 1 under a crash set: the crash round of every node (0 for
/// none) and the log of the others.
template <class State>
struct CrashRun {
  std::vector<int> crash_step;
  std::vector<std::vector<State>> log;

  /// Whether node v ran round r + 1 of the phase (and logged log[r][v]).
  bool ran(std::size_t r, NodeId v) const {
    const int c = crash_step[static_cast<std::size_t>(v)];
    return c == 0 || static_cast<std::size_t>(c) > r + 1;
  }
};

/// Runs `Phase` on `g` with each node crashing, with probability 0.3, at a
/// uniform round of the phase.
template <class Phase, class State>
CrashRun<State> run_under_crashes(const Graph& g, int total, Rng& rng) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  CrashRun<State> run{std::vector<int>(n, 0),
                      std::vector<std::vector<State>>(
                          static_cast<std::size_t>(total),
                          std::vector<State>(n))};
  for (int& c : run.crash_step) {
    if (rng.flip(0.3)) {
      c = 1 + static_cast<int>(
                  rng.next_below(static_cast<std::uint64_t>(total)));
    }
  }
  const RunResult result = run_algorithm(g, [&](NodeId v) {
    return std::make_unique<CrashingPart1<Phase, State>>(
        run.crash_step[static_cast<std::size_t>(v)], run.log);
  });
  EXPECT_TRUE(result.completed);
  return run;
}

// Lemma 11 needs part 1 to stay correct while nodes vanish. Under random
// crash sets, the survivors' coloring is proper after every round of the
// phase, every color has a = 0 once the 2Δ+1 stage rounds end, and the
// final colors fit the Δ+1 palette.
TEST(LinialStage, VertexPhaseProperEveryRoundUnderCrashes) {
  Rng rng(31);
  int staged = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<NodeId>(12 + rng.next_below(20));
    Graph g = make_gnp(n, 0.1 + 0.3 * rng.uniform01(), rng);
    randomize_ids_sparse(g, trial % 2 == 0 ? 1'000'000 : 4 * n, rng);
    const LinialSchedule s = linial_schedule(g.id_bound(), g.max_degree());
    const auto run = run_under_crashes<LinialColoringPhase, Value>(
        g, s.total_rounds, rng);
    const auto stage_end = s.steps.size() +
                           static_cast<std::size_t>(s.stage_rounds);
    for (std::size_t r = 0; r < run.log.size(); ++r) {
      const std::vector<Value>& color = run.log[r];
      for (const auto& [u, v] : g.edges()) {
        if (!run.ran(r, u) || !run.ran(r, v)) continue;
        EXPECT_NE(color[u], color[v]) << "trial " << trial << " round "
                                      << r + 1 << " edge " << u << "-" << v;
      }
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (!run.ran(r, v)) continue;
        if (s.stage_rounds > 0 && r + 1 >= stage_end) {
          EXPECT_LT(color[v], s.stage_q) << "trial " << trial;
        }
        if (r + 1 == run.log.size()) {
          EXPECT_LE(color[v], g.max_degree()) << "trial " << trial;
        }
      }
    }
    if (s.stage_rounds > 0) {
      ++staged;
      EXPECT_EQ(s.stage_rounds, 2 * g.max_degree() + 1);
    }
  }
  EXPECT_GE(staged, 20);
}

TEST(LinialStage, LineGraphPhaseProperEveryRoundUnderCrashes) {
  using Edges = std::vector<std::pair<NodeId, Value>>;
  Rng rng(32);
  int staged = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<NodeId>(10 + rng.next_below(16));
    Graph g = make_gnp(n, 0.1 + 0.25 * rng.uniform01(), rng);
    randomize_ids_sparse(g, trial % 2 == 0 ? 1'000'000 : 2 * n, rng);
    const int delta_l = std::max(2 * g.max_degree() - 2, 0);
    const std::int64_t edge_ids = (g.id_bound() + 1) * (g.id_bound() + 1);
    const LinialSchedule s = linial_schedule(edge_ids, delta_l, true);
    ASSERT_EQ(s.total_rounds,
              line_graph_linial_total_rounds(g.id_bound(), g.max_degree()));
    const auto run = run_under_crashes<LineGraphLinialPhase, Edges>(
        g, s.total_rounds, rng);
    const auto stage_end = s.steps.size() +
                           static_cast<std::size_t>(s.stage_rounds);
    const auto color_at = [](const Edges& edges, NodeId u) {
      for (const auto& [w, c] : edges) {
        if (w == u) return c;
      }
      return kUndefined;
    };
    for (std::size_t r = 0; r < run.log.size(); ++r) {
      for (NodeId v = 0; v < n; ++v) {
        if (!run.ran(r, v)) continue;
        // Adjacent edges at v differ; each edge's two copies agree.
        const Edges& at_v = run.log[r][v];
        for (std::size_t i = 0; i < at_v.size(); ++i) {
          for (std::size_t j = i + 1; j < at_v.size(); ++j) {
            EXPECT_NE(at_v[i].second, at_v[j].second)
                << "trial " << trial << " round " << r + 1 << " node " << v;
          }
          if (s.stage_rounds > 0 && r + 1 >= stage_end) {
            EXPECT_LT(at_v[i].second, s.stage_q) << "trial " << trial;
          }
          const NodeId u = at_v[i].first;
          if (!run.ran(r, u)) continue;
          EXPECT_EQ(at_v[i].second, color_at(run.log[r][u], v))
              << "trial " << trial << " round " << r + 1 << " edge " << v
              << "-" << u;
        }
      }
    }
    if (s.stage_rounds > 0) {
      ++staged;
      EXPECT_EQ(s.stage_rounds, 2 * delta_l + 1);
    }
  }
  EXPECT_GE(staged, 20);
}

TEST(LinialMisReference, SolvesMis) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = make_gnp(14, 0.3, rng);
    randomize_ids(g, rng);
    auto result = run_algorithm(
        g, phase_as_algorithm(whole_reference(linial_mis_reference())));
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(is_valid_mis(g, result.outputs)) << check_mis(g, result.outputs);
    EXPECT_LE(result.rounds,
              linial_mis_total_rounds(g.id_bound(), g.max_degree()));
  }
}

}  // namespace
}  // namespace dgap
