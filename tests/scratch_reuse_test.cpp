// EngineScratch reuse contract (referenced from EngineScratch's doc
// comment in sim/engine.hpp): handing one scratch to consecutive engines
// over DECREASING graph sizes must be invisible in the output. Decreasing
// is the dangerous direction — every scratch array retains capacity (and
// stale contents) from the larger predecessor, so any engine code path
// that trusts vector size instead of re-initializing the live prefix
// would read a dead node's flags, inbox stamps, or CSR neighbor pool.
// The witness is the strongest one the simulator has: full kPayloads
// transcripts of the reused-scratch runs must be byte-identical to
// fresh-scratch runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "mis/algorithms.hpp"
#include "random/luby.hpp"
#include "sim/engine.hpp"
#include "sim/transcript.hpp"

namespace dgap {
namespace {

struct Step {
  std::string label;
  Graph graph;
  ProgramFactory (*make)();
};

/// Nodes with an odd identifier broadcast (id, round) for four rounds; every
/// node folds what it hears into its output. Run right after a step where
/// every node broadcast, a stale outbox stamp of the previous engine would
/// make an even-identifier node look like a sender: an extra message.
class ParityBroadcastProgram final : public NodeProgram {
 public:
  void on_send(NodeContext& ctx) override {
    if (ctx.id() % 2 == 1) ctx.broadcast({ctx.id(), Value{ctx.round()}});
  }
  void on_receive(NodeContext& ctx) override {
    for (const Message& m : ctx.inbox()) {
      digest_ = digest_ * 31 + static_cast<std::uint64_t>(m.words.at(0));
      digest_ = digest_ * 31 + static_cast<std::uint64_t>(m.words.at(1));
    }
    if (ctx.round() == 4) {
      ctx.set_output(static_cast<Value>(digest_ >> 1));
      ctx.terminate();
    }
  }

 private:
  std::uint64_t digest_ = 1;
};

ProgramFactory parity_broadcast_algorithm() {
  return [](NodeId) { return std::make_unique<ParityBroadcastProgram>(); };
}

/// Strictly decreasing sizes, alternating workloads so the scratch's
/// message arena, outbox, idle/wake worklists, and SoA prefixes all
/// shrink: Luby broadcasts from every node in its first round, the parity
/// step from only some; greedy on a sorted ring exercises the idle path
/// with most nodes parked.
std::vector<Step> decreasing_steps() {
  std::vector<Step> steps;
  {
    Rng rng(71);
    Graph g = make_gnp(512, 8.0 / 512, rng);
    randomize_ids(g, rng);
    steps.push_back({"gnp512/luby", std::move(g), +[] {
                       return luby_mis_algorithm(42);
                     }});
  }
  {
    Rng rng(72);
    Graph g = make_grid(16, 16);
    randomize_ids(g, rng);
    steps.push_back({"grid256/luby", std::move(g), +[] {
                       return luby_mis_algorithm(7);
                     }});
  }
  {
    Rng rng(74);
    Graph g = make_gnp(192, 8.0 / 192, rng);
    randomize_ids(g, rng);
    steps.push_back(
        {"gnp192/parity", std::move(g), &parity_broadcast_algorithm});
  }
  {
    Rng rng(73);
    Graph g = make_gnp(128, 12.0 / 128, rng);
    randomize_ids(g, rng);
    steps.push_back(
        {"gnp128/greedy", std::move(g), &greedy_mis_algorithm});
  }
  {
    Graph g = make_ring(64);
    sorted_ids(g);
    steps.push_back(
        {"ring64/greedy", std::move(g), &greedy_mis_algorithm});
  }
  {
    Graph g = make_line(16);
    sorted_ids(g);
    steps.push_back({"line16/greedy", std::move(g), &greedy_mis_algorithm});
  }
  return steps;
}

/// One engine run with a full-payload transcript; `scratch` == nullptr is
/// the fresh-buffers baseline.
std::vector<std::uint8_t> record(const Step& step, EngineScratch* scratch,
                                 int num_threads = 1) {
  TranscriptWriter writer(TraceDetail::kPayloads, "scratch_reuse");
  EngineOptions opt;
  opt.num_threads = num_threads;
  opt.trace_sink = &writer;
  Engine engine(step.graph, empty_predictions(), step.make(), opt, scratch);
  const RunResult result = engine.run();
  EXPECT_TRUE(result.completed) << step.label;
  return writer.take_bytes();
}

TEST(ScratchReuse, DecreasingSizesMatchFreshScratchByteForByte) {
  const std::vector<Step> steps = decreasing_steps();
  EngineScratch scratch;
  for (const Step& step : steps) {
    const std::vector<std::uint8_t> fresh = record(step, nullptr);
    const std::vector<std::uint8_t> reused = record(step, &scratch);
    EXPECT_EQ(fresh, reused) << step.label;
  }
}

TEST(ScratchReuse, SurvivesRepeatedShrinkGrowCycles) {
  // Re-run the whole descending ladder through the same scratch several
  // times: each cycle re-grows to the largest size and shrinks again, so
  // capacity is stale in both directions by the second pass.
  const std::vector<Step> steps = decreasing_steps();
  std::vector<std::vector<std::uint8_t>> fresh;
  for (const Step& step : steps) fresh.push_back(record(step, nullptr));
  EngineScratch scratch;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (std::size_t i = 0; i < steps.size(); ++i) {
      EXPECT_EQ(fresh[i], record(steps[i], &scratch))
          << steps[i].label << " cycle " << cycle;
    }
  }
}

TEST(ScratchReuse, ThreadedDeliveryOnReusedScratchStaysIdentical) {
  // Sharded delivery writes per-thread send buffers through the same
  // scratch; the one-thread fresh-scratch transcript is still the contract.
  const std::vector<Step> steps = decreasing_steps();
  EngineScratch scratch;
  for (const Step& step : steps) {
    const std::vector<std::uint8_t> fresh = record(step, nullptr);
    EXPECT_EQ(fresh, record(step, &scratch, /*num_threads=*/2))
        << step.label;
  }
}

TEST(ScratchReuse, RejectedThreadCountLeavesTheScratchAlone) {
  // The range checks run before the engine touches the scratch, so a
  // rejected num_threads allocates no shards in the caller's scratch.
  // (Only 65,536 is tried: it fails the check and starts no thread.)
  const std::vector<Step> steps = decreasing_steps();
  EngineScratch scratch;
  record(steps.front(), &scratch, /*num_threads=*/2);
  ASSERT_EQ(scratch.shards.size(), 2u);
  EngineOptions opt;
  opt.num_threads = 65'536;
  EXPECT_THROW(Engine engine(steps.front().graph, empty_predictions(),
                             greedy_mis_algorithm(), opt, &scratch),
               std::invalid_argument);
  EXPECT_EQ(scratch.shards.size(), 2u);
}

}  // namespace
}  // namespace dgap
