// The engine against the reference model of docs/MODEL.md
// (tests/reference_sim.hpp): seeded random programs under every engine
// option must produce the model's RunResult and, message by message, the
// model's inboxes in transcript order (rounds, then receivers, ascending).
// The thread-count tests in
// engine_determinism_test pin that the engine agrees with itself; this
// binary pins what it agrees on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "random_traffic.hpp"
#include "reference_sim.hpp"
#include "sim/engine.hpp"
#include "sim/transcript.hpp"

namespace dgap {
namespace {

struct Congest {
  const char* name;
  CongestPolicy policy;
  int limit;
};

const Congest kCongest[] = {
    {"count", CongestPolicy::kCount, 0},
    {"defer B=1", CongestPolicy::kDefer, 1},
    {"defer B=2", CongestPolicy::kDefer, 2},
    {"defer B=4", CongestPolicy::kDefer, 4},
    {"fail", CongestPolicy::kFail, 1000},  // a budget no link reaches
};

struct Compile {
  const char* name;
  CompileOptions options;
};

const Compile kCompile[] = {
    {"off", {}},
    {"cache", {.cache_resends = true}},
    {"cache+defaults", {.cache_resends = true, .decode_defaults = true}},
};

/// One engine run with a kPayloads transcript, kept in memory or streamed
/// to a file, on `scratch` or on the engine's own.
std::vector<std::uint8_t> record(const Graph& g, const ProgramFactory& factory,
                                 EngineOptions options, bool stream,
                                 EngineScratch* scratch, RunResult& result) {
  const std::string path = ::testing::TempDir() + "dgap_reference_sim.dgaptr";
  TranscriptWriter writer(TraceDetail::kPayloads);
  if (stream) writer.stream_to(path);
  options.trace_sink = &writer;
  Engine engine(g, empty_predictions(), factory, options, scratch);
  result = engine.run();
  if (!stream) return writer.take_bytes();
  std::vector<std::uint8_t> bytes = read_transcript_file(path);
  std::remove(path.c_str());
  return bytes;
}

struct Family {
  const char* name;
  Graph graph;
};

/// A sparse family with degree-1 nodes and a dense one.
std::vector<Family> families() {
  Rng rng(2025);
  Graph sparse = make_random_connected(40, 6, rng);
  randomize_ids(sparse, rng);
  Graph dense = make_gnp(16, 0.6, rng);
  randomize_ids(dense, rng);
  std::vector<Family> out;
  out.push_back({"sparse", std::move(sparse)});
  out.push_back({"dense", std::move(dense)});
  return out;
}

TEST(ReferenceModel, EngineMatchesModelUnderEveryOption) {
  const std::vector<Family> fams = families();
  NodeId leaves = 0;
  for (NodeId v = 0; v < fams[0].graph.num_nodes(); ++v) {
    leaves += fams[0].graph.degree(v) == 1 ? 1 : 0;
  }
  ASSERT_GT(leaves, 0);
  EngineScratch shared;  // reused by consecutive engines across the matrix
  // Each group runs threads 1, 2 and 4, then threads 1 again with scratch
  // reuse and the transcript mode both flipped; the first run's pair of
  // modes cycles over the groups. Every run of a group writes the same
  // bytes.
  struct Variant {
    int threads;
    bool flip_reuse, flip_stream;
  };
  constexpr Variant kVariants[] = {
      {1, false, false}, {2, false, true}, {4, true, false}, {1, true, true}};
  int group = 0;
  std::int64_t suppressed = 0, deferred = 0, quiescent = 0;
  for (const auto& [family, g] : fams) {
    for (const std::uint64_t seed : {1u, 2u}) {
      for (const Compile& compile : kCompile) {
        for (const Congest& congest : kCongest) {
          EngineOptions opt;
          opt.max_rounds = 60;
          opt.compile = compile.options;
          opt.congest_policy = congest.policy;
          opt.congest_word_limit = congest.limit;
          const std::string where =
              std::string(family) + " seed " + std::to_string(seed) + " " +
              compile.name + " " + congest.name;
          const ref::Run want =
              ref::run_model(g, model_factory<RandomTraffic>(seed), opt);
          EXPECT_GT(want.result.rounds, 4) << where;
          suppressed += want.result.messages_suppressed;
          deferred += want.result.deferred_messages;
          // Every active node asleep, nothing in flight: the run stops.
          if (!want.result.completed && want.result.rounds < opt.max_rounds) {
            ++quiescent;
          }
          std::vector<std::uint8_t> first;
          for (const Variant& v : kVariants) {
            const bool reuse = (group % 2 == 0) != v.flip_reuse;
            const bool stream = (group / 2 % 2 == 0) != v.flip_stream;
            EngineOptions topt = opt;
            topt.num_threads = v.threads;
            RunResult got;
            const std::vector<std::uint8_t> bytes =
                record(g, engine_factory<RandomTraffic>(seed), topt, stream,
                       reuse ? &shared : nullptr, got);
            SCOPED_TRACE(where + " threads " + std::to_string(v.threads) +
                         (reuse ? " reused scratch" : "") +
                         (stream ? " streamed" : ""));
            expect_identical(want.result, got);
            EXPECT_EQ(inbox_mismatch(want.inboxes, bytes), "");
            if (first.empty()) {
              first = bytes;
            } else {
              EXPECT_EQ(first, bytes);
            }
          }
          ++group;
        }
      }
    }
  }
  // The matrix exercises what it claims to.
  EXPECT_GT(suppressed, 0);
  EXPECT_GT(deferred, 0);
  EXPECT_GT(quiescent, 0);
}

TEST(ReferenceModel, ExceededFailBudgetThrowsInBoth) {
  Rng rng(3);
  const Graph g = make_random_connected(24, 8, rng);
  EngineOptions opt;
  opt.congest_policy = CongestPolicy::kFail;
  opt.congest_word_limit = 2;  // payloads reach 5 words
  EXPECT_THROW(ref::run_model(g, model_factory<RandomTraffic>(1), opt),
               std::invalid_argument);
  for (const int threads : {1, 2}) {
    opt.num_threads = threads;
    EXPECT_THROW(run_algorithm(g, engine_factory<RandomTraffic>(1), opt),
                 std::invalid_argument);
  }
}

// From 2^16 nodes on, the engine prefetches the gather ahead (docs/MODEL.md,
// "Memory latency at scale"). One round on the graph of
// EngineDeterminism.LookaheadSizedRunsAreThreadCountInvariant gathers
// about 330,000 messages; the model and the transcript comparison, not
// the engine, take most of the test's time.
TEST(ReferenceModel, LookaheadSizedRunMatchesModel) {
  constexpr NodeId kNodes = 70'000;
  static_assert(kNodes >= NodeId{1} << 16, "must take the lookahead");
  Rng rng(70);
  Graph g = make_gnp_sparse(kNodes, 4.0 / kNodes, rng);
  randomize_ids(g, rng);
  EngineOptions opt;
  opt.max_rounds = 1;
  const ref::Run want =
      ref::run_model(g, model_factory<RandomTraffic>(9), opt);
  const RecordedRun one = record_run(g, {}, engine_factory<RandomTraffic>(9),
                                     opt, TraceDetail::kPayloads);
  expect_identical(want.result, one.result);
  EXPECT_EQ(inbox_mismatch(want.inboxes, one.transcript), "");
  // Four threads write the same bytes, so they meet the model too.
  opt.num_threads = 4;
  const RecordedRun four = record_run(g, {}, engine_factory<RandomTraffic>(9),
                                      opt, TraceDetail::kPayloads);
  expect_identical(want.result, four.result);
  EXPECT_TRUE(one.transcript == four.transcript);
}

// ---------------------------------------------------------------------------
// The termination pass's two directions (detail::pull_terminations): push
// walks the terminated nodes' rows, pull each shard's own prefixes.
// ---------------------------------------------------------------------------

enum Act { kStay, kIdle, kExit };

/// What node `id` does at the end of `round`, and the rounds in which
/// awake nodes broadcast.
struct Script {
  Act (*act)(Value id, int round);
  int talk_rounds;
};

/// Follows a Script. An awake node folds its inbox and its view — both
/// active_neighbors() and neighbor_outputs() — into a digest every round,
/// broadcasts the digest in the talk rounds, and exits with it as its
/// output (and, for a third of the digests, one edge output). It keeps
/// its idle promise as RandomTraffic does: asleep until its inbox is
/// nonempty or its view shrinks.
template <typename Ctx>
class ScriptedExits {
 public:
  explicit ScriptedExits(Script s) : s_(s) {}

  void on_send(Ctx& ctx) {
    if (asleep(ctx) || ctx.round() > s_.talk_rounds) return;
    const Value word = static_cast<Value>(digest_ >> 1);
    ctx.broadcast(&word, 1);
  }

  void on_receive(Ctx& ctx) {
    if (ctx.inbox().empty() && asleep(ctx)) return;
    idle_view_ = kAwake;
    for (const Message& m : ctx.inbox()) fold(m.words[0]);
    for (const NodeId u : ctx.active_neighbors()) fold(ctx.neighbor_id(u));
    const auto outs = ctx.neighbor_outputs();
    for (std::size_t j = 0; j < outs.size(); ++j) fold(outs[j]);
    switch (s_.act(ctx.id(), ctx.round())) {
      case kStay:
        break;
      case kIdle:
        ctx.idle();
        idle_view_ = ctx.active_neighbors().size();
        break;
      case kExit:
        ctx.set_output(static_cast<Value>(digest_ >> 1));
        if (digest_ % 3 == 0 && !ctx.active_neighbors().empty()) {
          ctx.set_output_for(ctx.active_neighbors()[0], 1);  // 2-word notices
        }
        ctx.terminate();
        break;
    }
  }

 private:
  static constexpr std::size_t kAwake = ~std::size_t{0};

  bool asleep(const Ctx& ctx) {
    if (idle_view_ == ctx.active_neighbors().size()) return true;
    idle_view_ = kAwake;
    return false;
  }
  void fold(Value x) {
    digest_ = digest_ * 1315423911u + static_cast<std::uint64_t>(x);
  }

  Script s_;
  std::uint64_t digest_ = 1;
  std::size_t idle_view_ = kAwake;
};

/// All but 1/64 of the nodes exit in round 2, the rest in round 4; the
/// round-3 broadcasts reach exactly the pulled views.
Act dense(Value id, int round) {
  if (round == 2 && id % 64 != 1) return kExit;
  return round == 4 ? kExit : kStay;
}

/// A fifth of the nodes idle in round 1, and nothing is sent after it, so
/// only a notice can wake them. Most others exit in round 2, a pull round;
/// a sleeper exits once woken, the rest exit in round 4.
Act pulled_wake(Value id, int round) {
  if (id % 5 == 0) return round == 1 ? kIdle : round >= 3 ? kExit : kStay;
  if (round == 2 && id % 64 != 1) return kExit;
  return round == 4 ? kExit : kStay;
}

/// On a path with identifiers in order, one or two exits per round in
/// rounds 2–4 (push; 498's exit wakes the sleeper 497 in round 3), then
/// every awake node in round 6 (pull), which wakes the sleepers that exit
/// in round 7 (pull).
Act push_then_pull(Value id, int round) {
  if (id % 7 == 0) return round == 1 ? kIdle : round >= 3 ? kExit : kStay;
  if ((round == 2 && id == 498) || (round == 3 && id == 100) ||
      (round == 4 && id == 900)) {
    return kExit;
  }
  return round == 6 ? kExit : kStay;
}

/// At lookahead size: 70 exits in round 2 (push, 140 receivers, so the
/// compaction prefetches), all but 1% in round 3 (pull), the rest in
/// round 4.
Act lookahead_push_then_pull(Value id, int round) {
  if (round == 2) return id % 1000 == 500 ? kExit : kStay;
  if (round == 3) return id % 100 != 0 ? kExit : kStay;
  return round == 4 ? kExit : kStay;
}

TEST(ReferenceModel, TerminationPassMatchesModelInBothDirections) {
  struct Case {
    const char* name;
    Graph graph;
    Script script;
    std::vector<int> push_rounds, pull_rounds;
    int woken_round;  // only sleepers a notice woke exit in it (0: none)
  };
  Rng rng(24);
  std::vector<Case> cases;
  cases.push_back({"dense", make_gnp_sparse(2000, 8.0 / 2000, rng),
                   {dense, 3}, {}, {2}, 0});
  cases.push_back({"pulled wake", make_gnp_sparse(2000, 8.0 / 2000, rng),
                   {pulled_wake, 1}, {}, {2}, 3});
  cases.push_back(
      {"push then pull", make_line(1000), {push_then_pull, 1}, {2, 3, 4},
       {6, 7}, 7});
  cases.push_back({"lookahead push then pull", make_line(70'000),
                   {lookahead_push_then_pull, 0}, {2}, {3}, 0});
  EngineScratch shared;  // one scratch across both directions and cases
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Graph& g = c.graph;
    EngineOptions opt;
    opt.max_rounds = 20;
    const ref::Run want =
        ref::run_model(g, model_factory<ScriptedExits>(c.script), opt);
    // The instance takes the directions it is named for, at every S.
    const auto exits = [&want](int round) {
      return static_cast<std::size_t>(
          std::count(want.result.termination_round.begin(),
                     want.result.termination_round.end(), round));
    };
    const auto n = static_cast<std::size_t>(g.num_nodes());
    for (const std::size_t S : {1u, 2u, 4u}) {
      for (std::size_t t = 0; t < S; ++t) {
        const std::size_t range = n * (t + 1) / S - n * t / S;
        for (const int r : c.push_rounds) {
          EXPECT_GT(exits(r), 0u) << r;
          EXPECT_FALSE(detail::pull_terminations(exits(r), range)) << r;
        }
        for (const int r : c.pull_rounds) {
          EXPECT_TRUE(detail::pull_terminations(exits(r), range)) << r;
        }
      }
    }
    if (c.woken_round > 0) {
      EXPECT_GT(exits(c.woken_round), 0u);
    }
    for (const int threads : {1, 2, 4}) {
      EngineOptions topt = opt;
      topt.num_threads = threads;
      RunResult got;
      const std::vector<std::uint8_t> bytes =
          record(g, engine_factory<ScriptedExits>(c.script), topt,
                 /*stream=*/false, threads == 2 ? nullptr : &shared, got);
      SCOPED_TRACE("threads " + std::to_string(threads));
      expect_identical(want.result, got);
      EXPECT_EQ(inbox_mismatch(want.inboxes, bytes), "");
    }
  }
}

/// Node id 1 idles in round 1 and broadcasts in round 2 although nothing
/// woke it; its neighbors stay awake, so round 2 happens.
class Insomniac final : public ref::Program {
 public:
  void on_send(ref::Context& ctx) override {
    const Value word = 7;
    if (ctx.round() == 2 && ctx.id() == 1) ctx.broadcast(&word, 1);
  }
  void on_receive(ref::Context& ctx) override {
    if (ctx.round() == 1 && ctx.id() == 1) ctx.idle();
  }
};

TEST(ReferenceModel, ReportsASleeperThatSends) {
  const Graph g = make_line(3);
  try {
    ref::run_model(
        g, [](NodeId) { return std::make_unique<Insomniac>(); }, {});
    ADD_FAILURE() << "the model accepted a send from a sleeping node";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("sent asleep in round 2"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace dgap
