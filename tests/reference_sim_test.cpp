// The engine against the reference model of docs/MODEL.md
// (tests/reference_sim.hpp): seeded random programs under every engine
// option must produce the model's RunResult and, message by message, the
// model's inboxes in transcript order (rounds, then receivers, ascending).
// The thread-count tests in
// engine_determinism_test pin that the engine agrees with itself; this
// binary pins what it agrees on.
#include <gtest/gtest.h>

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
  Engine engine(g, empty_predictions(), factory, options, nullptr, scratch);
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
