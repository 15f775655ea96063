// Determinism guarantees of the engine's data plane (docs/MODEL.md,
// "Simulator internals & performance model"):
//
//  1. A run is a pure function of (graph, factory, options): running twice
//     with the same seed yields a bit-identical RunResult.
//  2. num_threads never affects the result: parallel runs are bit-identical
//     to the serial run (shard slices are pure functions of the active
//     count, and per-shard output is merged in slice order).
//  3. Algorithms break symmetry by identifiers, never internal indices, so
//     permuting the internal node order yields the same per-identifier
//     outputs and the same global metrics.
//  4. The link layer (enforcing congest policies) preserves all of the
//     above: its schedule is computed serially between the sharded send
//     and receive phases, so num_threads and node-order shuffles cannot
//     change what arrives when.
//  5. Pull broadcasts (gathered by each receiver) deliver exactly what
//     per-neighbor send records deliver, inbox by inbox.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "mis/algorithms.hpp"
#include "mis/checkers.hpp"
#include "mis/congest_global.hpp"
#include "random/luby.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "sim/transcript.hpp"

namespace dgap {
namespace {

/// Everything in RunResult except the host-clock measurements (wall_ms and
/// phase_ns, explicitly excluded from the determinism contract) and
/// peak_arena_bytes (capacity growth may differ across thread counts; the
/// *contents* may not). The suppression split is compared exactly: the
/// parallel delivery's per-shard accounts must merge to the same counters
/// the serial reference path charges.
void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.termination_round, b.termination_round);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.edge_outputs, b.edge_outputs);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_words, b.total_words);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.words_sent, b.words_sent);
  EXPECT_EQ(a.messages_suppressed, b.messages_suppressed);
  EXPECT_EQ(a.words_suppressed, b.words_suppressed);
  EXPECT_EQ(a.max_message_words, b.max_message_words);
  EXPECT_EQ(a.congest_violations, b.congest_violations);
  EXPECT_EQ(a.deferred_messages, b.deferred_messages);
  EXPECT_EQ(a.deferred_words, b.deferred_words);
  EXPECT_EQ(a.truncated_messages, b.truncated_messages);
  EXPECT_EQ(a.truncated_words, b.truncated_words);
  EXPECT_EQ(a.link_backlog_peak_words, b.link_backlog_peak_words);
  EXPECT_EQ(a.rounds_with_backlog, b.rounds_with_backlog);
  EXPECT_EQ(a.active_per_round, b.active_per_round);
  EXPECT_EQ(a.terminations_per_round, b.terminations_per_round);
}

Graph test_graph() {
  Rng rng(2024);
  Graph g = make_gnp(512, 8.0 / 512, rng);
  randomize_ids(g, rng);
  return g;
}

EngineOptions recording_options(int num_threads) {
  EngineOptions opt;
  opt.record_active_per_round = true;
  opt.record_terminations = true;
  opt.num_threads = num_threads;
  return opt;
}

TEST(EngineDeterminism, SameSeedSameResult) {
  Graph g = test_graph();
  auto one = run_algorithm(g, luby_mis_algorithm(42), recording_options(1));
  auto two = run_algorithm(g, luby_mis_algorithm(42), recording_options(1));
  ASSERT_TRUE(one.completed);
  expect_identical(one, two);
}

TEST(EngineDeterminism, ThreadCountInvariant) {
  Graph g = test_graph();
  auto serial = run_algorithm(g, luby_mis_algorithm(42), recording_options(1));
  ASSERT_TRUE(serial.completed);
  for (int threads : {2, 4, 8}) {
    auto parallel =
        run_algorithm(g, luby_mis_algorithm(42), recording_options(threads));
    expect_identical(serial, parallel);
  }
}

/// Rebuild g with internal node v placed at index perm[v] (identifiers
/// travel with the nodes, so the logical graph is unchanged).
Graph permute_indices(const Graph& g, const std::vector<NodeId>& perm) {
  const NodeId n = g.num_nodes();
  GraphBuilder b(n);
  for (const auto& [u, v] : g.edges()) b.add_edge(perm[u], perm[v]);
  Graph h = b.build();
  std::vector<Value> ids(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) ids[perm[v]] = g.id(v);
  h.set_ids(std::move(ids));
  h.set_id_bound(g.id_bound());
  return h;
}

TEST(EngineDeterminism, NodeOrderShuffleInvariantPerIdentifier) {
  Graph g = test_graph();
  auto base = run_algorithm(g, luby_mis_algorithm(42), recording_options(1));
  ASSERT_TRUE(base.completed);

  Rng rng(99);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<NodeId> perm(static_cast<std::size_t>(g.num_nodes()));
    for (NodeId v = 0; v < g.num_nodes(); ++v) perm[v] = v;
    rng.shuffle(perm);
    Graph h = permute_indices(g, perm);
    auto shuffled =
        run_algorithm(h, luby_mis_algorithm(42), recording_options(1));

    // Global quantities are index-free and must match exactly.
    EXPECT_EQ(base.completed, shuffled.completed);
    EXPECT_EQ(base.rounds, shuffled.rounds);
    EXPECT_EQ(base.total_messages, shuffled.total_messages);
    EXPECT_EQ(base.total_words, shuffled.total_words);
    EXPECT_EQ(base.max_message_words, shuffled.max_message_words);
    EXPECT_EQ(base.active_per_round, shuffled.active_per_round);

    // Per-node quantities must match after translating indices to ids.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(base.outputs[v], shuffled.outputs[perm[v]])
          << "output of id " << g.id(v);
      EXPECT_EQ(base.termination_round[v], shuffled.termination_round[perm[v]])
          << "termination round of id " << g.id(v);
    }
  }
}

/// A bandwidth-hungry workload for the deferral scheduler: every node
/// broadcasts a 4-word burst for three rounds and stays active until it
/// has received all 3 * degree bursts, folding every delivered word (and
/// its arrival round) into an order-sensitive digest. Under a budget
/// below 4 the link layer must spread the bursts over many rounds, and
/// any scheduling nondeterminism changes some node's digest.
class BurstEchoProgram final : public NodeProgram {
 public:
  void on_send(NodeContext& ctx) override {
    if (ctx.round() <= 3) {
      ctx.broadcast({ctx.id(), Value{ctx.round()}, 7, 9});
    }
  }
  void on_receive(NodeContext& ctx) override {
    for (const Message& m : ctx.inbox()) {
      ++received_;
      digest_ = digest_ * 1315423911u + static_cast<std::uint64_t>(m.from);
      for (std::size_t i = 0; i < m.words.size(); ++i) {
        digest_ = digest_ * 31u + static_cast<std::uint64_t>(m.words.at(i));
      }
      digest_ = digest_ * 31u + static_cast<std::uint64_t>(ctx.round());
    }
    if (received_ >= 3 * ctx.degree()) {
      ctx.set_output(static_cast<Value>(digest_ >> 1));
      ctx.terminate();
    }
  }

 private:
  int received_ = 0;
  std::uint64_t digest_ = 1;
};

TEST(EngineDeterminism, DeferPolicyThreadCountInvariant) {
  Graph g = test_graph();
  EngineOptions opt = recording_options(1);
  opt.congest_policy = CongestPolicy::kDefer;
  opt.congest_word_limit = 3;  // below the burst width: every send defers
  auto factory = [](NodeId) { return std::make_unique<BurstEchoProgram>(); };
  auto serial = run_algorithm(g, factory, opt);
  ASSERT_TRUE(serial.completed);
  EXPECT_GT(serial.deferred_words, 0);
  EXPECT_GT(serial.rounds_with_backlog, 0);
  auto repeat = run_algorithm(g, factory, opt);
  expect_identical(serial, repeat);
  for (int threads : {2, 4, 8}) {
    opt.num_threads = threads;
    auto parallel = run_algorithm(g, factory, opt);
    expect_identical(serial, parallel);
  }
}

TEST(EngineDeterminism, DeferPolicyShuffleInvariantPerIdentifier) {
  // congest_global under a 1-word budget exercises the stretched schedule
  // and per-link carry-over; the deferral pattern is a function of the
  // logical graph, so internal node order must not leak into any metric.
  Rng graph_rng(7);
  Graph g = make_random_connected(24, 12, graph_rng);
  randomize_ids(g, graph_rng);
  EngineOptions opt = recording_options(1);
  opt.congest_policy = CongestPolicy::kDefer;
  opt.congest_word_limit = 1;
  auto base = run_algorithm(g, congest_global_mis_algorithm(), opt);
  ASSERT_TRUE(base.completed);
  ASSERT_TRUE(is_valid_mis(g, base.outputs));
  EXPECT_GT(base.deferred_messages, 0);

  for (int threads : {2, 4, 8}) {
    EngineOptions topt = opt;
    topt.num_threads = threads;
    auto parallel = run_algorithm(g, congest_global_mis_algorithm(), topt);
    expect_identical(base, parallel);
  }

  Rng rng(99);
  for (int trial = 0; trial < 2; ++trial) {
    std::vector<NodeId> perm(static_cast<std::size_t>(g.num_nodes()));
    for (NodeId v = 0; v < g.num_nodes(); ++v) perm[v] = v;
    rng.shuffle(perm);
    Graph h = permute_indices(g, perm);
    auto shuffled = run_algorithm(h, congest_global_mis_algorithm(), opt);
    EXPECT_EQ(base.completed, shuffled.completed);
    EXPECT_EQ(base.rounds, shuffled.rounds);
    EXPECT_EQ(base.total_messages, shuffled.total_messages);
    EXPECT_EQ(base.total_words, shuffled.total_words);
    EXPECT_EQ(base.deferred_messages, shuffled.deferred_messages);
    EXPECT_EQ(base.deferred_words, shuffled.deferred_words);
    EXPECT_EQ(base.link_backlog_peak_words, shuffled.link_backlog_peak_words);
    EXPECT_EQ(base.rounds_with_backlog, shuffled.rounds_with_backlog);
    EXPECT_EQ(base.active_per_round, shuffled.active_per_round);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(base.outputs[v], shuffled.outputs[perm[v]])
          << "output of id " << g.id(v);
      EXPECT_EQ(base.termination_round[v], shuffled.termination_round[perm[v]])
          << "termination round of id " << g.id(v);
    }
  }
}

// A full payload-level transcript is the strongest determinism witness:
// byte equality pins every delivered word of every round, not just the
// aggregate counters expect_identical compares. The serial transcript is
// the reference; any thread count must reproduce it bit-for-bit. (The
// header deliberately omits num_threads, so equal logical runs give equal
// bytes — see sim/transcript.hpp.)
TEST(EngineDeterminism, TranscriptIsThreadCountInvariant) {
  Graph g = test_graph();
  EngineOptions opt = recording_options(1);
  const RecordedRun serial =
      record_run(g, {}, luby_mis_algorithm(42), opt, TraceDetail::kPayloads);
  ASSERT_TRUE(serial.result.completed);
  for (int threads : {2, 4, 8}) {
    EngineOptions topt = opt;
    topt.num_threads = threads;
    const RecordedRun parallel = record_run(g, {}, luby_mis_algorithm(42),
                                            topt, TraceDetail::kPayloads);
    EXPECT_EQ(serial.transcript, parallel.transcript)
        << "num_threads = " << threads;
    expect_identical(serial.result, parallel.result);
  }
}

TEST(EngineDeterminism, DeferTranscriptIsThreadCountInvariant) {
  // Under kDefer the transcript records effective arrival rounds, so byte
  // equality also pins the whole deferral schedule.
  Graph g = test_graph();
  EngineOptions opt = recording_options(1);
  opt.congest_policy = CongestPolicy::kDefer;
  opt.congest_word_limit = 3;
  auto factory = [](NodeId) { return std::make_unique<BurstEchoProgram>(); };
  const RecordedRun serial =
      record_run(g, {}, factory, opt, TraceDetail::kPayloads);
  ASSERT_TRUE(serial.result.completed);
  ASSERT_GT(serial.result.deferred_words, 0);
  for (int threads : {2, 4, 8}) {
    EngineOptions topt = opt;
    topt.num_threads = threads;
    const RecordedRun parallel =
        record_run(g, {}, factory, topt, TraceDetail::kPayloads);
    EXPECT_EQ(serial.transcript, parallel.transcript)
        << "num_threads = " << threads;
  }
}

// Compile knobs change which delivery path charges the suppression split
// (the parallel pass keys the resend cache to receiver-shard ownership),
// so sweep them together with streamed transcripts: the on-disk bytes of
// a compiled run must be identical for every thread count, and nonzero
// suppression must merge to the same counters.
TEST(EngineDeterminism, CompiledStreamedTranscriptIsThreadCountInvariant) {
  // flood_min re-broadcasts its stabilized minimum every round, so the
  // resend cache must suppress most of the traffic.
  Rng rng(31);
  Graph g = make_random_connected(48, 40, rng);
  randomize_ids(g, rng);
  EngineOptions opt = recording_options(1);
  opt.compile.cache_resends = true;
  opt.compile.decode_defaults = true;
  const std::string serial_path = "/tmp/dgap_det_serial.dgaptr";
  const StreamedRun serial =
      record_run_to_file(serial_path, g, {}, flood_min_algorithm(), opt,
                         TraceDetail::kPayloads, "det_compiled");
  ASSERT_TRUE(serial.result.completed);
  EXPECT_GT(serial.result.messages_suppressed, 0);
  const std::vector<std::uint8_t> serial_bytes =
      read_transcript_file(serial_path);
  std::remove(serial_path.c_str());
  ASSERT_FALSE(serial_bytes.empty());
  for (int threads : {2, 4, 8}) {
    EngineOptions topt = opt;
    topt.num_threads = threads;
    const std::string path = "/tmp/dgap_det_threaded.dgaptr";
    const StreamedRun parallel =
        record_run_to_file(path, g, {}, flood_min_algorithm(), topt,
                           TraceDetail::kPayloads, "det_compiled");
    const std::vector<std::uint8_t> bytes = read_transcript_file(path);
    std::remove(path.c_str());
    EXPECT_EQ(serial_bytes, bytes) << "num_threads = " << threads;
    expect_identical(serial.result, parallel.result);
  }
}

// The same sweep at kRounds granularity: the cheap spine must be as
// thread-invariant as the full payload capture.
TEST(EngineDeterminism, CompiledRoundsTranscriptIsThreadCountInvariant) {
  Rng rng(32);
  Graph g = make_random_connected(64, 48, rng);
  randomize_ids(g, rng);
  EngineOptions opt = recording_options(1);
  opt.compile.cache_resends = true;
  const RecordedRun serial =
      record_run(g, {}, flood_min_algorithm(), opt, TraceDetail::kRounds);
  ASSERT_TRUE(serial.result.completed);
  EXPECT_GT(serial.result.messages_suppressed, 0);
  for (int threads : {2, 4, 8}) {
    EngineOptions topt = opt;
    topt.num_threads = threads;
    const RecordedRun parallel =
        record_run(g, {}, flood_min_algorithm(), topt, TraceDetail::kRounds);
    EXPECT_EQ(serial.transcript, parallel.transcript)
        << "num_threads = " << threads;
    expect_identical(serial.result, parallel.result);
  }
}

/// Seeded random traffic for the pull-versus-record comparison. Each
/// node-round draws, from (seed, identifier, round, everything received so
/// far), a few operations: broadcasts on channels 0–3 (so some sequences
/// decrease), point-to-point sends to any neighbor (terminated ones
/// included), payloads of 0–5 words (crossing SendRecord::kInlineCap), and
/// a declared default that some payloads match. Received messages fold
/// into a digest that steers later draws, idle() calls and terminations
/// (some with an edge output), so any delivery difference changes the run.
class RandomTrafficProgram final : public NodeProgram {
 public:
  explicit RandomTrafficProgram(std::uint64_t seed) : seed_(seed) {}

  void on_send(NodeContext& ctx) override {
    Rng rng = draw(ctx, 1);
    if (rng.flip(0.4)) {
      ctx.declare_default({static_cast<Value>(rng.next_below(2))},
                          static_cast<int>(rng.next_below(4)));
    }
    const auto nb = ctx.neighbors();
    const int ops = static_cast<int>(rng.next_below(4));
    for (int k = 0; k < ops; ++k) {
      const int channel = static_cast<int>(rng.next_below(4));
      const std::size_t len = rng.next_below(6);
      Value words[5];
      for (std::size_t i = 0; i < len; ++i) {
        words[i] = static_cast<Value>(rng.next_below(3));
      }
      if (nb.empty() || rng.flip(0.7)) {
        ctx.broadcast(words, len, channel);
      } else {
        ctx.send(nb[rng.next_below(nb.size())], words, len, channel);
      }
    }
  }

  void on_receive(NodeContext& ctx) override {
    for (const Message& m : ctx.inbox()) {
      digest_ = digest_ * 1315423911u +
                static_cast<std::uint64_t>(ctx.neighbor_id(m.from));
      digest_ = digest_ * 31u + static_cast<std::uint64_t>(m.channel);
      for (const Value w : m.words) {
        digest_ = digest_ * 31u + static_cast<std::uint64_t>(w);
      }
      digest_ = digest_ * 31u + m.words.size();
    }
    Rng rng = draw(ctx, 2);
    const auto an = ctx.active_neighbors();
    if (ctx.round() >= 4 && rng.flip(0.25)) {
      ctx.set_output(static_cast<Value>(digest_ >> 1));
      if (!an.empty() && rng.flip(0.5)) {
        ctx.set_output_for(an[rng.next_below(an.size())],
                           static_cast<Value>(digest_ & 0xff));
      }
      ctx.terminate();
    } else if (!an.empty() && rng.flip(0.15)) {
      ctx.idle();
    }
  }

 private:
  Rng draw(const NodeContext& ctx, std::uint64_t salt) const {
    return Rng(seed_ ^
               (static_cast<std::uint64_t>(ctx.id()) * 0x9e3779b97f4a7c15ULL) ^
               (static_cast<std::uint64_t>(ctx.round()) * 0xbf58476d1ce4e5b9ULL) ^
               (digest_ * 0x94d049bb133111ebULL) ^ salt);
  }

  std::uint64_t seed_;
  std::uint64_t digest_ = 1;
};

/// Every receiver's per-round message sequence from a kPayloads transcript.
using InboxKey = std::pair<int, NodeId>;  // (round, receiver)
using InboxEntry = std::tuple<NodeId, int, std::vector<Value>, bool>;
std::map<InboxKey, std::vector<InboxEntry>> inboxes_of(
    const std::vector<std::uint8_t>& bytes) {
  std::map<InboxKey, std::vector<InboxEntry>> out;
  for (const TranscriptRound& r : decode_transcript(bytes).rounds) {
    for (const TranscriptMessage& m : r.messages) {
      out[{r.round, m.to}].emplace_back(m.from, m.channel, m.words,
                                        m.suppressed);
    }
  }
  return out;
}

// Broadcasts take the pull path under kCount; kFail with a budget no
// link's round traffic reaches keeps every broadcast on per-neighbor
// records through the link layer. The two must agree on the RunResult and,
// receiver by receiver, on every round's inbox. (Whole transcripts differ
// in their headers, and in receiver order on rounds with decreasing
// channels, where the link layer sees the repaired order.)
TEST(EngineDeterminism, PullBroadcastsMatchRecordDeliveryPerReceiver) {
  Rng graph_rng(41);
  Graph g = make_random_connected(96, 160, graph_rng);
  randomize_ids(g, graph_rng);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const ProgramFactory factory = [seed](NodeId) {
      return std::make_unique<RandomTrafficProgram>(seed);
    };
    for (const bool defaults : {false, true}) {
      EngineOptions records = recording_options(1);
      records.max_rounds = 60;
      records.compile.decode_defaults = defaults;
      records.congest_policy = CongestPolicy::kFail;
      records.congest_word_limit = 1000;
      const RecordedRun reference =
          record_run(g, {}, factory, records, TraceDetail::kPayloads);
      EXPECT_GT(reference.result.rounds, 4);
      EXPECT_GT(reference.result.total_messages, 0);
      EXPECT_EQ(reference.result.messages_suppressed > 0, defaults);
      const auto want = inboxes_of(reference.transcript);
      std::vector<std::uint8_t> serial_pull;
      for (int threads : {1, 2, 4}) {
        EngineOptions pull = records;
        pull.congest_policy = CongestPolicy::kCount;
        pull.num_threads = threads;
        const RecordedRun run =
            record_run(g, {}, factory, pull, TraceDetail::kPayloads);
        const std::string where = "seed " + std::to_string(seed) +
                                  " defaults " + std::to_string(defaults) +
                                  " threads " + std::to_string(threads);
        expect_identical(reference.result, run.result);
        EXPECT_TRUE(want == inboxes_of(run.transcript)) << where;
        if (threads == 1) {
          serial_pull = run.transcript;
        } else {
          EXPECT_EQ(serial_pull, run.transcript) << where;
        }
      }
    }
  }
}

/// Pull broadcasts to sleeping receivers. Every node broadcasts its
/// identifier in round 1; then each even node with an odd neighbor idles.
/// In round 2 only odd nodes broadcast, so every sleeper is woken by the
/// walk over pull senders' prefixes and joins the receive worklist between
/// awake nodes; everyone terminates in round 2. Inboxes fold into the
/// output, so a missed or extra delivery changes the result.
class SleepyBroadcastProgram final : public NodeProgram {
 public:
  void on_send(NodeContext& ctx) override {
    if (ctx.round() == 1 || (ctx.round() == 2 && ctx.id() % 2 != 0)) {
      ctx.broadcast({ctx.id()});
    }
  }
  void on_receive(NodeContext& ctx) override {
    for (const Message& m : ctx.inbox()) {
      digest_ = digest_ * 1315423911u + static_cast<std::uint64_t>(m.words[0]);
    }
    if (ctx.round() >= 2) {
      ctx.set_output(static_cast<Value>(digest_ >> 1));
      ctx.terminate();
    } else if (ctx.id() % 2 == 0 && has_odd_neighbor(ctx)) {
      ctx.idle();
    }
  }

 private:
  static bool has_odd_neighbor(const NodeContext& ctx) {
    for (const NodeId u : ctx.neighbors()) {
      if (ctx.neighbor_id(u) % 2 != 0) return true;
    }
    return false;
  }

  std::uint64_t digest_ = 1;
};

// From 2^16 nodes on, the engine prefetches the gather and the termination
// pass ahead (docs/MODEL.md, "Memory latency at scale"); every other case
// in this file is far below that size. Run it at ~70,000 nodes under every
// thread count: Luby gathers pull broadcasts every other round, greedy MIS
// idles and is woken by termination notices, and SleepyBroadcastProgram
// wakes sleepers from pull senders' prefixes.
TEST(EngineDeterminism, LookaheadSizedRunsAreThreadCountInvariant) {
  constexpr NodeId kNodes = 70'000;
  static_assert(kNodes >= NodeId{1} << 16, "must take the lookahead");
  Rng rng(70);
  Graph g = make_gnp_sparse(kNodes, 4.0 / kNodes, rng);
  randomize_ids(g, rng);
  struct Case {
    const char* name;
    ProgramFactory factory;
    int rounds;  // pinned when nonzero
  };
  const std::vector<Case> cases = {
      {"luby", luby_mis_algorithm(42), 0},
      {"greedy", greedy_mis_algorithm(), 0},
      // Round 2 only if the wake walk reached every sleeper.
      {"sleepy_broadcast",
       [](NodeId) { return std::make_unique<SleepyBroadcastProgram>(); }, 2},
  };
  for (const auto& [name, factory, rounds] : cases) {
    const RecordedRun serial = record_run(g, {}, factory, recording_options(1),
                                          TraceDetail::kPayloads);
    ASSERT_TRUE(serial.result.completed) << name;
    if (rounds != 0) {
      EXPECT_EQ(serial.result.rounds, rounds) << name;
    }
    for (int threads : {2, 4}) {
      const RecordedRun parallel =
          record_run(g, {}, factory, recording_options(threads),
                     TraceDetail::kPayloads);
      EXPECT_EQ(serial.transcript, parallel.transcript)
          << name << " num_threads = " << threads;
      expect_identical(serial.result, parallel.result);
    }
  }
}

// The record_* options are reimplemented on the trace spine
// (detail::RunRecordSink); the fields they fill must stay bit-identical
// to the transcript's own per-round view of the same run.
TEST(EngineDeterminism, RecordOptionsMatchTranscriptSpine) {
  Graph g = test_graph();
  const RecordedRun run = record_run(g, {}, luby_mis_algorithm(42),
                                     recording_options(1),
                                     TraceDetail::kRounds);
  const Transcript t = decode_transcript(run.transcript);
  ASSERT_EQ(t.rounds.size(), run.result.active_per_round.size());
  ASSERT_EQ(t.rounds.size(), run.result.terminations_per_round.size());
  for (std::size_t i = 0; i < t.rounds.size(); ++i) {
    EXPECT_EQ(t.rounds[i].active, run.result.active_per_round[i]);
    std::vector<NodeId> terms;
    for (const TranscriptTermination& term : t.rounds[i].terminations) {
      terms.push_back(term.node);
    }
    EXPECT_EQ(terms, run.result.terminations_per_round[i]);
  }
}

}  // namespace
}  // namespace dgap
