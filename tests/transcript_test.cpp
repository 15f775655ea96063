// The transcript subsystem (sim/transcript.hpp):
//
//  1. Codec round-trip: encode(decode(x)) == x and decode(encode(t)) == t,
//     fuzzed over random event streams at both detail levels, including
//     extreme payload values (kUndefined = INT64_MIN).
//  2. Recording: a TranscriptWriter's bytes decode to exactly the run the
//     engine executed — active counts, terminations and their outputs —
//     and re-encoding reproduces the bytes.
//  3. Robustness: truncated or corrupted files fail with DGAP_REQUIRE
//     (std::invalid_argument) — never UB (this test runs under
//     asan/ubsan in CI) — and so do a version-1 header, detail code 1, a
//     flags byte other than 0 or 2, a round whose receivers descend, a
//     policy code above kDefer and a count of 2^31 − 1 words or edge
//     outputs.
//  4. Diff: first divergent (round, field) between two recorded runs.
//  5. Golden regression: re-recording each canonical case reproduces its
//     committed transcript under tests/golden/ byte for byte
//     (DGAP_GOLDEN_DIR; the same files gate CI via `dgap_trace verify`),
//     and a golden with one payload word flipped fails, naming its round.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cases.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "random/luby.hpp"
#include "sim/transcript.hpp"

namespace dgap {
namespace {

// ---------------------------------------------------------------------------
// Fuzzed codec round-trip
// ---------------------------------------------------------------------------

Value random_value(Rng& rng) {
  switch (rng.next_below(8)) {
    case 0: return kUndefined;  // INT64_MIN — the zigzag worst case
    case 1: return std::numeric_limits<Value>::max();
    case 2: return -1;
    default: return rng.uniform(-1000, 1000);
  }
}

Transcript random_transcript(Rng& rng) {
  Transcript t;
  t.detail = rng.flip(0.5) ? TraceDetail::kPayloads : TraceDetail::kRounds;
  t.label = "fuzz_" + std::to_string(rng.next_below(1000));
  if (rng.flip(0.5)) {
    GraphSpec spec;
    spec.family = static_cast<GraphSpec::Family>(
        rng.next_below(static_cast<std::uint64_t>(GraphSpec::Family::kGnm) + 1));
    spec.a = rng.uniform(0, 1 << 20);
    spec.b = rng.uniform(0, 100);
    spec.p = rng.uniform01();
    spec.seed = rng.next();
    spec.ids = static_cast<GraphSpec::IdPolicy>(rng.next_below(3));
    t.spec = spec;
  }
  t.n = static_cast<NodeId>(rng.uniform(1, 40));
  t.max_rounds = static_cast<int>(rng.uniform(0, 1'000'000));
  t.congest_word_limit = static_cast<int>(rng.uniform(0, 8));
  t.congest_policy = static_cast<CongestPolicy>(rng.next_below(2));
  const int rounds = static_cast<int>(rng.next_below(8));
  for (int r = 1; r <= rounds; ++r) {
    TranscriptRound round;
    round.round = r;
    round.active = static_cast<NodeId>(rng.uniform(0, t.n));
    if (t.detail == TraceDetail::kPayloads) {
      const int messages = static_cast<int>(rng.next_below(10));
      for (int i = 0; i < messages; ++i) {
        TranscriptMessage m;
        m.from = static_cast<NodeId>(rng.next_below(
            static_cast<std::uint64_t>(t.n)));
        m.to = static_cast<NodeId>(rng.next_below(
            static_cast<std::uint64_t>(t.n)));
        m.channel = static_cast<int>(rng.uniform(-3, 3));
        m.words.resize(rng.next_below(6));
        m.suppressed = rng.flip(0.1);
        for (Value& w : m.words) w = random_value(rng);
        round.messages.push_back(std::move(m));
      }
      // A round lists its receivers in ascending order.
      std::ranges::stable_sort(round.messages, {}, &TranscriptMessage::to);
    }
    const int terms = static_cast<int>(rng.next_below(4));
    for (int i = 0; i < terms; ++i) {
      TranscriptTermination term;
      term.node = static_cast<NodeId>(rng.next_below(
          static_cast<std::uint64_t>(t.n)));
      term.output = random_value(rng);
      const int edges = static_cast<int>(rng.next_below(3));
      for (int e = 0; e < edges; ++e) {
        term.edge_outputs.emplace_back(
            static_cast<NodeId>(rng.next_below(
                static_cast<std::uint64_t>(t.n))),
            random_value(rng));
      }
      round.terminations.push_back(std::move(term));
    }
    t.rounds.push_back(std::move(round));
  }
  t.summary.completed = rng.flip(0.5);
  t.summary.rounds = rounds;
  t.summary.total_messages = rng.uniform(0, 1 << 20);
  t.summary.total_words = rng.uniform(0, 1 << 20);
  return t;
}

TEST(TranscriptCodec, FuzzedRoundTrip) {
  Rng rng(7001);
  for (int iter = 0; iter < 200; ++iter) {
    const Transcript t = random_transcript(rng);
    const std::vector<std::uint8_t> bytes = encode_transcript(t);
    const Transcript back = decode_transcript(bytes);
    ASSERT_EQ(t, back) << "iteration " << iter;
    // Encoding the decoded form reproduces the bytes exactly.
    ASSERT_EQ(bytes, encode_transcript(back)) << "iteration " << iter;
  }
}

TEST(TranscriptCodec, EveryTruncationFailsCleanly) {
  Rng rng(7002);
  const Transcript t = random_transcript(rng);
  const std::vector<std::uint8_t> bytes = encode_transcript(t);
  ASSERT_GT(bytes.size(), 0u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(len));
    EXPECT_THROW(decode_transcript(prefix), std::invalid_argument)
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(TranscriptCodec, EveryByteFlipFailsCleanly) {
  Rng rng(7003);
  Transcript t;
  while (t.rounds.empty()) t = random_transcript(rng);
  const std::vector<std::uint8_t> bytes = encode_transcript(t);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> corrupt = bytes;
      corrupt[i] ^= flip;
      try {
        const Transcript back = decode_transcript(corrupt);
        // A flip that still decodes must not silently pass itself off as
        // the original (it cannot: checksums cover every byte).
        ADD_FAILURE() << "corrupt byte " << i << " (^" << int(flip)
                      << ") decoded without error";
        (void)back;
      } catch (const std::invalid_argument&) {
        // expected
      }
    }
  }
}

/// Decoding `bytes` throws std::invalid_argument naming `why`.
void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     const std::string& why) {
  try {
    decode_transcript(bytes);
    ADD_FAILURE() << "decoded a transcript with " << why;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  }
}

/// One round holding one one-word message, 9 -> 4.
Transcript one_message_transcript() {
  Transcript t;
  t.n = 16;
  TranscriptRound round;
  round.round = 1;
  round.active = 16;
  TranscriptMessage m;
  m.from = 9;
  m.to = 4;
  m.words = {7};
  round.messages.push_back(m);
  t.rounds.push_back(round);
  t.summary.rounds = 1;
  return t;
}

/// Offset of the first byte where two encodings differ.
std::size_t first_difference(const std::vector<std::uint8_t>& a,
                             const std::vector<std::uint8_t>& b) {
  return static_cast<std::size_t>(std::ranges::mismatch(a, b).in1 -
                                  a.begin());
}

// The decoder checks the version, the detail level, receiver order and the
// policy code before any checksum, so one patched byte of a valid encoding
// reaches each check. The encoder refuses to write the last three.

TEST(TranscriptCodec, RejectsVersionOneAndDetailCodeOne) {
  Transcript t = one_message_transcript();
  const std::vector<std::uint8_t> valid = encode_transcript(t);
  ASSERT_EQ(valid[4], kTranscriptVersion);  // the varint after "DGTR"
  std::vector<std::uint8_t> bytes = valid;
  bytes[4] = 1;
  expect_rejected(bytes, "unsupported transcript version");
  ASSERT_EQ(valid[5], 2);  // the detail level, kPayloads
  bytes = valid;
  bytes[5] = 1;
  expect_rejected(bytes, "invalid transcript detail level");
  t.detail = static_cast<TraceDetail>(1);
  EXPECT_THROW(encode_transcript(t), std::invalid_argument);
}

TEST(TranscriptCodec, RejectsFlagsBytesOtherThanZeroOrTwo) {
  Transcript t = one_message_transcript();
  const std::vector<std::uint8_t> plain = encode_transcript(t);
  t.rounds[0].messages[0].suppressed = true;
  const std::vector<std::uint8_t> suppressed = encode_transcript(t);
  // The first byte the suppressed flag changes is the flags byte.
  const std::size_t at = first_difference(plain, suppressed);
  ASSERT_EQ(plain[at], 0);
  ASSERT_EQ(suppressed[at], 2);
  for (const std::uint8_t flags : {std::uint8_t{1}, std::uint8_t{3}}) {
    std::vector<std::uint8_t> bytes = plain;
    bytes[at] = flags;
    expect_rejected(bytes, "invalid transcript message flags");
  }
}

TEST(TranscriptCodec, RejectsDescendingReceivers) {
  Transcript t = one_message_transcript();
  TranscriptMessage m = t.rounds[0].messages[0];
  m.to = 5;  // receivers 4, 5
  t.rounds[0].messages.push_back(m);
  const std::vector<std::uint8_t> valid = encode_transcript(t);
  t.rounds[0].messages[1].to = 6;
  const std::size_t at = first_difference(valid, encode_transcript(t));
  ASSERT_EQ(valid[at], 5);  // the second receiver's varint
  std::vector<std::uint8_t> bytes = valid;
  bytes[at] = 3;
  expect_rejected(bytes, "receivers out of order");
  t.rounds[0].messages[1].to = 3;
  EXPECT_THROW(encode_transcript(t), std::invalid_argument);
}

TEST(TranscriptCodec, RejectsPolicyCodesAboveDefer) {
  Transcript t = one_message_transcript();
  t.congest_policy = CongestPolicy::kDefer;
  const std::vector<std::uint8_t> valid = encode_transcript(t);
  t.congest_policy = CongestPolicy::kCount;
  const std::size_t at = first_difference(valid, encode_transcript(t));
  ASSERT_EQ(valid[at], 1);  // kDefer's code
  std::vector<std::uint8_t> bytes = valid;
  bytes[at] = 2;
  expect_rejected(bytes, "invalid transcript congest policy");
  t.congest_policy = static_cast<CongestPolicy>(2);
  EXPECT_THROW(encode_transcript(t), std::invalid_argument);
}

// A length is read before what it counts: a corrupt one claiming 2^31 − 1
// words or edge outputs fails as a bad transcript, not as a bad_alloc.
TEST(TranscriptCodec, HugeCountsFailCleanly) {
  Transcript t = one_message_transcript();
  t.rounds[0].terminations.push_back({4, 1, {{9, 2}}});
  const std::vector<std::uint8_t> valid = encode_transcript(t);
  Transcript longer = t;
  longer.rounds[0].messages[0].words.push_back(7);
  Transcript more = t;
  more.rounds[0].terminations[0].edge_outputs.push_back({10, 3});
  for (const Transcript& grown : {longer, more}) {
    const std::size_t at = first_difference(valid, encode_transcript(grown));
    ASSERT_EQ(valid[at], 1);  // the one-element count
    std::vector<std::uint8_t> bytes(valid.begin(), valid.begin() + at);
    for (const std::uint8_t b : {0xff, 0xff, 0xff, 0xff, 0x07}) {
      bytes.push_back(b);
    }
    bytes.insert(bytes.end(), valid.begin() + at + 1, valid.end());
    EXPECT_THROW(decode_transcript(bytes), std::invalid_argument);
  }
}

TEST(TranscriptCodec, GarbageInputFailsCleanly) {
  EXPECT_THROW(decode_transcript({}), std::invalid_argument);
  Rng rng(7004);
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<std::uint8_t> garbage(rng.next_below(200));
    for (std::uint8_t& b : garbage) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    EXPECT_THROW(decode_transcript(garbage), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Recording real runs
// ---------------------------------------------------------------------------

Graph fixture_graph() {
  Rng rng(505);
  Graph g = make_gnp(64, 6.0 / 64, rng);
  randomize_ids(g, rng);
  return g;
}

// The per-round view of a run, derived from RunResult::termination_round
// alone (the engine fills it outside the trace spine): the nodes active at
// the start of round r terminate in r or later, or never.
NodeId active_at(const RunResult& r, int round) {
  NodeId active = 0;
  for (int t : r.termination_round) active += (t == -1 || t >= round);
  return active;
}

// The nodes that terminated in round r, ascending.
std::vector<NodeId> terminated_in(const RunResult& r, int round) {
  std::vector<NodeId> nodes;
  for (std::size_t v = 0; v < r.termination_round.size(); ++v) {
    if (r.termination_round[v] == round) {
      nodes.push_back(static_cast<NodeId>(v));
    }
  }
  return nodes;
}

TEST(TranscriptRecord, DecodeMatchesRunAndReencodes) {
  const Graph g = fixture_graph();
  const RecordedRun run =
      record_run(g, {}, luby_mis_algorithm(11), {},
                 TraceDetail::kPayloads, "luby_fixture");
  const Transcript t = decode_transcript(run.transcript);

  EXPECT_EQ(t.label, "luby_fixture");
  EXPECT_FALSE(t.spec.has_value());
  EXPECT_EQ(t.n, g.num_nodes());
  EXPECT_EQ(t.summary.completed, run.result.completed);
  EXPECT_EQ(t.summary.rounds, run.result.rounds);
  EXPECT_EQ(t.summary.total_messages, run.result.total_messages);
  EXPECT_EQ(t.summary.total_words, run.result.total_words);
  ASSERT_EQ(static_cast<int>(t.rounds.size()), run.result.rounds);

  // The per-round view matches the RunResult's termination rounds and
  // outputs. The trailer totals are the engine's sender-side accounting;
  // the round blocks hold *deliveries*, which exclude sends charged to
  // nodes that had already terminated (see deliver_round_messages), so the
  // walked counts are a lower bound.
  std::int64_t messages = 0, words = 0;
  for (std::size_t i = 0; i < t.rounds.size(); ++i) {
    const int round = static_cast<int>(i) + 1;
    EXPECT_EQ(t.rounds[i].active, active_at(run.result, round));
    std::vector<NodeId> terms;
    for (const TranscriptTermination& term : t.rounds[i].terminations) {
      terms.push_back(term.node);
      EXPECT_EQ(term.output, run.result.outputs[term.node]);
    }
    EXPECT_EQ(terms, terminated_in(run.result, round));
    for (const TranscriptMessage& m : t.rounds[i].messages) {
      messages += 1;
      words += static_cast<std::int64_t>(m.words.size());
    }
  }
  EXPECT_LE(messages, run.result.total_messages);
  EXPECT_LE(words, run.result.total_words);
  EXPECT_GT(messages, 0);

  // encode_transcript is byte-identical to the writer.
  EXPECT_EQ(encode_transcript(t), run.transcript);
}

TEST(TranscriptRecord, DetailLevelsNest) {
  const Graph g = fixture_graph();
  const RecordedRun payloads = record_run(g, {}, luby_mis_algorithm(11), {},
                                          TraceDetail::kPayloads, "l");
  const RecordedRun rounds = record_run(g, {}, luby_mis_algorithm(11), {},
                                        TraceDetail::kRounds, "l");
  const Transcript tp = decode_transcript(payloads.transcript);
  const Transcript tr = decode_transcript(rounds.transcript);
  ASSERT_EQ(tp.rounds.size(), tr.rounds.size());
  EXPECT_LT(rounds.transcript.size(), payloads.transcript.size());
  for (std::size_t i = 0; i < tp.rounds.size(); ++i) {
    EXPECT_EQ(tp.rounds[i].active, tr.rounds[i].active);
    EXPECT_TRUE(tr.rounds[i].messages.empty());
    EXPECT_EQ(tp.rounds[i].terminations, tr.rounds[i].terminations);
  }
}

// ---------------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------------

TEST(TranscriptDiff, EqualRunsAreEqual) {
  const Graph g = fixture_graph();
  const RecordedRun a =
      record_run(g, {}, luby_mis_algorithm(11), {}, TraceDetail::kPayloads);
  const RecordedRun b =
      record_run(g, {}, luby_mis_algorithm(11), {}, TraceDetail::kPayloads);
  EXPECT_EQ(a.transcript, b.transcript);
  EXPECT_EQ(diff_transcripts(decode_transcript(a.transcript),
                             decode_transcript(b.transcript)),
            std::nullopt);
}

TEST(TranscriptDiff, SeedChangeReportsFirstDivergentRound) {
  const Graph g = fixture_graph();
  const RecordedRun a =
      record_run(g, {}, luby_mis_algorithm(11), {}, TraceDetail::kPayloads);
  const RecordedRun b =
      record_run(g, {}, luby_mis_algorithm(12), {}, TraceDetail::kPayloads);
  const auto d = diff_transcripts(decode_transcript(a.transcript),
                                  decode_transcript(b.transcript));
  ASSERT_TRUE(d.has_value());
  // Luby coins differ from the very first exchange.
  EXPECT_EQ(d->round, 1);
  EXPECT_FALSE(d->field.empty());
}

// ---------------------------------------------------------------------------
// Golden regression (the committed corpus; same files gate CI)
// ---------------------------------------------------------------------------

TEST(TranscriptGolden, CommittedTranscriptsVerifyAgainstLiveReruns) {
  for (const CanonicalCase& c : canonical_cases()) {
    const std::string path =
        std::string(DGAP_GOLDEN_DIR) + "/" + golden_file_name(c);
    const std::vector<std::uint8_t> bytes = read_transcript_file(path);
    const Transcript golden = decode_transcript(bytes);
    EXPECT_EQ(golden.label, c.name);
    ASSERT_TRUE(golden.spec.has_value()) << c.name;
    EXPECT_EQ(*golden.spec, c.spec) << c.name;
    // Re-recording reproduces the committed bytes exactly.
    EXPECT_NO_THROW(verify_canonical_case(c, bytes)) << c.name;
  }
}

TEST(TranscriptGolden, FlippedPayloadWordFailsVerifyNamingItsRound) {
  const CanonicalCase& c = *find_canonical_case("luby_gnp256");
  Transcript golden = decode_transcript(read_transcript_file(
      std::string(DGAP_GOLDEN_DIR) + "/" + golden_file_name(c)));
  // Flip the first payload word of the middle round.
  TranscriptRound& round = golden.rounds[golden.rounds.size() / 2];
  const auto m = std::ranges::find_if(
      round.messages,
      [](const TranscriptMessage& x) { return !x.words.empty(); });
  ASSERT_NE(m, round.messages.end());
  m->words[0] ^= 1;
  try {
    verify_canonical_case(c, encode_transcript(golden));
    FAIL() << "a golden with a flipped payload word verified";
  } catch (const std::logic_error& e) {
    const std::string want = "round " + std::to_string(round.round) + ":";
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

TEST(TranscriptGolden, CorpusSpansTheThreeEngineRegimes) {
  ASSERT_GE(canonical_cases().size(), 3u);
  bool has_defer = false, has_cut = false, has_predictions = false;
  for (const CanonicalCase& c : canonical_cases()) {
    const std::string path =
        std::string(DGAP_GOLDEN_DIR) + "/" + golden_file_name(c);
    const Transcript golden = decode_transcript(read_transcript_file(path));
    if (golden.congest_policy == CongestPolicy::kDefer) has_defer = true;
    if (!golden.summary.completed) has_cut = true;
    if (c.provider != nullptr) has_predictions = true;
  }
  EXPECT_TRUE(has_defer);
  EXPECT_TRUE(has_cut);
  EXPECT_TRUE(has_predictions);
}

}  // namespace
}  // namespace dgap
