// The dynamic-graph serving pipeline end-to-end:
//   1. Churn property sweep — seeds × churn rates × {MIS, matching,
//      coloring}: every epoch's warm output is a valid complete solution,
//      η is finite, and the per-epoch degradation bound holds exactly.
//   2. Determinism — identical ChurnSpec seeds give byte-identical
//      per-epoch transcripts across batch workers {1,2,4}; the committed
//      epoch-sequence golden re-verifies.
//   3. Result-cache correctness — hits are bit-identical to a fresh
//      harness's recompute (transcript bytes as witness), a served
//      transcript carries its own epoch's label, distinct predictions get
//      distinct keys, and a mutated cache entry trips the poisoning guard.
//   4. Identifier stability — node deletion + re-insertion never reuses a
//      live identifier, stale warm-start predictions referencing deleted
//      nodes are dropped, not passed through, the translators' outputs
//      are pinned by digest, and every edit-batch contract violation
//      throws.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "cases.hpp"
#include "graph/edits.hpp"
#include "predict/generators.hpp"
#include "predict/provider.hpp"
#include "predict/warm_start.hpp"
#include "sim/epoch.hpp"
#include "sim/result_cache.hpp"
#include "sim/transcript.hpp"
#include "templates/epoch_problems.hpp"

namespace dgap {
namespace {

EpochProblem problem_by_index(int p) {
  switch (p) {
    case 0: return epoch_mis();
    case 1: return epoch_matching();
    default: return epoch_coloring();
  }
}

// ---------------------------------------------------------------------------
// 1. Churn property sweep
// ---------------------------------------------------------------------------

struct ChurnCase {
  int problem;       // 0 = mis, 1 = matching, 2 = coloring
  std::uint64_t seed;
  double rate;       // shared by all four churn fractions
};

std::ostream& operator<<(std::ostream& os, const ChurnCase& c) {
  static const char* names[] = {"mis", "matching", "coloring"};
  return os << names[c.problem] << "_s" << c.seed << "_r"
            << static_cast<int>(c.rate * 100);
}

class ChurnSweepTest : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(ChurnSweepTest, EveryEpochValidAndWithinDegradationBound) {
  const ChurnCase& c = GetParam();
  const EpochProblem problem = problem_by_index(c.problem);
  EpochConfig config;
  config.base = GraphSpec::gnp(30, 0.12, c.seed);
  config.churn.seed = c.seed * 17 + 5;
  config.churn.edge_remove_frac = c.rate;
  config.churn.edge_add_frac = c.rate;
  config.churn.node_remove_frac = c.rate / 2;
  config.churn.node_add_frac = c.rate / 2;
  config.epochs = 4;

  // The harness itself checks validity per epoch (DGAP_ASSERT on the
  // problem's checker), so run() completing is already the validity sweep;
  // the inequalities below are the paper's per-epoch claims.
  EpochHarness harness(problem_by_index(c.problem), config);
  const EpochReport report = harness.run();
  ASSERT_EQ(report.epochs.size(), static_cast<std::size_t>(config.epochs));
  Graph g = config.base.build();
  for (const EpochRecord& e : report.epochs) {
    if (e.epoch > 0) g = apply_edits(g, config.churn.generate(g, e.epoch));
    ASSERT_TRUE(e.warm.completed) << "epoch " << e.epoch;
    ASSERT_TRUE(e.control.completed) << "epoch " << e.epoch;
    EXPECT_TRUE(problem.check(g, e.warm).empty())
        << "epoch " << e.epoch << ": " << problem.check(g, e.warm);
    EXPECT_GE(e.eta, 0) << "epoch " << e.epoch;
    EXPECT_LE(e.eta, e.nodes) << "epoch " << e.epoch;
    EXPECT_LE(e.warm.rounds, problem.degradation_bound(e.eta, g))
        << "epoch " << e.epoch << " (eta " << e.eta << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChurnSweepTest,
    ::testing::Values(ChurnCase{0, 3, 0.02}, ChurnCase{0, 3, 0.10},
                      ChurnCase{0, 11, 0.25}, ChurnCase{1, 3, 0.02},
                      ChurnCase{1, 11, 0.10}, ChurnCase{1, 7, 0.25},
                      ChurnCase{2, 3, 0.02}, ChurnCase{2, 11, 0.10},
                      ChurnCase{2, 7, 0.25}),
    [](const ::testing::TestParamInfo<ChurnCase>& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

// ---------------------------------------------------------------------------
// 2. Determinism across execution axes + the committed golden
// ---------------------------------------------------------------------------

EpochConfig determinism_config() {
  EpochConfig config;
  config.base = GraphSpec::gnp(26, 0.14, 5);
  config.churn.seed = 77;
  config.churn.edge_remove_frac = 0.08;
  config.churn.edge_add_frac = 0.08;
  config.churn.node_remove_frac = 0.05;
  config.churn.node_add_frac = 0.05;
  config.epochs = 4;
  config.capture_transcripts = true;
  config.label = "det";
  return config;
}

TEST(EpochDeterminism, ByteIdenticalAcrossWorkers) {
  std::vector<std::vector<std::uint8_t>> sequences;
  std::vector<std::uint64_t> checksums;
  for (int workers : {1, 2, 4}) {
    EpochConfig config = determinism_config();
    config.workers = workers;
    EpochHarness harness(epoch_mis(), config);
    const EpochReport report = harness.run();
    sequences.push_back(epoch_sequence_of("det", report));
    checksums.push_back(epoch_report_checksum(report));
  }
  for (std::size_t i = 1; i < sequences.size(); ++i) {
    EXPECT_EQ(sequences[i], sequences[0]) << "worker setting " << i;
    EXPECT_EQ(checksums[i], checksums[0]) << "worker setting " << i;
  }
}

TEST(EpochGolden, CommittedEpochSequencesVerifyAgainstLiveReruns) {
  ASSERT_GE(epoch_cases().size(), 1u);
  for (const EpochCase& c : epoch_cases()) {
    const std::string path =
        std::string(DGAP_GOLDEN_DIR) + "/" + golden_file_name(c);
    const std::vector<std::uint8_t> golden = read_transcript_file(path);
    ASSERT_TRUE(is_epoch_sequence(golden)) << c.name;
    EXPECT_EQ(decode_epoch_sequence(golden).label, c.name);
    EXPECT_NO_THROW(verify_epoch_case(c, golden)) << c.name;
    EXPECT_EQ(record_epoch_case(c), golden) << c.name;
  }
}

TEST(EpochSequenceContainer, RoundTripAndCorruptionGuards) {
  const std::vector<std::vector<std::uint8_t>> blobs = {
      {1, 2, 3}, {}, {255, 0, 128, 7}};
  std::vector<std::uint8_t> bytes = encode_epoch_sequence("roundtrip", blobs);
  ASSERT_TRUE(is_epoch_sequence(bytes));
  const EpochSequence seq = decode_epoch_sequence(bytes);
  EXPECT_EQ(seq.label, "roundtrip");
  EXPECT_EQ(seq.epochs, blobs);

  // Any flipped byte breaks the trailing checksum.
  for (std::size_t i : {std::size_t{5}, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::uint8_t> bad = bytes;
    bad[i] ^= 0x40;
    EXPECT_THROW(decode_epoch_sequence(bad), std::invalid_argument) << i;
  }
  // Truncation and foreign magic are structural errors, not UB.
  std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + 9);
  EXPECT_THROW(decode_epoch_sequence(cut), std::invalid_argument);
  std::vector<std::uint8_t> foreign = bytes;
  foreign[0] = 'X';
  EXPECT_FALSE(is_epoch_sequence(foreign));
  EXPECT_THROW(decode_epoch_sequence(foreign), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// 3. Result-cache correctness
// ---------------------------------------------------------------------------

TEST(EpochResultCache, SecondRunIsServedEntirelyFromCache) {
  EpochConfig config = determinism_config();
  EpochHarness harness(epoch_mis(), config);
  const EpochReport first = harness.run();
  const EpochReport second = harness.run();
  EXPECT_EQ(second.cache_misses, 0);
  EXPECT_EQ(second.cache_hits,
            static_cast<std::int64_t>(2 * config.epochs));  // warm + control
  for (const EpochRecord& e : second.epochs) {
    EXPECT_TRUE(e.warm_cache_hit) << "epoch " << e.epoch;
    EXPECT_TRUE(e.control_cache_hit) << "epoch " << e.epoch;
  }
  EXPECT_EQ(epoch_report_checksum(first), epoch_report_checksum(second));
}

TEST(EpochResultCache, HitsAreBitIdenticalToForcedRecompute) {
  EpochHarness harness(epoch_mis(), determinism_config());
  harness.run();  // fill
  const EpochReport hit = harness.run();  // served from cache
  EXPECT_EQ(hit.cache_misses, 0);

  // A fresh harness starts with an empty cache, and no two jobs of this
  // stream share a key, so its first pass executes every run.
  EpochHarness fresh(epoch_mis(), determinism_config());
  const EpochReport recompute = fresh.run();
  EXPECT_EQ(recompute.cache_hits, 0);
  EXPECT_EQ(recompute.cache_misses,
            static_cast<std::int64_t>(2 * determinism_config().epochs));

  // Transcript bytes are the strongest witness: every round event equal.
  EXPECT_EQ(epoch_sequence_of("det", hit), epoch_sequence_of("det", recompute));
  EXPECT_EQ(epoch_report_checksum(hit), epoch_report_checksum(recompute));
}

TEST(EpochResultCache, CapturedTranscriptsKeepTheirOwnEpochLabel) {
  // A zero-churn stream serves one instance every epoch and its warm
  // starts reach a fixed point, so the warm runs of epochs 2 and 3 repeat
  // epoch 1's exactly. Their transcripts must still name their own epoch:
  // a captured run's label is part of its cache key. The uncaptured
  // control runs carry no label and are still served from the cache.
  EpochConfig config;
  config.base = GraphSpec::gnp(48, 0.08, 11);
  config.churn.seed = 301;  // every churn fraction stays 0
  config.epochs = 4;
  config.capture_transcripts = true;
  config.label = "zero";
  EpochHarness harness(epoch_mis(), config);
  const EpochReport report = harness.run();
  ASSERT_EQ(report.epochs.size(), 4u);
  for (const EpochRecord& e : report.epochs) {
    EXPECT_EQ(decode_transcript(e.warm_transcript).label,
              "zero_e" + std::to_string(e.epoch));
    if (e.epoch >= 2) {
      EXPECT_TRUE(e.control_cache_hit) << "epoch " << e.epoch;
    }
  }
}

TEST(EpochResultCache, DistinctPredictionsNeverCollide) {
  const Graph g = GraphSpec::gnp(24, 0.15, 9).build();
  std::vector<Predictions> preds;
  preds.push_back(all_same(g, 0));
  preds.push_back(all_same(g, 1));
  for (int flip = 0; flip < 8; ++flip) {
    Rng rng(static_cast<std::uint64_t>(flip) + 1);
    preds.push_back(flip_bits(g, all_same(g, 0), flip + 1, rng));
  }
  const std::uint64_t instance = graph_digest(g);
  const std::uint64_t options = options_digest(EngineOptions{});
  std::set<std::uint64_t> digests;
  std::set<std::uint64_t> keys;
  for (const Predictions& p : preds) {
    digests.insert(predictions_digest(p));
    keys.insert(result_cache_key(
        instance, "mis_simple_greedy",
        provider_slot_digest(*literal_provider(p), ProblemKind::kMis, 0),
        options));
  }
  EXPECT_EQ(digests.size(), preds.size());
  EXPECT_EQ(keys.size(), preds.size());
}

TEST(EpochResultCache, KeepsEveryEntry) {
  ResultCache cache;
  RunResult result;
  for (std::uint64_t k = 0; k < 64; ++k) cache.put(k, result, {});
  EXPECT_EQ(cache.size(), 64u);
}

TEST(EpochResultCache, PoisonedEntryTripsTheGuard) {
  // The guard covers the whole entry: a field result_checksum covers, an
  // output value, and every transcript byte (first, middle, last).
  using Entry = ResultCache::Entry;
  const std::pair<const char*, std::function<void(Entry&)>> poisons[] = {
      {"rounds", [](Entry& e) { e.result.rounds ^= 1; }},
      {"output", [](Entry& e) { e.result.outputs[2] ^= 1; }},
      {"transcript first", [](Entry& e) { e.transcript.front() ^= 1; }},
      {"transcript middle",
       [](Entry& e) { e.transcript[e.transcript.size() / 2] ^= 0x80; }},
      {"transcript last", [](Entry& e) { e.transcript.back() ^= 1; }},
  };
  for (const auto& [what, poison] : poisons) {
    ResultCache cache;
    RunResult result;
    result.rounds = 7;
    result.outputs = {0, 1, 0, 1};
    cache.put(42, result, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
    EXPECT_NE(cache.get(42), nullptr) << what;
    cache.poison_for_test(42, poison);
    EXPECT_THROW(cache.get(42), std::logic_error) << what;
    EXPECT_THROW(cache.get(42), std::logic_error) << what;
  }
}

// ---------------------------------------------------------------------------
// 4. Identifier stability under churn
// ---------------------------------------------------------------------------

TEST(IdentifierStability, DeletedIdentifiersAreNeverReissued) {
  Graph g = GraphSpec::gnp(20, 0.2, 13).build();
  ChurnSpec churn;
  churn.seed = 99;
  churn.edge_remove_frac = 0.1;
  churn.edge_add_frac = 0.1;
  churn.node_remove_frac = 0.2;
  churn.node_add_frac = 0.2;
  std::set<Value> dead;
  for (int epoch = 1; epoch <= 8; ++epoch) {
    const EditBatch batch = churn.generate(g, epoch);
    for (Value id : batch.remove_nodes) dead.insert(id);
    const std::int64_t old_bound = g.id_bound();
    g = apply_edits(g, batch);
    EXPECT_GE(g.id_bound(), old_bound) << "epoch " << epoch;  // monotone
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(dead.count(g.id(v)), 0u)
          << "identifier " << g.id(v) << " resurrected at epoch " << epoch;
    }
  }
  EXPECT_FALSE(dead.empty()) << "sweep never deleted a node";
}

TEST(IdentifierStability, ReinsertionAfterDeletionGetsAFreshIdentifier) {
  const Graph g = GraphSpec::line(5).build();
  const Value victim = g.id(2);
  EditBatch remove;
  remove.remove_nodes.push_back(victim);
  const Graph smaller = apply_edits(g, remove);
  EditBatch insert;
  insert.add_nodes = 3;
  const Graph bigger = apply_edits(smaller, insert);
  for (NodeId v = 0; v < bigger.num_nodes(); ++v) {
    EXPECT_NE(bigger.id(v), victim);
  }
  // The fresh identifiers sit strictly above the pre-deletion bound.
  EXPECT_EQ(bigger.id_bound(), g.id_bound() + 3);
}

TEST(IdentifierStability, StaleWarmStartPredictionsAreDropped) {
  const Graph prev = GraphSpec::line(4).build();
  // Nodes 0-1 matched with each other, node 2 matched with node 3.
  std::vector<Value> outputs(4);
  outputs[0] = prev.id(1);
  outputs[1] = prev.id(0);
  outputs[2] = prev.id(3);
  outputs[3] = prev.id(2);
  EditBatch batch;
  batch.remove_nodes.push_back(prev.id(3));
  const Graph next = apply_edits(prev, batch);

  const Predictions warm = warm_start_matching(prev, outputs, next);
  ASSERT_EQ(warm.node_values().size(), static_cast<std::size_t>(3));
  // Survivors keep partners that survived; the partner of the deleted
  // node is dropped to ⊥, never passed through as a dangling identifier.
  EXPECT_EQ(warm.node_values()[0], prev.id(1));
  EXPECT_EQ(warm.node_values()[1], prev.id(0));
  EXPECT_EQ(warm.node_values()[2], kNoNode);
}

TEST(IdentifierStability, OutOfEncodingOutputsBecomeNeutralPredictions) {
  const Graph prev = GraphSpec::line(3).build();
  const std::vector<Value> garbage = {kUndefined, -999, 17};
  const Predictions mis = warm_start_mis(prev, garbage, prev);
  EXPECT_EQ(mis.node_values(), (std::vector<Value>{0, 0, 0}));
  const Predictions matching = warm_start_matching(prev, garbage, prev);
  EXPECT_EQ(matching.node_values()[0], kNoNode);
  EXPECT_EQ(matching.node_values()[1], kNoNode);
  const Predictions coloring = warm_start_coloring(prev, garbage, prev);
  EXPECT_EQ(coloring.node_values()[0], 0);
  EXPECT_EQ(coloring.node_values()[1], 0);
  EXPECT_EQ(coloring.node_values()[2], 17);  // positive color passes through
}

// The warm-start translators look identifiers up through the flat key
// table. These digests of their predictions over a churned gnp_sparse
// sequence were recorded from the std::unordered_map translators, so
// they pin all three kinds bit-identical (the epochs golden covers MIS
// only). Every fifth previous output is out of encoding, and every
// seventh matching output names the next graph's first inserted node, so
// the drop and pass-through paths are pinned too.
TEST(WarmStart, TranslationsUnchanged) {
  Graph prev = GraphSpec::gnp_sparse(2000, 8.0 / 2000, 31,
                                     GraphSpec::IdPolicy::kRandomized)
                   .build();
  ChurnSpec churn;
  churn.seed = 32;
  churn.edge_remove_frac = 0.05;
  churn.edge_add_frac = 0.05;
  churn.node_remove_frac = 0.03;
  churn.node_add_frac = 0.03;
  Rng rng(33);
  std::vector<std::uint64_t> got;
  for (int epoch = 1; epoch <= 3; ++epoch) {
    const Graph next = apply_edits(prev, churn.generate(prev, epoch));
    std::vector<Value> mis = mis_correct_prediction(prev, rng).node_values();
    std::vector<Value> matching =
        matching_correct_prediction(prev, rng).node_values();
    std::vector<Value> coloring =
        coloring_correct_prediction(prev, rng).node_values();
    for (std::size_t v = 0; v < mis.size(); v += 5) {
      mis[v] = kUndefined;
      matching[v] = -7;
      coloring[v] = 0;
    }
    for (std::size_t v = 3; v < matching.size(); v += 7) {
      matching[v] = prev.id_bound() + 1;
    }
    got.push_back(predictions_digest(warm_start_mis(prev, mis, next)));
    got.push_back(
        predictions_digest(warm_start_matching(prev, matching, next)));
    got.push_back(
        predictions_digest(warm_start_coloring(prev, coloring, next)));
    prev = next;
  }
  // Per epoch: mis, matching, coloring.
  const std::vector<std::uint64_t> expected = {
      0x8b6642ceb6c5889bULL, 0x4e9e20a4cbc47998ULL, 0xfd7c50a228012f7fULL,
      0x4b2dd69500bbca3bULL, 0x4a384dec9cea863dULL, 0x9a10b275de5674f8ULL,
      0x535b4f3b31740b3bULL, 0x22b94c3b2ec2e923ULL, 0x9e1cc35ad8ab69baULL,
  };
  EXPECT_EQ(got, expected);
}

/// Runs apply_edits(g, batch) and expects the std::invalid_argument of
/// the DGAP_REQUIRE whose message contains `why`.
void expect_rejected(const Graph& g, const EditBatch& batch,
                     const std::string& why) {
  try {
    apply_edits(g, batch);
    ADD_FAILURE() << "batch accepted; expected: " << why;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << e.what();
  }
}

TEST(ApplyEdits, EditBatchesAreContractsNotHints) {
  const Graph g = GraphSpec::line(4).build();
  EditBatch unknown_node;
  unknown_node.remove_nodes.push_back(g.id_bound() + 100);
  EXPECT_THROW(apply_edits(g, unknown_node), std::invalid_argument);

  EditBatch missing_edge;
  missing_edge.remove_edges.emplace_back(g.id(0), g.id(3));  // not adjacent
  EXPECT_THROW(apply_edits(g, missing_edge), std::invalid_argument);

  EditBatch duplicate_edge;
  duplicate_edge.add_edges.emplace_back(g.id(0), g.id(1));  // already there
  EXPECT_THROW(apply_edits(g, duplicate_edge), std::invalid_argument);

  EditBatch self_loop;
  self_loop.add_edges.emplace_back(g.id(0), g.id(0));
  EXPECT_THROW(apply_edits(g, self_loop), std::invalid_argument);

  EditBatch node_twice;
  node_twice.remove_nodes = {g.id(1), g.id(1)};
  expect_rejected(g, node_twice, "node removed twice in one batch");

  EditBatch edge_twice;
  edge_twice.remove_edges = {{g.id(1), g.id(2)}, {g.id(1), g.id(2)}};
  expect_rejected(g, edge_twice, "edge removed twice in one batch");
  EditBatch edge_twice_reversed;
  edge_twice_reversed.remove_edges = {{g.id(1), g.id(2)},
                                      {g.id(2), g.id(1)}};
  expect_rejected(g, edge_twice_reversed, "edge removed twice in one batch");

  EditBatch negative_add;
  negative_add.add_nodes = -1;
  expect_rejected(g, negative_add, "add_nodes must be non-negative");

  const std::string absent =
      "added edge references an identifier absent from the edited graph";
  EditBatch to_removed;
  to_removed.remove_nodes = {g.id(3)};
  to_removed.add_edges = {{g.id(0), g.id(3)}};
  expect_rejected(g, to_removed, absent);
  EditBatch above_bound;
  above_bound.add_nodes = 1;
  above_bound.add_edges = {{g.id(0), g.id_bound() + 2}};
  expect_rejected(g, above_bound, absent);
  EditBatch not_inserted;  // the first fresh identifier, but no insertion
  not_inserted.add_edges = {{g.id(0), g.id_bound() + 1}};
  expect_rejected(g, not_inserted, absent);

  EditBatch new_edge_twice;
  new_edge_twice.add_nodes = 1;
  new_edge_twice.add_edges = {{g.id(0), g.id_bound() + 1},
                              {g.id(0), g.id_bound() + 1}};
  expect_rejected(g, new_edge_twice, "edge already present");
  new_edge_twice.add_edges.back() = {g.id_bound() + 1, g.id(0)};
  expect_rejected(g, new_edge_twice, "edge already present");
}

}  // namespace
}  // namespace dgap
