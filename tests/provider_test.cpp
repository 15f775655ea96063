// PredictionProvider contract tests (predict/provider.hpp):
//   1. Determinism — the same (provider, kind, seed, graph) materializes
//      byte-identical Predictions on every call, the engine consumes them
//      identically at num_threads 1 and 4, and provider-carrying batch
//      jobs produce byte-identical transcripts at 1 and 4 workers.
//   2. Digests — the contract is "equal digests => equal provide() output
//      for every (graph, kind, seed)". Spot-check the converse direction
//      across the whole bundled family: differently-parameterized
//      providers never collide, and the payload-carrying providers
//      (warm_start, learned, literal) fold their payloads into the digest.
//   3. provider_slot_digest — the ResultCache key ingredient separates
//      providers, kinds, and seeds.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "graph/generators.hpp"
#include "predict/learned.hpp"
#include "predict/provider.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "sim/result_cache.hpp"
#include "templates/mis_with_predictions.hpp"

namespace dgap {
namespace {

Graph test_graph() { return GraphSpec::gnp(40, 0.1, 17).build(); }

/// A hand-written model: trust the prior iff it is locally valid
/// (bias +1, heavy negative weight on the prior_invalid feature).
LearnedModel tiny_model() {
  LearnedModel model;
  for (auto& row : model.weights) {
    row[0] = kFeatureOne;           // bias
    row[6] = -3 * kFeatureOne;      // prior_invalid
  }
  return model;
}

std::vector<ProviderPtr> node_valued_providers(const Graph& g) {
  const std::vector<Value> prior =
      provide_with_seed(*exact_provider(), g, ProblemKind::kMis, 5)
          .node_values();
  return {neutral_provider(),       constant_provider(1),
          exact_provider(),         perturbed_provider(4),
          stale_graph_provider(3, 3), warm_start_provider(g, prior),
          learned_provider(tiny_model(), prior),
          literal_provider(Predictions(prior))};
}

TEST(Provider, MaterializationIsByteIdentical) {
  const Graph g = test_graph();
  for (const ProviderPtr& src : node_valued_providers(g)) {
    for (ProblemKind kind : {ProblemKind::kMis, ProblemKind::kMatching,
                             ProblemKind::kColoring}) {
      const Predictions a = provide_with_seed(*src, g, kind, 99);
      const Predictions b = provide_with_seed(*src, g, kind, 99);
      EXPECT_EQ(a.node_values(), b.node_values())
          << src->name() << " kind " << problem_kind_name(kind);
    }
  }
}

TEST(Provider, ReconstructedProvidersShareNameAndDigest) {
  const Graph g = test_graph();
  const std::vector<Value> prior =
      provide_with_seed(*exact_provider(), g, ProblemKind::kMis, 5)
          .node_values();
  const auto pairs = std::vector<std::pair<ProviderPtr, ProviderPtr>>{
      {neutral_provider(), neutral_provider()},
      {constant_provider(7), constant_provider(7)},
      {perturbed_provider(4), perturbed_provider(4)},
      {grid_stripe_provider(5, 8), grid_stripe_provider(5, 8)},
      {stale_graph_provider(2, 3), stale_graph_provider(2, 3)},
      {warm_start_provider(g, prior), warm_start_provider(g, prior)},
      {learned_provider(tiny_model(), prior),
       learned_provider(tiny_model(), prior)},
      {literal_provider(Predictions(prior)),
       literal_provider(Predictions(prior))}};
  for (const auto& [a, b] : pairs) {
    EXPECT_EQ(a->name(), b->name());
    EXPECT_EQ(a->digest(), b->digest()) << a->name();
  }
}

TEST(Provider, BundledFamilyDigestsNeverCollide) {
  const Graph g = test_graph();
  const std::vector<Value> prior_a =
      provide_with_seed(*exact_provider(), g, ProblemKind::kMis, 5)
          .node_values();
  std::vector<Value> prior_b = prior_a;
  prior_b[0] = prior_b[0] == 0 ? 1 : 0;
  LearnedModel other_model = tiny_model();
  other_model.weights[0][1] += 1;
  const std::vector<ProviderPtr> family{
      neutral_provider(),
      constant_provider(0),
      constant_provider(1),
      exact_provider(),
      perturbed_provider(0),
      perturbed_provider(1),
      perturbed_provider(8),
      grid_stripe_provider(4, 10),
      grid_stripe_provider(10, 4),
      stale_graph_provider(2, 2),
      stale_graph_provider(2, 3),
      warm_start_provider(g, prior_a),
      warm_start_provider(g, prior_b),  // payload differs -> digest differs
      learned_provider(tiny_model(), prior_a),
      learned_provider(tiny_model(), prior_b),
      learned_provider(other_model, prior_a),
      literal_provider(Predictions(prior_a)),
      literal_provider(Predictions(prior_b)),
      literal_provider(provide_with_seed(*exact_provider(), g,
                                         ProblemKind::kEdgeColoring, 5))};
  std::set<std::uint64_t> digests;
  for (const ProviderPtr& src : family) digests.insert(src->digest());
  EXPECT_EQ(digests.size(), family.size());
}

TEST(Provider, SlotDigestSeparatesProvidersKindsAndSeeds) {
  std::set<std::uint64_t> keys;
  std::size_t expected = 0;
  for (const ProviderPtr& src :
       {neutral_provider(), exact_provider(), perturbed_provider(2)}) {
    for (ProblemKind kind : {ProblemKind::kMis, ProblemKind::kMatching}) {
      for (std::uint64_t seed : {0ull, 1ull, 99ull}) {
        keys.insert(provider_slot_digest(*src, kind, seed));
        ++expected;
      }
    }
  }
  EXPECT_EQ(keys.size(), expected);
}

TEST(Provider, EngineConsumesIdenticallyAtOneAndFourThreads) {
  const Graph g = test_graph();
  const Predictions pred =
      provide_with_seed(*perturbed_provider(4), g, ProblemKind::kMis, 99);
  EngineOptions one, four;
  one.num_threads = 1;
  four.num_threads = 4;
  const RunResult a = run_with_predictions(g, pred, mis_simple_greedy(), one);
  const RunResult b = run_with_predictions(g, pred, mis_simple_greedy(), four);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.outputs, b.outputs);
}

TEST(Provider, BatchTranscriptsByteIdenticalAtOneAndFourWorkers) {
  const Graph g = test_graph();
  std::vector<std::vector<std::uint8_t>> transcripts;
  for (int workers : {1, 4}) {
    BatchRunner runner({workers});
    for (const ProviderPtr& src : node_valued_providers(g)) {
      BatchJob job = make_job(g, mis_simple_greedy());
      job.provider = src;
      job.provider_kind = ProblemKind::kMis;
      job.provider_seed = 99;
      job.capture_transcript = true;
      job.transcript_label = src->name();
      runner.add(std::move(job));
    }
    auto results = runner.run_all();
    for (auto& r : results) {
      ASSERT_TRUE(r.ok) << r.error;
      transcripts.push_back(std::move(r.transcript));
    }
  }
  const std::size_t half = transcripts.size() / 2;
  ASSERT_GT(half, 0u);
  for (std::size_t i = 0; i < half; ++i) {
    EXPECT_EQ(transcripts[i], transcripts[half + i]) << "job " << i;
  }
}

}  // namespace
}  // namespace dgap
