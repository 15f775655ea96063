// PredictionProvider: every prediction source behind one interface.
//
// The paper takes predictions as given; this layer is where they actually
// come from. A provider is a named, digestible recipe that turns an
// instance into a Predictions vector for a problem kind:
//
//   * provide(g, kind, rng) — materialize the prediction. Deterministic:
//     byte-identical output for the same (provider state, graph, kind,
//     rng seed). Providers that need no randomness ignore `rng`.
//   * name()   — short human-readable recipe name ("perturbed:3",
//     "warm_start", "learned:v1") for tables and bench JSON.
//   * digest() — stable 64-bit digest of the provider's full
//     configuration (parameters, captured graphs/outputs, model
//     weights). Two providers with equal digests must produce equal
//     predictions for every (graph, kind, seed), so the ResultCache can
//     content-address a job by (instance, algorithm, provider digest,
//     seed) instead of hashing the materialized prediction vector — see
//     provider_slot_digest() in sim/result_cache.hpp. "Stable" means
//     deterministic within one build, not pinned: digests are in-process
//     WordDigests (common/digest.hpp), never written to a file or
//     compared across builds.
//
// Adapters below wrap every existing source: the synthetic generators
// (predict/generators.hpp), the stale-graph scenario of Section 1.1, the
// epoch warm-start adapters (predict/warm_start.hpp) and literal,
// already materialized predictions. The learned
// backend lives in predict/learned.hpp. Providers are a CONSTRUCTION-TIME
// layer: they run before the engine does, so wrapping a source in a
// provider never changes engine behavior (the golden transcripts pin
// this).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "predict/predictions.hpp"
#include "predict/problem_kind.hpp"

namespace dgap {

class PredictionProvider {
 public:
  virtual ~PredictionProvider() = default;

  /// Stable recipe name; parameters included ("perturbed:3").
  virtual std::string name() const = 0;

  /// Digest of the provider's configuration. Equal digests ⇒ equal
  /// provide() output for every (graph, kind, seed).
  virtual std::uint64_t digest() const = 0;

  /// Materialize the prediction for `g`. Must be a pure function of
  /// (provider state, g, kind, rng stream).
  virtual Predictions provide(const Graph& g, ProblemKind kind,
                              Rng& rng) const = 0;
};

using ProviderPtr = std::shared_ptr<const PredictionProvider>;

/// Convenience: provide() with a fresh Rng(seed) — the standard way a
/// bench or test materializes one prediction reproducibly.
Predictions provide_with_seed(const PredictionProvider& provider,
                              const Graph& g, ProblemKind kind,
                              std::uint64_t seed);

// ---- Bundled providers ------------------------------------------------------

/// Every node predicts the kind's neutral value — the "no useful advice"
/// baseline (the epoch harness's from-scratch control).
ProviderPtr neutral_provider();

/// Every node predicts `value` (the paper's all-1 adversarial MIS case).
/// Node-valued kinds only.
ProviderPtr constant_provider(Value value);

/// A correct solution computed greedily in a random order (consistency
/// regime): mis/matching/coloring/edge_coloring_correct_prediction.
ProviderPtr exact_provider();

/// A correct solution with `errors` controlled corruptions (degradation
/// regime): flip_bits / break_matches / scramble_colors /
/// scramble_edge_colors on top of the exact source, same rng stream.
ProviderPtr perturbed_provider(int errors);

/// Figure 2's 4-stripe pattern on a w×h grid (MIS only; the graph must
/// have exactly w·h nodes).
ProviderPtr grid_stripe_provider(NodeId w, NodeId h);

/// The Section 1.1 related-network scenario: a correct solution of a
/// perturbed copy of `g` (remove/add random edges, same node set)
/// replayed as the prediction on `g`. Node-valued kinds only.
ProviderPtr stale_graph_provider(int remove_edges, int add_edges);

/// The epoch warm start: `prev_outputs` (one per node of `prev`, the
/// problem's output encoding) translated onto the served graph by
/// identifier via predict/warm_start.hpp. Deterministic; ignores rng.
/// Node-valued kinds only. The digest covers `prev`'s identifiers and
/// the outputs, so distinct histories never collide.
ProviderPtr warm_start_provider(Graph prev, std::vector<Value> prev_outputs);

/// An already materialized prediction: provide() returns a copy of
/// `predictions` for whatever graph, kind and rng it is asked with, so the
/// caller pairs it with the graph it was computed for. The digest covers
/// every node and edge value. This is how a batch job given literal
/// predictions (sim/batch.hpp's make_job) carries them.
ProviderPtr literal_provider(Predictions predictions);

}  // namespace dgap
