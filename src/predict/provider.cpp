#include "predict/provider.hpp"

#include <initializer_list>
#include <string_view>
#include <utility>

#include "common/digest.hpp"
#include "common/require.hpp"
#include "predict/generators.hpp"
#include "predict/warm_start.hpp"

namespace dgap {

namespace {

// Provider digests are in-process WordDigests (common/digest.hpp): a
// domain tag, the recipe's tag, then every configuration parameter.
constexpr std::uint64_t kProviderDomain = 0x50524F56ULL;  // "PROV"

WordDigest tagged(std::string_view tag) {
  WordDigest d(kProviderDomain);
  d.array(tag);
  return d;
}

std::uint64_t tag_digest(std::string_view tag,
                         std::initializer_list<std::int64_t> params = {}) {
  WordDigest d = tagged(tag);
  for (const std::int64_t p : params) d.word(static_cast<std::uint64_t>(p));
  return d.value();
}

Predictions neutral_prediction(const Graph& g, ProblemKind kind) {
  if (kind == ProblemKind::kEdgeColoring) {
    std::vector<std::vector<Value>> rows(
        static_cast<std::size_t>(g.num_nodes()));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      rows[static_cast<std::size_t>(v)].assign(g.neighbors(v).size(), 0);
    }
    return Predictions::for_edges(g, std::move(rows));
  }
  return all_same(g, neutral_value(kind));
}

class NeutralProvider final : public PredictionProvider {
 public:
  std::string name() const override { return "neutral"; }
  std::uint64_t digest() const override { return tag_digest("neutral"); }
  Predictions provide(const Graph& g, ProblemKind kind,
                      Rng& /*rng*/) const override {
    return neutral_prediction(g, kind);
  }
};

class ConstantProvider final : public PredictionProvider {
 public:
  explicit ConstantProvider(Value value) : value_(value) {}
  std::string name() const override {
    return "const:" + std::to_string(value_);
  }
  std::uint64_t digest() const override {
    return tag_digest("const", {value_});
  }
  Predictions provide(const Graph& g, ProblemKind kind,
                      Rng& /*rng*/) const override {
    DGAP_REQUIRE(kind != ProblemKind::kEdgeColoring,
                 "constant_provider serves node-valued kinds only");
    return all_same(g, value_);
  }

 private:
  Value value_;
};

Predictions correct_prediction(const Graph& g, ProblemKind kind, Rng& rng) {
  switch (kind) {
    case ProblemKind::kMis:
      return mis_correct_prediction(g, rng);
    case ProblemKind::kMatching:
      return matching_correct_prediction(g, rng);
    case ProblemKind::kColoring:
      return coloring_correct_prediction(g, rng);
    case ProblemKind::kEdgeColoring:
      return edge_coloring_correct_prediction(g, rng);
  }
  DGAP_ASSERT(false, "unknown problem kind");
  return {};
}

class ExactProvider final : public PredictionProvider {
 public:
  std::string name() const override { return "exact"; }
  std::uint64_t digest() const override { return tag_digest("exact"); }
  Predictions provide(const Graph& g, ProblemKind kind,
                      Rng& rng) const override {
    return correct_prediction(g, kind, rng);
  }
};

class PerturbedProvider final : public PredictionProvider {
 public:
  explicit PerturbedProvider(int errors) : errors_(errors) {}
  std::string name() const override {
    return "perturbed:" + std::to_string(errors_);
  }
  std::uint64_t digest() const override {
    return tag_digest("perturbed", {errors_});
  }
  Predictions provide(const Graph& g, ProblemKind kind,
                      Rng& rng) const override {
    // One rng stream end to end: exact source first, then the corruption
    // — byte-compatible with the hand-written recipes the golden
    // transcripts were recorded with (tools/cases.cpp).
    Predictions base = correct_prediction(g, kind, rng);
    switch (kind) {
      case ProblemKind::kMis:
        return flip_bits(g, base, errors_, rng);
      case ProblemKind::kMatching:
        return break_matches(g, base, errors_, rng);
      case ProblemKind::kColoring:
        return scramble_colors(g, base, errors_, rng);
      case ProblemKind::kEdgeColoring:
        return scramble_edge_colors(g, base, errors_, rng);
    }
    DGAP_ASSERT(false, "unknown problem kind");
    return {};
  }

 private:
  int errors_;
};

class GridStripeProvider final : public PredictionProvider {
 public:
  GridStripeProvider(NodeId w, NodeId h) : w_(w), h_(h) {}
  std::string name() const override {
    return "grid_stripe:" + std::to_string(w_) + "x" + std::to_string(h_);
  }
  std::uint64_t digest() const override {
    return tag_digest("grid_stripe", {w_, h_});
  }
  Predictions provide(const Graph& g, ProblemKind kind,
                      Rng& /*rng*/) const override {
    DGAP_REQUIRE(kind == ProblemKind::kMis,
                 "grid_stripe_provider is Figure 2's MIS pattern");
    DGAP_REQUIRE(g.num_nodes() == w_ * h_,
                 "grid_stripe_provider: graph is not the configured grid");
    return grid_stripe_prediction(w_, h_);
  }

 private:
  NodeId w_;
  NodeId h_;
};

class StaleGraphProvider final : public PredictionProvider {
 public:
  StaleGraphProvider(int remove_edges, int add_edges)
      : remove_(remove_edges), add_(add_edges) {}
  std::string name() const override {
    return "stale:-" + std::to_string(remove_) + "+" + std::to_string(add_);
  }
  std::uint64_t digest() const override {
    return tag_digest("stale", {remove_, add_});
  }
  Predictions provide(const Graph& g, ProblemKind kind,
                      Rng& rng) const override {
    DGAP_REQUIRE(kind != ProblemKind::kEdgeColoring,
                 "stale_graph_provider serves node-valued kinds only (edge "
                 "predictions do not survive an edge-set change)");
    const Graph old = perturb_edges(g, remove_, add_, rng);
    return correct_prediction(old, kind, rng);
  }

 private:
  int remove_;
  int add_;
};

class WarmStartProvider final : public PredictionProvider {
 public:
  WarmStartProvider(Graph prev, std::vector<Value> prev_outputs)
      : prev_(std::move(prev)), outputs_(std::move(prev_outputs)) {
    DGAP_REQUIRE(outputs_.size() ==
                     static_cast<std::size_t>(prev_.num_nodes()),
                 "warm_start_provider needs one output per previous node");
  }
  std::string name() const override { return "warm_start"; }
  std::uint64_t digest() const override {
    // The digest must separate distinct histories: mix the previous
    // graph's identifiers (outputs are keyed by them) and every output.
    WordDigest d = tagged("warm_start");
    d.word(static_cast<std::uint64_t>(prev_.num_nodes()));
    d.word(static_cast<std::uint64_t>(prev_.id_bound()));
    d.array(prev_.ids());
    d.array(outputs_);
    return d.value();
  }
  Predictions provide(const Graph& g, ProblemKind kind,
                      Rng& /*rng*/) const override {
    switch (kind) {
      case ProblemKind::kMis:
        return warm_start_mis(prev_, outputs_, g);
      case ProblemKind::kMatching:
        return warm_start_matching(prev_, outputs_, g);
      case ProblemKind::kColoring:
        return warm_start_coloring(prev_, outputs_, g);
      case ProblemKind::kEdgeColoring:
        break;
    }
    DGAP_REQUIRE(false,
                 "warm_start_provider serves node-valued kinds only");
    return {};
  }

 private:
  Graph prev_;
  std::vector<Value> outputs_;
};

class LiteralProvider final : public PredictionProvider {
 public:
  explicit LiteralProvider(Predictions predictions)
      : predictions_(std::move(predictions)) {}
  std::string name() const override { return "literal"; }
  std::uint64_t digest() const override {
    // Every value, each list length-prefixed so no two layouts collide.
    WordDigest d = tagged("literal");
    d.word(predictions_.node_values().size());
    d.array(predictions_.node_values());
    d.word(predictions_.edge_values().size());
    for (const std::vector<Value>& row : predictions_.edge_values()) {
      d.word(row.size());
      d.array(row);
    }
    return d.value();
  }
  Predictions provide(const Graph& /*g*/, ProblemKind /*kind*/,
                      Rng& /*rng*/) const override {
    return predictions_;
  }

 private:
  Predictions predictions_;
};

}  // namespace

const char* problem_kind_name(ProblemKind kind) {
  switch (kind) {
    case ProblemKind::kMis:
      return "mis";
    case ProblemKind::kMatching:
      return "matching";
    case ProblemKind::kColoring:
      return "coloring";
    case ProblemKind::kEdgeColoring:
      return "edge_coloring";
  }
  DGAP_ASSERT(false, "unknown problem kind");
  return "?";
}

Value neutral_value(ProblemKind kind) {
  return kind == ProblemKind::kMatching ? Value{kNoNode} : Value{0};
}

Predictions provide_with_seed(const PredictionProvider& provider,
                              const Graph& g, ProblemKind kind,
                              std::uint64_t seed) {
  Rng rng(seed);
  return provider.provide(g, kind, rng);
}

ProviderPtr neutral_provider() {
  return std::make_shared<NeutralProvider>();
}

ProviderPtr constant_provider(Value value) {
  return std::make_shared<ConstantProvider>(value);
}

ProviderPtr exact_provider() { return std::make_shared<ExactProvider>(); }

ProviderPtr perturbed_provider(int errors) {
  return std::make_shared<PerturbedProvider>(errors);
}

ProviderPtr grid_stripe_provider(NodeId w, NodeId h) {
  return std::make_shared<GridStripeProvider>(w, h);
}

ProviderPtr stale_graph_provider(int remove_edges, int add_edges) {
  return std::make_shared<StaleGraphProvider>(remove_edges, add_edges);
}

ProviderPtr warm_start_provider(Graph prev, std::vector<Value> prev_outputs) {
  return std::make_shared<WarmStartProvider>(std::move(prev),
                                             std::move(prev_outputs));
}

ProviderPtr literal_provider(Predictions predictions) {
  return std::make_shared<LiteralProvider>(std::move(predictions));
}

}  // namespace dgap
