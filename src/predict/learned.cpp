#include "predict/learned.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/digest.hpp"
#include "common/require.hpp"
#include "graph/exact.hpp"
#include "predict/generators.hpp"

namespace dgap {
namespace {

int row_of(ProblemKind kind) {
  const int row = static_cast<int>(kind);
  DGAP_REQUIRE(row >= 0 && row < kNumLearnedKinds,
               "learned model serves node-valued kinds only");
  return row;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * b)) & 0xffU));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * b)) & 0xffULL));
  }
}

std::uint32_t get_u32(const std::vector<std::uint8_t>& in, std::size_t at) {
  std::uint32_t v = 0;
  for (int b = 0; b < 4; ++b) {
    v |= static_cast<std::uint32_t>(in[at + static_cast<std::size_t>(b)])
         << (8 * b);
  }
  return v;
}

std::uint64_t get_u64(const std::vector<std::uint8_t>& in, std::size_t at) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) {
    v |= static_cast<std::uint64_t>(in[at + static_cast<std::size_t>(b)])
         << (8 * b);
  }
  return v;
}

double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

}  // namespace

std::int64_t learned_score_q16(const LearnedModel& model, ProblemKind kind,
                               const FeatureRow& features) {
  const auto& w = model.weights[static_cast<std::size_t>(row_of(kind))];
  std::int64_t acc = 0;  // Q32.32
  for (int i = 0; i < kNumFeatures; ++i) {
    acc += static_cast<std::int64_t>(w[static_cast<std::size_t>(i)]) *
           static_cast<std::int64_t>(features[static_cast<std::size_t>(i)]);
  }
  return acc >> 16;
}

TrainingSet training_samples(const Graph& g, ProblemKind kind,
                             const std::vector<Value>& prior) {
  const NodeId n = g.num_nodes();
  DGAP_REQUIRE(prior.size() == static_cast<std::size_t>(n),
               "training prior must hold one output per node");
  TrainingSet out;
  out.rows = node_features(g, kind, &prior);
  out.labels.resize(static_cast<std::size_t>(n), 0);
  const Value palette = g.max_degree() + 1;
  switch (kind) {
    case ProblemKind::kMis: {
      // Supervise with the MIS that repairs the prior: greedily extend
      // the prior-claimed nodes (identifier order breaks ties) so the
      // label agrees with the prior wherever the prior is still good.
      std::vector<NodeId> order(static_cast<std::size_t>(n));
      std::iota(order.begin(), order.end(), NodeId{0});
      std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        const bool ca = prior[static_cast<std::size_t>(a)] == 1;
        const bool cb = prior[static_cast<std::size_t>(b)] == 1;
        if (ca != cb) return ca;
        return g.id(a) < g.id(b);
      });
      auto in = sequential_mis(g, order);
      for (NodeId v = 0; v < n; ++v) {
        out.labels[static_cast<std::size_t>(v)] = in[v] ? 1 : 0;
      }
      break;
    }
    case ProblemKind::kMatching: {
      // Label = "the prior partner is still a reciprocal neighbor" —
      // exactly the keep decision the provider must make.
      std::vector<std::pair<Value, NodeId>> by_id;
      by_id.reserve(static_cast<std::size_t>(n));
      for (NodeId v = 0; v < n; ++v) by_id.emplace_back(g.id(v), v);
      std::sort(by_id.begin(), by_id.end());
      for (NodeId v = 0; v < n; ++v) {
        const Value mine = prior[static_cast<std::size_t>(v)];
        if (mine == kNoNode) continue;
        auto it = std::lower_bound(by_id.begin(), by_id.end(),
                                   std::make_pair(mine, NodeId{0}));
        if (it == by_id.end() || it->first != mine) continue;
        const NodeId partner = it->second;
        if (g.has_edge(v, partner) &&
            prior[static_cast<std::size_t>(partner)] == g.id(v)) {
          out.labels[static_cast<std::size_t>(v)] = 1;
        }
      }
      break;
    }
    case ProblemKind::kColoring: {
      for (NodeId v = 0; v < n; ++v) {
        const Value mine = prior[static_cast<std::size_t>(v)];
        if (mine < 1 || mine > palette) continue;
        bool clash = false;
        for (NodeId u : g.neighbors(v)) {
          if (prior[static_cast<std::size_t>(u)] == mine) {
            clash = true;
            break;
          }
        }
        if (!clash) out.labels[static_cast<std::size_t>(v)] = 1;
      }
      break;
    }
    case ProblemKind::kEdgeColoring:
      DGAP_REQUIRE(false, "learned model serves node-valued kinds only");
  }
  return out;
}

void merge_training(TrainingSet& base, const TrainingSet& extra) {
  base.rows.insert(base.rows.end(), extra.rows.begin(), extra.rows.end());
  base.labels.insert(base.labels.end(), extra.labels.begin(),
                     extra.labels.end());
}

TrainingSet stale_training_corpus(const Graph& g, ProblemKind kind,
                                  const std::vector<int>& error_levels,
                                  std::uint64_t seed) {
  TrainingSet corpus;
  for (int level : error_levels) {
    const Predictions prior = provide_with_seed(
        *perturbed_provider(level), g, kind,
        seed + static_cast<std::uint64_t>(level));
    merge_training(corpus, training_samples(g, kind, prior.node_values()));
  }
  return corpus;
}

void fit_logistic(LearnedModel& model, ProblemKind kind,
                  const TrainingSet& data, int iterations,
                  double learning_rate) {
  DGAP_REQUIRE(data.rows.size() == data.labels.size(),
               "rows and labels must align");
  DGAP_REQUIRE(!data.rows.empty(), "cannot fit on an empty training set");
  const double inv_n = 1.0 / static_cast<double>(data.rows.size());
  std::array<double, kNumFeatures> w{};
  std::array<double, kNumFeatures> x{};
  std::array<double, kNumFeatures> grad{};
  for (int iter = 0; iter < iterations; ++iter) {
    grad.fill(0.0);
    for (std::size_t s = 0; s < data.rows.size(); ++s) {
      double z = 0.0;
      for (int i = 0; i < kNumFeatures; ++i) {
        x[static_cast<std::size_t>(i)] =
            static_cast<double>(
                data.rows[s][static_cast<std::size_t>(i)]) /
            65536.0;
        z += w[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(i)];
      }
      const double err =
          sigmoid(z) - static_cast<double>(data.labels[s]);
      for (int i = 0; i < kNumFeatures; ++i) {
        grad[static_cast<std::size_t>(i)] +=
            err * x[static_cast<std::size_t>(i)];
      }
    }
    for (int i = 0; i < kNumFeatures; ++i) {
      w[static_cast<std::size_t>(i)] -=
          learning_rate * grad[static_cast<std::size_t>(i)] * inv_n;
    }
  }
  auto& row = model.weights[static_cast<std::size_t>(row_of(kind))];
  for (int i = 0; i < kNumFeatures; ++i) {
    const double q = std::llround(w[static_cast<std::size_t>(i)] * 65536.0);
    const double lo = -2147483648.0;
    const double hi = 2147483647.0;
    row[static_cast<std::size_t>(i)] =
        static_cast<std::int32_t>(std::clamp(q, lo, hi));
  }
}

double logistic_loss(const LearnedModel& model, ProblemKind kind,
                     const TrainingSet& data) {
  DGAP_REQUIRE(!data.rows.empty(), "loss of an empty training set");
  double total = 0.0;
  for (std::size_t s = 0; s < data.rows.size(); ++s) {
    const double z =
        static_cast<double>(learned_score_q16(model, kind, data.rows[s])) /
        65536.0;
    const double p = sigmoid(z);
    const double eps = 1e-12;
    total += data.labels[s] == 1 ? -std::log(p + eps)
                                 : -std::log(1.0 - p + eps);
  }
  return total / static_cast<double>(data.rows.size());
}

std::vector<std::uint8_t> encode_model(const LearnedModel& model) {
  std::vector<std::uint8_t> out;
  out.push_back('D');
  out.push_back('G');
  out.push_back('W');
  out.push_back('B');
  put_u32(out, model.version);
  put_u32(out, static_cast<std::uint32_t>(kNumLearnedKinds));
  put_u32(out, static_cast<std::uint32_t>(kNumFeatures));
  for (const auto& row : model.weights) {
    for (std::int32_t w : row) {
      put_u32(out, static_cast<std::uint32_t>(w));
    }
  }
  put_u64(out, fnv1a_bytes(out));
  return out;
}

LearnedModel decode_model(const std::vector<std::uint8_t>& bytes) {
  constexpr std::size_t kHeader = 4 + 4 + 4 + 4;
  constexpr std::size_t kBody =
      static_cast<std::size_t>(kNumLearnedKinds) * kNumFeatures * 4;
  DGAP_REQUIRE(bytes.size() == kHeader + kBody + 8,
               "weight blob: wrong size");
  DGAP_REQUIRE(bytes[0] == 'D' && bytes[1] == 'G' && bytes[2] == 'W' &&
                   bytes[3] == 'B',
               "weight blob: bad magic");
  DGAP_REQUIRE(get_u64(bytes, kHeader + kBody) ==
                   fnv1a_bytes({bytes.data(), kHeader + kBody}),
               "weight blob: checksum mismatch");
  LearnedModel model;
  model.version = get_u32(bytes, 4);
  DGAP_REQUIRE(model.version == kWeightBlobVersion,
               "weight blob: unsupported version");
  DGAP_REQUIRE(get_u32(bytes, 8) ==
                       static_cast<std::uint32_t>(kNumLearnedKinds) &&
                   get_u32(bytes, 12) ==
                       static_cast<std::uint32_t>(kNumFeatures),
               "weight blob: dimension mismatch");
  std::size_t at = kHeader;
  for (auto& row : model.weights) {
    for (std::int32_t& w : row) {
      w = static_cast<std::int32_t>(get_u32(bytes, at));
      at += 4;
    }
  }
  return model;
}

namespace {

class LearnedProvider final : public PredictionProvider {
 public:
  LearnedProvider(LearnedModel model, std::vector<Value> prior)
      : model_(std::move(model)), prior_(std::move(prior)) {}

  std::string name() const override {
    return "learned:v" + std::to_string(model_.version);
  }

  std::uint64_t digest() const override {
    // In-process only (common/digest.hpp): the blob, then the prior.
    WordDigest d;
    d.array(encode_model(model_));
    d.array(prior_);
    return d.value();
  }

  Predictions provide(const Graph& g, ProblemKind kind,
                      Rng& /*rng*/) const override {
    const NodeId n = g.num_nodes();
    DGAP_REQUIRE(prior_.size() == static_cast<std::size_t>(n),
                 "learned_provider prior does not match the graph");
    const auto features = node_features(g, kind, &prior_);
    const Value palette = g.max_degree() + 1;
    std::vector<std::pair<Value, NodeId>> by_id;
    if (kind == ProblemKind::kMatching) {
      by_id.reserve(static_cast<std::size_t>(n));
      for (NodeId v = 0; v < n; ++v) by_id.emplace_back(g.id(v), v);
      std::sort(by_id.begin(), by_id.end());
    }
    std::vector<Value> x(static_cast<std::size_t>(n), neutral_value(kind));
    for (NodeId v = 0; v < n; ++v) {
      const bool trust =
          learned_score_q16(model_, kind, features[static_cast<std::size_t>(
                                              v)]) >= 0;
      const Value mine = prior_[static_cast<std::size_t>(v)];
      switch (kind) {
        case ProblemKind::kMis:
          x[static_cast<std::size_t>(v)] = trust ? 1 : 0;
          break;
        case ProblemKind::kMatching: {
          if (!trust || mine == kNoNode) break;
          auto it = std::lower_bound(by_id.begin(), by_id.end(),
                                     std::make_pair(mine, NodeId{0}));
          if (it == by_id.end() || it->first != mine) break;
          const NodeId partner = it->second;
          if (g.has_edge(v, partner) &&
              prior_[static_cast<std::size_t>(partner)] == g.id(v)) {
            x[static_cast<std::size_t>(v)] = mine;
          }
          break;
        }
        case ProblemKind::kColoring:
          if (trust && mine >= 1 && mine <= palette) {
            x[static_cast<std::size_t>(v)] = mine;
          }
          break;
        case ProblemKind::kEdgeColoring:
          DGAP_REQUIRE(false,
                       "learned_provider serves node-valued kinds only");
      }
    }
    return Predictions(std::move(x));
  }

 private:
  LearnedModel model_;
  std::vector<Value> prior_;
};

}  // namespace

ProviderPtr learned_provider(LearnedModel model, std::vector<Value> prior) {
  return std::make_shared<LearnedProvider>(std::move(model),
                                           std::move(prior));
}

}  // namespace dgap
