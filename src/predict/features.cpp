#include "predict/features.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace dgap {
namespace {

std::int32_t ratio_q16(std::int64_t num, std::int64_t den) {
  if (den <= 0) return 0;
  return static_cast<std::int32_t>((num << 16) / den);
}

NodeId find_by_id(const std::vector<std::pair<Value, NodeId>>& by_id,
                  Value id) {
  auto it = std::lower_bound(by_id.begin(), by_id.end(),
                             std::make_pair(id, NodeId{0}));
  if (it != by_id.end() && it->first == id) return it->second;
  return kNoNode;
}

}  // namespace

std::vector<FeatureRow> node_features(const Graph& g, ProblemKind kind,
                                      const std::vector<Value>* prior) {
  DGAP_REQUIRE(kind != ProblemKind::kEdgeColoring,
               "node_features serves node-valued kinds only");
  const NodeId n = g.num_nodes();
  DGAP_REQUIRE(prior == nullptr ||
                   prior->size() == static_cast<std::size_t>(n),
               "prior must hold one output per node");
  const Value palette = g.max_degree() + 1;  // Δ+1, also the degree scale

  // Identifier -> internal index, for decoding matching partner priors.
  std::vector<std::pair<Value, NodeId>> by_id;
  by_id.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) by_id.emplace_back(g.id(v), v);
  std::sort(by_id.begin(), by_id.end());

  std::vector<FeatureRow> rows(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    const auto& nb = g.neighbors(v);
    const std::int64_t deg = static_cast<std::int64_t>(nb.size());
    FeatureRow& f = rows[static_cast<std::size_t>(v)];
    f.fill(0);

    f[0] = kFeatureOne;
    f[1] = ratio_q16(deg, palette);

    // Clustering: closed triangles over neighbor pairs. Neighbor lists
    // are sorted, so membership is a binary search; instances this runs
    // on are small (the simulator's scale guard keeps them so).
    if (deg >= 2) {
      std::int64_t tri = 0;
      for (std::size_t i = 0; i < nb.size(); ++i) {
        for (std::size_t j = i + 1; j < nb.size(); ++j) {
          if (g.has_edge(nb[i], nb[j])) ++tri;
        }
      }
      f[2] = ratio_q16(2 * tri, deg * (deg - 1));
    }

    f[3] = (g.id(v) & 1) ? kFeatureOne : 0;

    std::int64_t nbr_deg_sum = 0;
    for (NodeId u : nb) {
      nbr_deg_sum += static_cast<std::int64_t>(g.neighbors(u).size());
    }
    f[4] = deg > 0 ? ratio_q16(nbr_deg_sum, deg * palette) : 0;

    if (prior == nullptr) continue;
    const Value mine = (*prior)[static_cast<std::size_t>(v)];

    bool present = false;   // prior carries a non-neutral value here
    bool invalid = false;   // ... that is locally inconsistent (1-hop)
    std::int64_t marked = 0;  // kind-aware neighbor-prior count
    switch (kind) {
      case ProblemKind::kMis: {
        present = mine == 1;
        for (NodeId u : nb) {
          if ((*prior)[static_cast<std::size_t>(u)] == 1) ++marked;
        }
        // Active under the base rule (approximately): a claimed node
        // with a claiming neighbor, or an unclaimed node no neighbor of
        // which claims.
        invalid = present ? marked > 0 : marked == 0;
        break;
      }
      case ProblemKind::kMatching: {
        present = mine != kNoNode;
        for (NodeId u : nb) {
          if ((*prior)[static_cast<std::size_t>(u)] != kNoNode) ++marked;
        }
        if (present) {
          const NodeId partner = find_by_id(by_id, mine);
          invalid =
              partner == kNoNode || !g.has_edge(v, partner) ||
              (*prior)[static_cast<std::size_t>(partner)] != g.id(v);
        }
        break;
      }
      case ProblemKind::kColoring: {
        present = mine >= 1 && mine <= palette;
        for (NodeId u : nb) {
          if ((*prior)[static_cast<std::size_t>(u)] == mine) ++marked;
        }
        invalid = !present || marked > 0;
        break;
      }
      case ProblemKind::kEdgeColoring:
        break;  // rejected above
    }
    f[5] = present ? kFeatureOne : 0;
    f[6] = invalid ? kFeatureOne : 0;
    f[7] = ratio_q16(marked, deg);
  }
  return rows;
}

}  // namespace dgap
