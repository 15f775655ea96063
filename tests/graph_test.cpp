#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/edits.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/key_table.hpp"
#include "graph/properties.hpp"
#include "graph/spec.hpp"
#include "predict/generators.hpp"

namespace dgap {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(Graph, DefaultIdsAreOneBased) {
  Graph g(4);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(g.id(v), v + 1);
  EXPECT_EQ(g.id_bound(), 4);
}

TEST(Graph, AddAndQueryEdges) {
  GraphBuilder b(4);
  b.add_edge(0, 2);
  b.add_edge(2, 3);
  const Graph g = b.build();
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(2), 2);
  EXPECT_EQ(g.max_degree(), 2);
}

TEST(Graph, RejectsSelfLoopAndDuplicates) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  EXPECT_THROW(b.add_edge(1, 1), std::invalid_argument);
  EXPECT_THROW(b.add_edge(0, 5), std::invalid_argument);
  EXPECT_THROW(b.add_edge(-1, 0), std::invalid_argument);
  b.add_edge(1, 0);  // duplicates are caught at build()
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(GraphBuilder, RejectsDuplicatesInEitherOrientationFarApart) {
  for (const bool reversed : {false, true}) {
    GraphBuilder b(50);
    b.add_edge(3, 17);
    for (NodeId v = 20; v < 49; ++v) b.add_edge(v, v + 1);
    if (reversed) {
      b.add_edge(17, 3);
    } else {
      b.add_edge(3, 17);
    }
    EXPECT_THROW(b.build(), std::invalid_argument) << reversed;
  }
}

TEST(GraphBuilder, KeepsIsolatedNodesAndSortsRows) {
  GraphBuilder b(7);
  b.add_edge(4, 0);
  b.add_edge(2, 4);
  b.add_edge(4, 1);
  b.add_edge(6, 2);
  const Graph g = b.build();
  EXPECT_EQ(g.num_nodes(), 7);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.degree(3), 0);
  EXPECT_EQ(g.degree(5), 0);
  EXPECT_TRUE(g.neighbors(3).empty());
  EXPECT_EQ(g.id(5), 6);
  EXPECT_EQ(g.id_bound(), 7);
  EXPECT_EQ(g.max_degree(), 3);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nb = g.neighbors(v);
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end())) << v;
  }
  const auto nb4 = g.neighbors(4);
  EXPECT_EQ(std::vector<NodeId>(nb4.begin(), nb4.end()),
            (std::vector<NodeId>{0, 1, 2}));
}

TEST(GraphBuilder, EdgeSlotFindsEdgesAndMissesNonEdges) {
  const Graph g = make_star(5);  // hub 0, leaves 1..4
  ASSERT_EQ(g.adjacency().size(), 8u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nb = g.neighbors(v);
    for (std::size_t j = 0; j < nb.size(); ++j) {
      const std::uint32_t slot = g.edge_slot(v, nb[j]);
      EXPECT_EQ(slot, g.row_begin(v) + j);
      EXPECT_EQ(g.adjacency()[slot], nb[j]);
    }
  }
  EXPECT_EQ(g.edge_slot(0, 3), 2u);
  EXPECT_EQ(g.edge_slot(3, 0), g.row_begin(3));
  EXPECT_EQ(g.edge_slot(1, 2), Graph::kNoSlot);
  EXPECT_EQ(g.edge_slot(2, 2), Graph::kNoSlot);
  EXPECT_EQ(g.edge_slot(0, 9), Graph::kNoSlot);
}

TEST(Graph, SetIdsValidatesDistinctness) {
  Graph g(3);
  EXPECT_THROW(g.set_ids({1, 2, 2}), std::invalid_argument);
  EXPECT_THROW(g.set_ids({0, 1, 2}), std::invalid_argument);
  g.set_ids({10, 20, 30});
  EXPECT_EQ(g.id(2), 30);
  EXPECT_GE(g.id_bound(), 30);

  // At scale, on a shuffled permutation (so no check can lean on sorted
  // input), with each defect planted where a scan starts or ends. A
  // rejected call leaves the identifiers and the bound as they were.
  constexpr NodeId kN = 100'000;
  Graph big(kN);
  std::vector<Value> perm(static_cast<std::size_t>(kN));
  std::iota(perm.begin(), perm.end(), Value{1});
  Rng rng(7);
  rng.shuffle(perm);
  const auto rejects = [&big](std::vector<Value> ids, std::size_t at,
                              Value bad) {
    ids[at] = bad;
    const std::vector<Value> before = big.ids();
    const std::int64_t bound = big.id_bound();
    EXPECT_THROW(big.set_ids(std::move(ids)), std::invalid_argument)
        << "position " << at << ", value " << bad;
    EXPECT_EQ(big.ids(), before);
    EXPECT_EQ(big.id_bound(), bound);
  };
  rejects(perm, 0, perm.back());        // duplicate in the first slot
  rejects(perm, kN - 1, perm.front());  // duplicate in the last slot
  rejects(perm, kN - 1, 0);             // non-positive in the last slot
  rejects(perm, kN - 1, -1);
  big.set_ids(perm);
  EXPECT_EQ(big.id(0), perm[0]);
  EXPECT_EQ(big.id_bound(), kN);

  // A sparse domain near 2^62 with a power-of-two stride: the check must
  // not assume identifiers are dense or hash well by their low bits.
  std::vector<Value> sparse(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    sparse[i] = (Value{1} << 62) + perm[i] * (Value{1} << 20);
  }
  rejects(sparse, 0, sparse.back());
  rejects(sparse, kN - 1, sparse.front());
  rejects(sparse, kN - 1, 0);
  big.set_ids(sparse);
  EXPECT_EQ(big.id_bound(), (Value{1} << 62) + kN * (Value{1} << 20));
}

TEST(KeyTable, InsertAndFind) {
  KeyIndex index(3);
  EXPECT_TRUE(index.insert(7, 1));
  EXPECT_TRUE(index.insert(0, 2));
  EXPECT_FALSE(index.insert(7, 9));  // the first value stays
  ASSERT_NE(index.find(7), nullptr);
  EXPECT_EQ(*index.find(7), 1);
  EXPECT_EQ(*index.find(0), 2);
  EXPECT_EQ(index.find(8), nullptr);
  EXPECT_EQ(index.find(KeyIndex::kEmptyKey), nullptr);
  EXPECT_THROW(index.insert(KeyIndex::kEmptyKey, 3), std::invalid_argument);
  EXPECT_TRUE(index.insert(1ULL << 63, 3));
  EXPECT_THROW(index.insert(5, 4), std::logic_error);  // sized for 3 keys
}

TEST(Graph, EdgesListSorted) {
  Graph g = make_ring(4);
  auto es = g.edges();
  ASSERT_EQ(es.size(), 4u);
  for (auto [u, v] : es) EXPECT_LT(u, v);
}

TEST(Graph, InducedSubgraphKeepsIdsAndEdges) {
  Graph g = make_ring(5);
  g.set_ids({10, 20, 30, 40, 50});
  auto [sub, map] = g.induced({1, 2, 3});
  EXPECT_EQ(sub.num_nodes(), 3);
  EXPECT_EQ(sub.num_edges(), 2);  // path 1-2-3
  EXPECT_EQ(sub.id(0), 20);
  EXPECT_EQ(sub.id(2), 40);
  EXPECT_EQ(sub.id_bound(), g.id_bound());
  EXPECT_EQ(map[0], 1);
}

TEST(Generators, Line) {
  Graph g = make_line(5);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_TRUE(is_tree(g));
  EXPECT_EQ(diameter(g), 4);
}

TEST(Generators, Ring) {
  Graph g = make_ring(6);
  EXPECT_EQ(g.num_edges(), 6);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_EQ(diameter(g), 3);
}

TEST(Generators, Clique) {
  Graph g = make_clique(5);
  EXPECT_EQ(g.num_edges(), 10);
  EXPECT_EQ(diameter(g), 1);
}

TEST(Generators, Star) {
  Graph g = make_star(6);
  EXPECT_EQ(g.num_edges(), 5);
  EXPECT_EQ(g.max_degree(), 5);
  EXPECT_EQ(diameter(g), 2);
}

// Figure 1: F_k has diameter 4, but the induced rim has diameter ⌊k/2⌋.
TEST(Generators, WheelFkMatchesFigure1) {
  for (NodeId k : {3, 5, 8, 12}) {
    Graph g = make_wheel_fk(k);
    EXPECT_EQ(g.num_nodes(), 2 * k + 1);
    EXPECT_EQ(g.num_edges(), 3 * k);
    // Going through the hub bounds every distance by 4 once the rim is
    // long enough for the hub route to be the shortest.
    if (k >= 8) {
      EXPECT_EQ(diameter(g), 4);
    }
    std::vector<NodeId> rim;
    for (NodeId i = 0; i < k; ++i) rim.push_back(1 + k + i);
    auto [sub, map] = g.induced(rim);
    EXPECT_EQ(diameter(sub), k / 2);
  }
  EXPECT_EQ(diameter(make_wheel_fk(8)), 4);
}

TEST(Generators, Grid) {
  Graph g = make_grid(4, 3);
  EXPECT_EQ(g.num_nodes(), 12);
  EXPECT_EQ(g.num_edges(), 3 * 3 + 4 * 2);  // horizontal + vertical
  EXPECT_EQ(diameter(g), 5);
}

TEST(Generators, Hypercube) {
  Graph g = make_hypercube(4);
  EXPECT_EQ(g.num_nodes(), 16);
  EXPECT_EQ(g.num_edges(), 32);
  EXPECT_EQ(g.max_degree(), 4);
  EXPECT_EQ(diameter(g), 4);
}

TEST(Generators, CompleteBipartite) {
  Graph g = make_complete_bipartite(3, 4);
  EXPECT_EQ(g.num_edges(), 12);
  EXPECT_EQ(diameter(g), 2);
}

TEST(Generators, GnpRespectsExtremes) {
  Rng rng(1);
  Graph empty = make_gnp(10, 0.0, rng);
  EXPECT_EQ(empty.num_edges(), 0);
  Graph full = make_gnp(10, 1.0, rng);
  EXPECT_EQ(full.num_edges(), 45);
}

TEST(Generators, GnpSparseRespectsExtremesAndExpectation) {
  Rng rng(41);
  Graph empty = make_gnp_sparse(10, 0.0, rng);
  EXPECT_EQ(empty.num_edges(), 0);
  Graph full = make_gnp_sparse(10, 1.0, rng);
  EXPECT_EQ(full.num_edges(), 45);
  // Sparse regime: the edge count concentrates around p * n(n-1)/2. With
  // n = 2000, p = 4/n the expectation is ~3998 with σ ≈ 63; ±5σ bounds
  // make a seeded flake impossible in practice.
  const NodeId n = 2000;
  Graph g = make_gnp_sparse(n, 4.0 / n, rng);
  EXPECT_GT(g.num_edges(), 3998 - 320);
  EXPECT_LT(g.num_edges(), 3998 + 320);
  // Deterministic for a fixed seed.
  Rng r1(7), r2(7);
  EXPECT_EQ(make_gnp_sparse(200, 0.05, r1).edges(),
            make_gnp_sparse(200, 0.05, r2).edges());
}

TEST(Generators, GnmHasExactlyMEdges) {
  Rng rng(42);
  for (const std::int64_t m : {0LL, 1LL, 100LL, 4950LL}) {
    Graph g = make_gnm(100, m, rng);
    EXPECT_EQ(g.num_nodes(), 100);
    EXPECT_EQ(g.num_edges(), m);
  }
  EXPECT_THROW(make_gnm(100, 4951, rng), std::invalid_argument);
  EXPECT_THROW(make_gnm(100, -1, rng), std::invalid_argument);
  Rng r1(9), r2(9);
  EXPECT_EQ(make_gnm(300, 600, r1).edges(), make_gnm(300, 600, r2).edges());
}

TEST(Generators, ParallelBuildersAreByteIdenticalAcrossThreadCounts) {
  // The block decomposition is a pure function of the instance (never of
  // num_threads), per-block seeds are drawn serially, and blocks merge in
  // block order — so the thread count can only change who executes a
  // block, never what it contains. n is large enough for several blocks.
  const NodeId n = 20000;
  Graph gnp1 = [&] { Rng r(77); return make_gnp_sparse(n, 6.0 / n, r, 1); }();
  Graph gnm1 = [&] { Rng r(78); return make_gnm(n, 3 * n, r, 1); }();
  for (const int threads : {2, 4}) {
    Rng rp(77), rm(78);
    EXPECT_EQ(gnp1.edges(), make_gnp_sparse(n, 6.0 / n, rp, threads).edges());
    EXPECT_EQ(gnm1.edges(), make_gnm(n, 3 * n, rm, threads).edges());
  }
}

TEST(Generators, SparseFamiliesBuildThroughGraphSpec) {
  const GraphSpec gnps = GraphSpec::gnp_sparse(256, 8.0 / 256, 17,
                                               GraphSpec::IdPolicy::kRandomized);
  const Graph a = gnps.build();
  const Graph b = gnps.build();
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_EQ(a.ids(), b.ids());
  EXPECT_EQ(gnps.name(), "gnps_256_p0.03125_s17_rid");

  const GraphSpec gnm = GraphSpec::gnm(256, 512, 23);
  const Graph c = gnm.build();
  EXPECT_EQ(c.num_edges(), 512);
  EXPECT_EQ(gnm.name(), "gnm_256_m512_s23");
}

TEST(Generators, DerivedNodeCountsOverflowCleanly) {
  // Each of these products/sums exceeds NodeId (int32) when computed in 64
  // bits; the generators must reject them instead of wrapping silently.
  EXPECT_THROW(make_grid(65536, 65536), std::invalid_argument);
  EXPECT_THROW(make_caterpillar(1 << 20, 1 << 12), std::invalid_argument);
  EXPECT_THROW(make_complete_bipartite(2000000000, 2000000000),
               std::invalid_argument);
  EXPECT_THROW(make_wheel_fk(1500000000), std::invalid_argument);
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(3);
  for (NodeId n : {1, 2, 3, 10, 50}) {
    Graph g = make_random_tree(n, rng);
    EXPECT_EQ(g.num_nodes(), n);
    EXPECT_TRUE(is_tree(g)) << "n=" << n;
  }
}

TEST(Generators, RandomConnectedHasExtraEdges) {
  Rng rng(4);
  Graph g = make_random_connected(20, 10, rng);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.num_edges(), 19 + 10);
}

TEST(Generators, RootedLineStructure) {
  RootedTree t = make_rooted_line(5);
  EXPECT_EQ(t.parent[0], kNoNode);
  EXPECT_EQ(t.parent[4], 3);
  EXPECT_TRUE(is_tree(t.graph));
}

TEST(Generators, RootedBinaryTree) {
  RootedTree t = make_rooted_binary_tree(3);
  EXPECT_EQ(t.graph.num_nodes(), 15);
  EXPECT_TRUE(is_tree(t.graph));
  EXPECT_EQ(t.parent[14], 6);
}

TEST(Generators, RootedRandomTreeParentsValid) {
  Rng rng(5);
  RootedTree t = make_rooted_random_tree(40, rng);
  EXPECT_TRUE(is_tree(t.graph));
  for (NodeId v = 1; v < 40; ++v) {
    EXPECT_GE(t.parent[v], 0);
    EXPECT_LT(t.parent[v], v);
    EXPECT_TRUE(t.graph.has_edge(v, t.parent[v]));
  }
}

TEST(Generators, RootedKaryTree) {
  RootedTree t = make_rooted_kary_tree(3, 3);
  EXPECT_EQ(t.graph.num_nodes(), 1 + 3 + 9);
  EXPECT_TRUE(is_tree(t.graph));
}

TEST(Generators, Caterpillar) {
  Graph g = make_caterpillar(4, 2);
  EXPECT_EQ(g.num_nodes(), 12);
  EXPECT_TRUE(is_tree(g));
}

TEST(Generators, DisjointUnionKeepsBothSidesAndDistinctIds) {
  Graph a = make_line(3), b = make_ring(4);
  Graph u = disjoint_union(a, b);
  EXPECT_EQ(u.num_nodes(), 7);
  EXPECT_EQ(u.num_edges(), 2 + 4);
  std::set<Value> ids(u.ids().begin(), u.ids().end());
  EXPECT_EQ(ids.size(), 7u);
  EXPECT_EQ(connected_components(u).size(), 2u);
}

TEST(Generators, RandomizeIdsIsPermutation) {
  Rng rng(6);
  Graph g = make_line(10);
  randomize_ids(g, rng);
  std::set<Value> ids(g.ids().begin(), g.ids().end());
  EXPECT_EQ(ids.size(), 10u);
  EXPECT_EQ(*ids.begin(), 1);
  EXPECT_EQ(*ids.rbegin(), 10);
}

TEST(Generators, SparseIdsWithinDomain) {
  Rng rng(7);
  Graph g = make_line(10);
  randomize_ids_sparse(g, 1000, rng);
  std::set<Value> ids(g.ids().begin(), g.ids().end());
  EXPECT_EQ(ids.size(), 10u);
  EXPECT_GE(*ids.begin(), 1);
  EXPECT_LE(*ids.rbegin(), 1000);
  EXPECT_EQ(g.id_bound(), 1000);
}

std::uint64_t fnv1a_mix(std::uint64_t h, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t instance_digest(const Graph& g) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Value id : g.ids()) h = fnv1a_mix(h, &id, sizeof(id));
  const std::int64_t d = g.id_bound();
  h = fnv1a_mix(h, &d, sizeof(d));
  for (const auto& [u, v] : g.edges()) {
    h = fnv1a_mix(h, &u, sizeof(u));
    h = fnv1a_mix(h, &v, sizeof(v));
  }
  const int delta = g.max_degree();
  return fnv1a_mix(h, &delta, sizeof(delta));
}

std::vector<std::pair<std::string, Graph>> pinned_instances() {
  std::vector<std::pair<std::string, Graph>> out;
  const auto add = [&out](std::string name, Graph g) {
    out.emplace_back(std::move(name), std::move(g));
  };
  add("ring", make_ring(9));
  add("wheel_fk", make_wheel_fk(6));
  add("grid", make_grid(5, 4));
  add("hypercube", make_hypercube(4));
  add("complete_bipartite", make_complete_bipartite(3, 5));
  {
    Rng rng(11);
    Graph g = make_gnp(80, 0.08, rng);
    randomize_ids(g, rng);
    add("gnp", std::move(g));
  }
  for (const int threads : {1, 4}) {
    Rng rng(12);
    Graph g = make_gnp_sparse(20000, 6.0 / 20000, rng, threads);
    randomize_ids_sparse(g, 50000, rng);
    add("gnp_sparse_t" + std::to_string(threads), std::move(g));
  }
  {
    Rng rng(13);
    add("gnm", make_gnm(3000, 9000, rng, 2));
  }
  {
    Rng rng(14);
    add("random_connected", make_random_connected(200, 150, rng));
  }
  {
    Rng rng(15);
    add("rooted_random_tree", make_rooted_random_tree(120, rng).graph);
  }
  add("rooted_binary_tree", make_rooted_binary_tree(5).graph);
  add("rooted_kary_tree", make_rooted_kary_tree(3, 4).graph);
  add("rooted_line", make_rooted_line(12).graph);
  add("caterpillar", make_caterpillar(7, 3));
  {
    Rng rng(16);
    Graph a = make_gnp(30, 0.2, rng);
    randomize_ids(a, rng);
    add("disjoint_union", disjoint_union(a, make_ring(7)));
  }
  {
    Rng rng(17);
    Graph g = make_gnp(90, 0.07, rng);
    randomize_ids(g, rng);
    std::vector<NodeId> keep;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (rng.flip(0.6)) keep.push_back(v);
    }
    add("induced", g.induced(keep).first);
  }
  {
    Rng rng(18);
    Graph g = make_gnp(100, 0.06, rng);
    add("perturb_edges", perturb_edges(g, 12, 15, rng));
  }
  {
    Rng rng(19);
    Graph g = make_gnp_sparse(600, 8.0 / 600, rng);
    randomize_ids(g, rng);
    ChurnSpec churn;
    churn.seed = 20;
    churn.edge_remove_frac = 0.05;
    churn.edge_add_frac = 0.05;
    churn.node_remove_frac = 0.02;
    churn.node_add_frac = 0.02;
    for (int epoch = 1; epoch <= 3; ++epoch) {
      g = apply_edits(g, churn.generate(g, epoch));
      add("churn_epoch" + std::to_string(epoch), g);
    }
  }
  return out;
}

// Every producer now builds through GraphBuilder's CSR. These digests of
// (ids, id_bound, edges(), max_degree()) were recorded from the earlier
// per-node sorted-insert construction, so they pin that each family's
// instances (and every rng draw behind them) are bit-identical. The three
// churn_epoch digests were re-recorded when ChurnSpec began wiring each
// inserted node by a partial Fisher–Yates over one survivor pool instead
// of a full shuffle per node: every epoch inserts 12 nodes, whose two
// edges each now go to other survivors; every draw before the wiring is
// unchanged.
TEST(Generators, InstancesUnchanged) {
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"ring", 0x0e0f35ca709d7fb9ULL},
      {"wheel_fk", 0x54404faeae4c4782ULL},
      {"grid", 0x46e9c2ebd8f3ab9cULL},
      {"hypercube", 0x0bcb332f69ca8d17ULL},
      {"complete_bipartite", 0x647adc4868168296ULL},
      {"gnp", 0x2955157895eefd98ULL},
      {"gnp_sparse_t1", 0xd35b534ace3650aaULL},
      {"gnp_sparse_t4", 0xd35b534ace3650aaULL},
      {"gnm", 0xb0a2442dac78fc9eULL},
      {"random_connected", 0x192d753f2459f97fULL},
      {"rooted_random_tree", 0xbc29a3ddbf802c81ULL},
      {"rooted_binary_tree", 0xfbcdb2b0ca561bb0ULL},
      {"rooted_kary_tree", 0x180dc2cdf7d956fbULL},
      {"rooted_line", 0x47d02cd96406880aULL},
      {"caterpillar", 0x90ba0b8d1b0f3960ULL},
      {"disjoint_union", 0xdee031b757f60bc6ULL},
      {"induced", 0x067a6a79c1e28f80ULL},
      {"perturb_edges", 0xb5edd735e0d1204aULL},
      {"churn_epoch1", 0xc017be36bff17d01ULL},
      {"churn_epoch2", 0x907315a298dbf5adULL},
      {"churn_epoch3", 0x7ba4a40445e64f74ULL},
  };
  const auto instances = pinned_instances();
  ASSERT_EQ(instances.size(), expected.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto& [name, g] = instances[i];
    EXPECT_EQ(name, expected[i].first);
    EXPECT_EQ(instance_digest(g), expected[i].second) << name;
    int delta = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      delta = std::max(delta, g.degree(v));
    }
    EXPECT_EQ(g.max_degree(), delta) << name;
  }
}

TEST(Properties, ConnectedComponents) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  const Graph g = b.build();
  auto comps = connected_components(g);
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0], (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(comps[1], (std::vector<NodeId>{2, 3, 4}));
  EXPECT_EQ(comps[2], (std::vector<NodeId>{5}));
}

TEST(Properties, BfsDistances) {
  Graph g = make_line(5);
  auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[4], 4);
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph h = b.build();
  auto d2 = bfs_distances(h, 0);
  EXPECT_EQ(d2[2], -1);
}

TEST(Properties, Degeneracy) {
  EXPECT_EQ(degeneracy(make_line(10)), 1);
  EXPECT_EQ(degeneracy(make_ring(10)), 2);
  EXPECT_EQ(degeneracy(make_clique(5)), 4);
  EXPECT_EQ(degeneracy(make_grid(5, 5)), 2);
  EXPECT_EQ(degeneracy(make_star(10)), 1);
}

TEST(Properties, MaxComponentSize) {
  Graph g = make_line(10);
  std::vector<bool> keep(10, true);
  keep[3] = false;
  EXPECT_EQ(max_component_size(g, keep), 6);
}

}  // namespace
}  // namespace dgap
