#include "graph/generators.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <thread>
#include <utility>

#include "common/require.hpp"
#include "graph/key_table.hpp"

namespace dgap {

namespace {

/// Derived node counts are computed in 64 bits and bounds-checked before
/// the narrowing: at n = 10^7-scale parameters, products like w*h or
/// spine*(legs+1) overflow 32-bit NodeId arithmetic silently otherwise
/// (pinned by tests/graph_test.cpp, DerivedNodeCountsOverflowCleanly).
NodeId checked_node_count(std::int64_t n, const char* what) {
  DGAP_REQUIRE(n <= std::numeric_limits<NodeId>::max(),
               std::string(what) + ": node count overflows NodeId");
  return static_cast<NodeId>(n);
}

}  // namespace

Graph make_line(NodeId n) {
  GraphBuilder g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g.build();
}

Graph make_ring(NodeId n) {
  DGAP_REQUIRE(n >= 3, "a ring needs at least 3 nodes");
  GraphBuilder g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  g.add_edge(n - 1, 0);
  return g.build();
}

Graph make_clique(NodeId n) {
  GraphBuilder g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  return g.build();
}

Graph make_star(NodeId n) {
  DGAP_REQUIRE(n >= 1, "a star needs at least 1 node");
  GraphBuilder g(n);
  for (NodeId v = 1; v < n; ++v) g.add_edge(0, v);
  return g.build();
}

Graph make_wheel_fk(NodeId k) {
  DGAP_REQUIRE(k >= 3, "F_k needs at least 3 rim nodes");
  GraphBuilder g(
      checked_node_count(2 * static_cast<std::int64_t>(k) + 1, "F_k"));
  const NodeId hub = 0;
  for (NodeId i = 0; i < k; ++i) {
    const NodeId mid = 1 + i;
    const NodeId rim = 1 + k + i;
    g.add_edge(hub, mid);
    g.add_edge(mid, rim);
  }
  for (NodeId i = 0; i < k; ++i) {
    const NodeId rim = 1 + k + i;
    const NodeId next = 1 + k + (i + 1) % k;
    g.add_edge(rim, next);
  }
  return g.build();
}

Graph make_grid(NodeId w, NodeId h) {
  DGAP_REQUIRE(w >= 1 && h >= 1, "grid dimensions must be positive");
  GraphBuilder g(checked_node_count(
      static_cast<std::int64_t>(w) * static_cast<std::int64_t>(h), "grid"));
  for (NodeId y = 0; y < h; ++y) {
    for (NodeId x = 0; x < w; ++x) {
      if (x + 1 < w) g.add_edge(grid_index(w, x, y), grid_index(w, x + 1, y));
      if (y + 1 < h) g.add_edge(grid_index(w, x, y), grid_index(w, x, y + 1));
    }
  }
  return g.build();
}

Graph make_hypercube(int dims) {
  DGAP_REQUIRE(dims >= 0 && dims < 20, "hypercube dimension out of range");
  const NodeId n = static_cast<NodeId>(1) << dims;
  GraphBuilder g(n);
  for (NodeId v = 0; v < n; ++v) {
    for (int b = 0; b < dims; ++b) {
      NodeId u = v ^ (static_cast<NodeId>(1) << b);
      if (v < u) g.add_edge(v, u);
    }
  }
  return g.build();
}

Graph make_complete_bipartite(NodeId a, NodeId b) {
  GraphBuilder g(checked_node_count(
      static_cast<std::int64_t>(a) + static_cast<std::int64_t>(b),
      "complete bipartite"));
  for (NodeId u = 0; u < a; ++u) {
    for (NodeId v = 0; v < b; ++v) g.add_edge(u, a + v);
  }
  return g.build();
}

Graph make_gnp(NodeId n, double p, Rng& rng) {
  DGAP_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
  GraphBuilder g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.flip(p)) g.add_edge(u, v);
    }
  }
  return g.build();
}

namespace {

/// Run `work(b)` for every block b in [0, blocks), spreading blocks over
/// at most `num_threads` std::threads claimed from a shared counter. Block
/// outputs must be stored per block — the caller merges them in block
/// order, so which thread computed a block never matters.
template <typename Work>
void for_each_block(std::int64_t blocks, int num_threads, const Work& work) {
  const int workers = static_cast<int>(
      std::min<std::int64_t>(blocks, std::max(num_threads, 1)));
  if (workers <= 1) {
    for (std::int64_t b = 0; b < blocks; ++b) work(b);
    return;
  }
  std::atomic<std::int64_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers) - 1);
  const auto loop = [&] {
    for (;;) {
      const std::int64_t b = next.fetch_add(1);
      if (b >= blocks) return;
      work(b);
    }
  };
  for (int t = 1; t < workers; ++t) pool.emplace_back(loop);
  loop();
  for (auto& th : pool) th.join();
}

/// Block count for the parallel random-graph builders: a pure function of
/// the instance size (NEVER of num_threads — the block structure defines
/// the output, so it must not change with the host), roughly one block per
/// 8k units of work, capped at 64.
std::int64_t generator_blocks(std::int64_t size) {
  return std::clamp<std::int64_t>(size / 8192, 1, 64);
}

/// Packed key of the unordered pair {u, v} over n nodes.
std::uint64_t pair_key(NodeId u, NodeId v, NodeId n) {
  return static_cast<std::uint64_t>(std::min(u, v)) *
             static_cast<std::uint64_t>(n) +
         static_cast<std::uint64_t>(std::max(u, v));
}

}  // namespace

Graph make_gnp_sparse(NodeId n, double p, Rng& rng, int num_threads) {
  DGAP_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
  DGAP_REQUIRE(num_threads >= 1, "num_threads must be >= 1");
  if (n < 2 || p <= 0.0) return Graph(n);
  // Batagelj–Brandes geometric skipping: enumerate the pairs (v, w),
  // w < v, in lexicographic order and jump ahead by a Geometric(p) gap per
  // present edge. One rng draw per edge (plus the final overshoot), so
  // generation is O(n + m) expected instead of O(n^2). For p = 1 the log
  // ratio is finite/−inf = 0 and every pair is emitted.
  //
  // The pair sequence is cut into fixed row-range blocks of roughly equal
  // pair count (boundaries a pure function of n), each restarted from its
  // own seed — drawn serially here, so the parent rng advances the same
  // way for every thread count. Geometric gaps are memoryless, so a
  // restart at a block boundary samples the same distribution as the
  // straight-through scan; merging the per-block edge lists in block order
  // keeps the lexicographic emit order of the serial scan.
  const std::int64_t total_pairs =
      static_cast<std::int64_t>(n) * (n - 1) / 2;
  const std::int64_t blocks = generator_blocks(total_pairs);
  std::vector<NodeId> row_hi(static_cast<std::size_t>(blocks));
  for (std::int64_t b = 0; b < blocks; ++b) {
    // Smallest row v with v(v-1)/2 >= total_pairs * (b+1) / blocks.
    const std::int64_t target = total_pairs / blocks * (b + 1) +
                                total_pairs % blocks * (b + 1) / blocks;
    NodeId lo = 1, hi = n;
    while (lo < hi) {
      const NodeId mid = lo + (hi - lo) / 2;
      if (static_cast<std::int64_t>(mid) * (mid - 1) / 2 >= target) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    row_hi[static_cast<std::size_t>(b)] = b + 1 == blocks ? n : lo;
  }
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(blocks));
  for (auto& s : seeds) s = rng.next();
  const double denom = std::log1p(-p);  // log(1-p) < 0
  std::vector<std::vector<std::pair<NodeId, NodeId>>> block_edges(
      static_cast<std::size_t>(blocks));
  for_each_block(blocks, num_threads, [&](std::int64_t b) {
    const std::size_t bu = static_cast<std::size_t>(b);
    Rng block_rng(seeds[bu]);
    auto& out = block_edges[bu];
    NodeId v = std::max<NodeId>(b == 0 ? 1 : row_hi[bu - 1], 1);
    const NodeId end = row_hi[bu];
    std::int64_t w = -1;  // 64-bit: a single skip can overshoot past v
    while (v < end) {
      const double r = block_rng.uniform01();  // [0, 1): log1p(-r) finite
      w += 1 + static_cast<std::int64_t>(std::floor(std::log1p(-r) / denom));
      while (w >= v && v < end) {
        w -= v;
        ++v;
      }
      if (v < end) out.emplace_back(v, static_cast<NodeId>(w));
    }
  });
  GraphBuilder g(n);
  std::size_t total = 0;
  for (const auto& edges : block_edges) total += edges.size();
  g.reserve(total);
  for (auto& edges : block_edges) {
    for (const auto& [v, w] : edges) g.add_edge(v, w);
    std::vector<std::pair<NodeId, NodeId>>().swap(edges);  // lower the peak
  }
  return g.build();
}

Graph make_gnm(NodeId n, std::int64_t m, Rng& rng, int num_threads) {
  const std::int64_t pairs =
      static_cast<std::int64_t>(n) * (n - 1) / 2;
  DGAP_REQUIRE(m >= 0 && m <= pairs, "edge count out of range");
  DGAP_REQUIRE(num_threads >= 1, "num_threads must be >= 1");
  if (m == 0) return Graph(n);
  // Rejection sampling over the pair space, deduplicated by a packed key.
  // Expected draws m / (1 - m/pairs): O(m) while m is well below pairs/2
  // (the sparse regime this generator exists for).
  //
  // The stream is cut into fixed quota blocks (a pure function of m), each
  // rejection-sampling its quota of locally-distinct pairs from its own
  // serially-drawn seed. The serial merge walks the blocks in order,
  // keeping each pair's first occurrence; cross-block duplicates leave a
  // shortfall that a serial top-up stream (its seed drawn after the block
  // seeds) fills, so the graph has exactly m edges and is identical for
  // every num_threads.
  const std::int64_t blocks = generator_blocks(m);
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(blocks));
  for (auto& s : seeds) s = rng.next();
  Rng topup_rng(rng.next());
  const auto draw_key = [n](Rng& r) -> std::uint64_t {
    for (;;) {
      const NodeId u = static_cast<NodeId>(
          r.next_below(static_cast<std::uint64_t>(n)));
      const NodeId v = static_cast<NodeId>(
          r.next_below(static_cast<std::uint64_t>(n)));
      if (u != v) return pair_key(u, v, n);
    }
  };
  std::vector<std::vector<std::uint64_t>> block_keys(
      static_cast<std::size_t>(blocks));
  for_each_block(blocks, num_threads, [&](std::int64_t b) {
    const std::size_t bu = static_cast<std::size_t>(b);
    const std::int64_t quota = m * (b + 1) / blocks - m * b / blocks;
    Rng block_rng(seeds[bu]);
    auto& keys = block_keys[bu];
    keys.reserve(static_cast<std::size_t>(quota));
    KeySet local(static_cast<std::size_t>(quota));
    while (static_cast<std::int64_t>(keys.size()) < quota) {
      const std::uint64_t key = draw_key(block_rng);
      if (local.insert(key)) keys.push_back(key);
    }
  });
  GraphBuilder g(n);
  g.reserve(static_cast<std::size_t>(m));
  KeySet chosen(static_cast<std::size_t>(m));
  std::int64_t added = 0;
  const auto add_key = [&](std::uint64_t key) {
    if (!chosen.insert(key)) return;
    const NodeId lo = static_cast<NodeId>(key / static_cast<std::uint64_t>(n));
    const NodeId hi = static_cast<NodeId>(key % static_cast<std::uint64_t>(n));
    g.add_edge(lo, hi);
    ++added;
  };
  // The merged keys are known in advance: start each one's table slot
  // loading a few keys ahead so the random misses overlap.
  constexpr std::size_t kAhead = 8;
  for (const auto& keys : block_keys) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (i + kAhead < keys.size()) chosen.prefetch(keys[i + kAhead]);
      add_key(keys[i]);
    }
  }
  while (added < m) add_key(draw_key(topup_rng));
  return g.build();
}

Graph make_random_tree(NodeId n, Rng& rng) {
  DGAP_REQUIRE(n >= 1, "a tree needs at least one node");
  GraphBuilder g(n);
  if (n == 1) return g.build();
  if (n == 2) {
    g.add_edge(0, 1);
    return g.build();
  }
  // Prüfer decoding.
  std::vector<NodeId> prufer(static_cast<std::size_t>(n - 2));
  for (auto& x : prufer) x = static_cast<NodeId>(rng.next_below(n));
  std::vector<int> deg(static_cast<std::size_t>(n), 1);
  for (NodeId x : prufer) ++deg[x];
  std::set<NodeId> leaves;
  for (NodeId v = 0; v < n; ++v) {
    if (deg[v] == 1) leaves.insert(v);
  }
  for (NodeId x : prufer) {
    NodeId leaf = *leaves.begin();
    leaves.erase(leaves.begin());
    g.add_edge(leaf, x);
    if (--deg[x] == 1) leaves.insert(x);
  }
  NodeId u = *leaves.begin();
  NodeId v = *std::next(leaves.begin());
  g.add_edge(u, v);
  return g.build();
}

Graph make_random_connected(NodeId n, std::int64_t extra_edges, Rng& rng) {
  const Graph tree = make_random_tree(n, rng);
  GraphBuilder g(n);
  for (const auto& [u, v] : tree.edges()) g.add_edge(u, v);
  const std::int64_t max_extra =
      static_cast<std::int64_t>(n) * (n - 1) / 2 - (n - 1);
  extra_edges = std::min(extra_edges, max_extra);
  // The pairs chosen so far are the tree's edges plus `extra`, so the
  // accept/reject sequence (and every rng draw) is the in-place one.
  KeySet extra(
      static_cast<std::size_t>(std::max<std::int64_t>(extra_edges, 0)));
  std::int64_t added = 0;
  while (added < extra_edges) {
    NodeId u = static_cast<NodeId>(rng.next_below(n));
    NodeId v = static_cast<NodeId>(rng.next_below(n));
    if (u == v || tree.has_edge(u, v) || !extra.insert(pair_key(u, v, n))) {
      continue;
    }
    g.add_edge(u, v);
    ++added;
  }
  return g.build();
}

RootedTree make_rooted_line(NodeId n) {
  RootedTree t;
  t.graph = make_line(n);
  t.parent.assign(static_cast<std::size_t>(n), kNoNode);
  for (NodeId v = 1; v < n; ++v) t.parent[v] = v - 1;
  t.root = 0;
  return t;
}

namespace {

/// A rooted tree from its parent array (parent[root] == kNoNode).
RootedTree rooted_tree_from_parents(std::vector<NodeId> parent, NodeId root) {
  const NodeId n = static_cast<NodeId>(parent.size());
  GraphBuilder g(n);
  for (NodeId v = 0; v < n; ++v) {
    if (parent[v] != kNoNode) g.add_edge(parent[v], v);
  }
  RootedTree t;
  t.graph = g.build();
  t.parent = std::move(parent);
  t.root = root;
  return t;
}

}  // namespace

RootedTree make_rooted_binary_tree(int height) {
  DGAP_REQUIRE(height >= 0 && height < 22, "height out of range");
  const NodeId n = static_cast<NodeId>((1LL << (height + 1)) - 1);
  std::vector<NodeId> parent(static_cast<std::size_t>(n), kNoNode);
  for (NodeId v = 1; v < n; ++v) parent[v] = (v - 1) / 2;
  return rooted_tree_from_parents(std::move(parent), 0);
}

RootedTree make_rooted_random_tree(NodeId n, Rng& rng) {
  DGAP_REQUIRE(n >= 1, "a tree needs at least one node");
  std::vector<NodeId> parent(static_cast<std::size_t>(n), kNoNode);
  for (NodeId v = 1; v < n; ++v) {
    parent[v] =
        static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(v)));
  }
  return rooted_tree_from_parents(std::move(parent), 0);
}

RootedTree make_rooted_kary_tree(int arity, int levels) {
  DGAP_REQUIRE(arity >= 1 && levels >= 1, "arity and levels must be positive");
  std::int64_t n64 = 0, layer = 1;
  for (int l = 0; l < levels; ++l) {
    n64 += layer;
    layer *= arity;
    DGAP_REQUIRE(n64 < (1LL << 26), "k-ary tree too large");
  }
  const NodeId n = static_cast<NodeId>(n64);
  // Breadth-first layout: children of v are arity*v + 1 .. arity*v + arity.
  std::vector<NodeId> parent(static_cast<std::size_t>(n), kNoNode);
  for (NodeId v = 1; v < n; ++v) parent[v] = (v - 1) / arity;
  return rooted_tree_from_parents(std::move(parent), 0);
}

Graph make_caterpillar(NodeId spine, NodeId legs) {
  DGAP_REQUIRE(spine >= 1 && legs >= 0, "bad caterpillar parameters");
  GraphBuilder g(checked_node_count(
      static_cast<std::int64_t>(spine) * (static_cast<std::int64_t>(legs) + 1),
      "caterpillar"));
  for (NodeId s = 0; s + 1 < spine; ++s) g.add_edge(s, s + 1);
  for (NodeId s = 0; s < spine; ++s) {
    for (NodeId l = 0; l < legs; ++l) g.add_edge(s, spine + s * legs + l);
  }
  return g.build();
}

Graph disjoint_union(const Graph& a, const Graph& b) {
  GraphBuilder builder(a.num_nodes() + b.num_nodes());
  for (auto [u, v] : a.edges()) builder.add_edge(u, v);
  for (auto [u, v] : b.edges())
    builder.add_edge(a.num_nodes() + u, a.num_nodes() + v);
  Graph g = builder.build();
  std::vector<Value> ids;
  ids.reserve(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < a.num_nodes(); ++v) ids.push_back(a.id(v));
  for (NodeId v = 0; v < b.num_nodes(); ++v)
    ids.push_back(a.id_bound() + b.id(v));
  g.set_ids(std::move(ids));
  g.set_id_bound(a.id_bound() + b.id_bound());
  return g;
}

void randomize_ids(Graph& g, Rng& rng) {
  std::vector<Value> ids(static_cast<std::size_t>(g.num_nodes()));
  std::iota(ids.begin(), ids.end(), Value{1});
  rng.shuffle(ids);
  g.set_ids(std::move(ids));
  g.set_id_bound(g.num_nodes());
}

void randomize_ids_sparse(Graph& g, std::int64_t d, Rng& rng) {
  const NodeId n = g.num_nodes();
  DGAP_REQUIRE(d >= n, "id domain smaller than node count");
  // Floyd's algorithm for a distinct sample of size n from {1..d}.
  std::set<Value> chosen;
  for (std::int64_t j = d - n + 1; j <= d; ++j) {
    Value t = rng.uniform(1, j);
    if (!chosen.insert(t).second) chosen.insert(j);
  }
  std::vector<Value> ids(chosen.begin(), chosen.end());
  rng.shuffle(ids);
  g.set_ids(std::move(ids));
  g.set_id_bound(d);
}

void sorted_ids(Graph& g) {
  std::vector<Value> ids(static_cast<std::size_t>(g.num_nodes()));
  std::iota(ids.begin(), ids.end(), Value{1});
  g.set_ids(std::move(ids));
  g.set_id_bound(g.num_nodes());
}

}  // namespace dgap
