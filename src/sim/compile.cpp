#include "sim/compile.hpp"

#include <algorithm>
#include <numeric>

#include "common/require.hpp"

namespace dgap {

Skeleton compute_skeleton(const Graph& g) {
  const NodeId n = g.num_nodes();
  const std::size_t nu = static_cast<std::size_t>(n);
  Skeleton sk;
  sk.edge_in_skeleton.assign(g.adjacency().size(), 0);
  sk.parent.assign(nu, kNoNode);

  const auto mark = [&](NodeId v, NodeId u) {
    const std::uint32_t slot = g.edge_slot(v, u);
    DGAP_ASSERT(slot != Graph::kNoSlot, "tree edge is not in the graph");
    sk.edge_in_skeleton[slot] = 1;
  };

  // Seed BFS roots in ascending identifier order (identifiers, not
  // indices, break symmetry everywhere in this repo); each component's
  // first unvisited seed is its minimum-identifier node.
  std::vector<NodeId> seeds(nu);
  std::iota(seeds.begin(), seeds.end(), 0);
  std::sort(seeds.begin(), seeds.end(), [&](NodeId a, NodeId b) {
    return g.id(a) < g.id(b);
  });
  std::vector<std::uint8_t> visited(nu, 0);
  std::vector<NodeId> queue;
  std::vector<int> depth(nu, 0);
  for (const NodeId root : seeds) {
    if (visited[root]) continue;
    visited[root] = 1;
    queue.clear();
    queue.push_back(root);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId v = queue[head];
      for (const NodeId u : g.neighbors(v)) {
        if (visited[u]) continue;
        visited[u] = 1;
        sk.parent[static_cast<std::size_t>(u)] = v;
        depth[u] = depth[v] + 1;
        sk.depth = std::max(sk.depth, depth[u]);
        mark(v, u);
        mark(u, v);
        ++sk.tree_edges;
        queue.push_back(u);
      }
    }
  }
  return sk;
}

namespace {

class CompiledPhase final : public PhaseProgram {
 public:
  CompiledPhase(std::unique_ptr<PhaseProgram> inner,
                std::shared_ptr<const PhaseCompileSpec> spec)
      : inner_(std::move(inner)), spec_(std::move(spec)) {}

  void on_send(NodeContext& ctx, Channel& ch) override {
    if (!spec_->default_words.empty() &&
        (!spec_->default_first_round_only || round_ == 0)) {
      ch.declare_default(spec_->default_words);
    }
    if (spec_->skeleton_broadcasts) ch.relay_on_skeleton();
    inner_->on_send(ctx, ch);
  }

  Status on_receive(NodeContext& ctx, Channel& ch) override {
    ++round_;
    return inner_->on_receive(ctx, ch);
  }

 private:
  std::unique_ptr<PhaseProgram> inner_;
  // Shared, not referenced: programs outlive the factory that built them
  // (the engine constructor discards its factory argument).
  std::shared_ptr<const PhaseCompileSpec> spec_;
  int round_ = 0;
};

}  // namespace

PhaseFactory compile_phase(PhaseFactory inner, PhaseCompileSpec spec) {
  DGAP_REQUIRE(spec.default_words.size() <= detail::SendRecord::kInlineCap,
               "a default message holds at most SendRecord::kInlineCap words");
  auto shared = std::make_shared<const PhaseCompileSpec>(std::move(spec));
  return [inner = std::move(inner), shared](NodeId index) {
    return std::make_unique<CompiledPhase>(inner(index), shared);
  };
}

void NaiveFloodMinPhase::on_send(NodeContext& ctx, Channel& ch) {
  if (best_ == kUndefined) best_ = ctx.id();
  ch.broadcast({best_});
}

PhaseProgram::Status NaiveFloodMinPhase::on_receive(NodeContext& ctx,
                                                    Channel& ch) {
  for (const Message* m : ch.inbox()) {
    best_ = std::min(best_, m->words[0]);
  }
  if (++rounds_ < ctx.n()) return Status::kRunning;
  ctx.set_output(best_);
  ctx.terminate();
  return Status::kFinished;
}

PhaseFactory make_flood_min() {
  return [](NodeId) { return std::make_unique<NaiveFloodMinPhase>(); };
}

ProgramFactory flood_min_algorithm() {
  return phase_as_algorithm(make_flood_min());
}

}  // namespace dgap
