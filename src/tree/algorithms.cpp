#include "tree/algorithms.hpp"

#include "common/require.hpp"

namespace dgap {

namespace {
constexpr Value kMsgRoot = 7;

bool sees_mis_neighbor(const NodeContext& ctx) {
  for (const Value out : ctx.neighbor_outputs()) {
    if (out == 1) return true;
  }
  return false;
}
}  // namespace

// ---------------------------------------------------------------------------
// MIS Rooted Tree Initialization Algorithm (4 rounds; 3 when correct).
// ---------------------------------------------------------------------------

void TreeMisInitPhase::on_send(NodeContext& ctx, Channel& ch) {
  if (step_ == 0) ch.broadcast({ctx.prediction()});
}

PhaseProgram::Status TreeMisInitPhase::on_receive(NodeContext& ctx,
                                                  Channel& ch) {
  ++step_;
  switch (step_) {
    case 1:
      for (const Message* m : ch.inbox()) {
        if (m->from == parent_) parent_prediction_ = m->words.at(0);
      }
      return Status::kRunning;
    case 2:
      // Black nodes without a black parent join the independent set (a
      // superset of the base algorithm's choice).
      if (ctx.prediction() == 1 &&
          (parent_ == kNoNode || parent_prediction_ != 1)) {
        ctx.set_output(1);
        ctx.terminate();
      }
      return Status::kRunning;
    case 3:
      if (ctx.prediction() != 1) {  // white
        if (sees_mis_neighbor(ctx)) {
          ctx.set_output(0);
          ctx.terminate();
        } else if (parent_ == kNoNode || parent_prediction_ == 1) {
          // No white parent: this white node joins the set.
          ctx.set_output(1);
          ctx.terminate();
        }
      }
      return Status::kRunning;
    case 4:
      if (sees_mis_neighbor(ctx)) {
        ctx.set_output(0);
        ctx.terminate();
      }
      return Status::kFinished;
    default:
      DGAP_ASSERT(false, "tree initialization ran past its 4 rounds");
      return Status::kFinished;
  }
}

// ---------------------------------------------------------------------------
// Algorithm 6: roots and leaves join every other round.
// ---------------------------------------------------------------------------

bool TreeMisUniformPhase::parent_active(const NodeContext& ctx) const {
  return parent_ != kNoNode && ctx.neighbor_active(parent_);
}

bool TreeMisUniformPhase::has_active_children(const NodeContext& ctx) const {
  for (NodeId u : ctx.active_neighbors()) {
    if (u != parent_) return true;
  }
  return false;
}

void TreeMisUniformPhase::on_send(NodeContext& ctx, Channel& ch) {
  if (step_ % 2 == 0 && !parent_active(ctx)) {
    // Fragment root: notify active children in-round (a leaf child decides
    // this very round whether its parent was a root).
    for (NodeId u : ctx.active_neighbors()) {
      if (u != parent_) ch.send(u, {kMsgRoot});
    }
  }
}

PhaseProgram::Status TreeMisUniformPhase::on_receive(NodeContext& ctx,
                                                     Channel& ch) {
  const bool odd = (step_ % 2 == 0);
  ++step_;
  if (odd) {
    if (!parent_active(ctx)) {
      ctx.set_output(1);
      ctx.terminate();
      return Status::kRunning;
    }
    if (!has_active_children(ctx)) {
      bool parent_is_root = false;
      for (const Message* m : ch.inbox()) {
        if (m->from == parent_ && m->words.at(0) == kMsgRoot) {
          parent_is_root = true;
        }
      }
      ctx.set_output(parent_is_root ? 0 : 1);
      ctx.terminate();
    }
  } else {
    if (sees_mis_neighbor(ctx)) {
      ctx.set_output(0);
      ctx.terminate();
    }
  }
  return Status::kRunning;
}

PhaseFactory make_tree_mis_init(const RootedTree& tree) {
  auto parents = tree.parent;
  return [parents](NodeId index) {
    return std::make_unique<TreeMisInitPhase>(
        parents[static_cast<std::size_t>(index)]);
  };
}

PhaseFactory make_tree_mis_uniform(const RootedTree& tree) {
  auto parents = tree.parent;
  return [parents](NodeId index) {
    return std::make_unique<TreeMisUniformPhase>(
        parents[static_cast<std::size_t>(index)]);
  };
}

ProgramFactory tree_mis_uniform_algorithm(const RootedTree& tree) {
  return phase_as_algorithm(make_tree_mis_uniform(tree));
}

}  // namespace dgap
