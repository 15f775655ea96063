#include "matching/algorithms.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace dgap {

namespace {

// Message tags (first word).
constexpr Value kMsgPrediction = 1;
constexpr Value kMsgMatched = 2;
constexpr Value kMsgPropose = 3;
constexpr Value kMsgAccept = 4;

bool is_local_max(const NodeContext& ctx) {
  for (NodeId u : ctx.active_neighbors()) {
    if (ctx.neighbor_id(u) > ctx.id()) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Base algorithm (2 rounds).
// ---------------------------------------------------------------------------

void MatchingBasePhase::on_send(NodeContext& ctx, Channel& ch) {
  if (step_ == 0) {
    ch.broadcast({kMsgPrediction, ctx.prediction()});
  } else if (step_ == 1 && partner_ != kNoNode) {
    ch.broadcast({kMsgMatched});
  }
}

PhaseProgram::Status MatchingBasePhase::on_receive(NodeContext& ctx,
                                                   Channel& ch) {
  ++step_;
  if (step_ == 1) {
    for (const Message* m : ch.inbox()) {
      if (m->words.at(0) != kMsgPrediction) continue;
      // Mutual predictions: I predict them, they predict me.
      if (ctx.prediction() == ctx.neighbor_id(m->from) &&
          m->words.at(1) == ctx.id()) {
        partner_ = m->from;
      }
    }
    return Status::kRunning;
  }
  if (partner_ != kNoNode) {
    ctx.set_output(ctx.neighbor_id(partner_));
    ctx.terminate();
  } else if (ctx.prediction() == kNoNode) {
    std::size_t matched_neighbors = 0;
    for (const Message* m : ch.inbox()) {
      if (m->words.at(0) == kMsgMatched) ++matched_neighbors;
    }
    if (matched_neighbors == ctx.neighbors().size()) {
      ctx.set_output(kNoNode);
      ctx.terminate();
    }
  }
  return Status::kFinished;
}

// ---------------------------------------------------------------------------
// Reasonable initialization: also lets non-⊥ predictors output ⊥ when all
// their neighbors matched (Section 8.1 — reasonable but not pruning).
// ---------------------------------------------------------------------------

void MatchingInitPhase::on_send(NodeContext& ctx, Channel& ch) {
  if (step_ == 0) {
    ch.broadcast({kMsgPrediction, ctx.prediction()});
  } else if (step_ == 1 && partner_ != kNoNode) {
    ch.broadcast({kMsgMatched});
  }
}

PhaseProgram::Status MatchingInitPhase::on_receive(NodeContext& ctx,
                                                   Channel& ch) {
  ++step_;
  if (step_ == 1) {
    for (const Message* m : ch.inbox()) {
      if (m->words.at(0) != kMsgPrediction) continue;
      if (ctx.prediction() == ctx.neighbor_id(m->from) &&
          m->words.at(1) == ctx.id()) {
        partner_ = m->from;
      }
    }
    return Status::kRunning;
  }
  if (partner_ != kNoNode) {
    ctx.set_output(ctx.neighbor_id(partner_));
    ctx.terminate();
  } else {
    std::size_t matched_neighbors = 0;
    for (const Message* m : ch.inbox()) {
      if (m->words.at(0) == kMsgMatched) ++matched_neighbors;
    }
    if (matched_neighbors == ctx.neighbors().size()) {
      ctx.set_output(kNoNode);
      ctx.terminate();
    }
  }
  return Status::kFinished;
}

// ---------------------------------------------------------------------------
// Measure-uniform matching (groups of three rounds).
// ---------------------------------------------------------------------------

void GreedyMatchingPhase::on_send(NodeContext& ctx, Channel& ch) {
  switch (step_ % 3) {
    case 0:  // propose
      proposed_to_ = kNoNode;
      accepted_ = kNoNode;
      if (!ctx.active_neighbors().empty() && is_local_max(ctx)) {
        NodeId target = kNoNode;
        Value best = 0;
        for (NodeId u : ctx.active_neighbors()) {
          const Value uid = ctx.neighbor_id(u);
          if (target == kNoNode || uid < best) {
            target = u;
            best = uid;
          }
        }
        proposed_to_ = target;
        ch.send(target, {kMsgPropose});
      }
      break;
    case 1:  // accept
      if (accepted_ != kNoNode) ch.send(accepted_, {kMsgAccept});
      break;
    case 2:  // announce (skip if the tentative partner went stale — see
             // the liveness re-check in on_receive)
      if (partner_ != kNoNode && ctx.neighbor_active(partner_)) {
        ch.broadcast({kMsgMatched});
      }
      break;
  }
}

PhaseProgram::Status GreedyMatchingPhase::on_receive(NodeContext& ctx,
                                                     Channel& ch) {
  const int phase = step_ % 3;
  ++step_;
  switch (phase) {
    case 0: {
      if (ctx.active_neighbors().empty()) {
        ctx.set_output(kNoNode);
        ctx.terminate();
        return Status::kRunning;
      }
      // Choose the proposal from the largest-identifier proposer.
      for (const Message* m : ch.inbox()) {
        if (m->words.at(0) != kMsgPropose) continue;
        if (accepted_ == kNoNode ||
            ctx.neighbor_id(m->from) > ctx.neighbor_id(accepted_)) {
          accepted_ = m->from;
        }
      }
      break;
    }
    case 1: {
      for (const Message* m : ch.inbox()) {
        if (m->words.at(0) == kMsgAccept && m->from == proposed_to_) {
          partner_ = proposed_to_;
        }
      }
      if (accepted_ != kNoNode && ctx.neighbor_active(accepted_)) {
        partner_ = accepted_;
      }
      break;
    }
    case 2: {
      // A tentative partner can go stale when this algorithm is paused by
      // an interleaving/parallel composition and the partner terminates
      // through the reference algorithm meanwhile; re-check liveness
      // before committing (a live partner runs the same rule, so the two
      // sides stay symmetric).
      if (partner_ != kNoNode && !ctx.neighbor_active(partner_)) {
        partner_ = kNoNode;
      }
      if (partner_ != kNoNode) {
        ctx.set_output(ctx.neighbor_id(partner_));
        ctx.terminate();
        return Status::kRunning;
      }
      // Freshly matched neighbors announced themselves this round; if no
      // other neighbor remains, this node can close out with ⊥ now.
      const auto live = ctx.active_neighbors();
      std::vector<NodeId> remaining(live.begin(), live.end());
      for (const Message* m : ch.inbox()) {
        if (m->words.at(0) != kMsgMatched) continue;
        auto it = std::find(remaining.begin(), remaining.end(), m->from);
        if (it != remaining.end()) remaining.erase(it);
      }
      if (remaining.empty()) {
        ctx.set_output(kNoNode);
        ctx.terminate();
      }
      break;
    }
  }
  return Status::kRunning;
}

// ---------------------------------------------------------------------------
// Clean-up (1 round).
// ---------------------------------------------------------------------------

void MatchingCleanupPhase::on_send(NodeContext&, Channel&) {}

PhaseProgram::Status MatchingCleanupPhase::on_receive(NodeContext& ctx,
                                                      Channel&) {
  const NeighborOutputs outs = ctx.neighbor_outputs();
  for (std::size_t j = 0; j < outs.size(); ++j) {
    if (outs[j] == ctx.id()) {
      ctx.set_output(ctx.neighbor_id(ctx.neighbors()[j]));
      ctx.terminate();
      break;
    }
  }
  return Status::kFinished;
}

std::vector<Value> matching_init_default() {
  return {kMsgPrediction, kNoNode};
}

PhaseFactory make_matching_base() {
  return [](NodeId) { return std::make_unique<MatchingBasePhase>(); };
}
PhaseFactory make_matching_init() {
  return [](NodeId) { return std::make_unique<MatchingInitPhase>(); };
}
PhaseFactory make_greedy_matching() {
  return [](NodeId) { return std::make_unique<GreedyMatchingPhase>(); };
}
PhaseFactory make_matching_cleanup() {
  return [](NodeId) { return std::make_unique<MatchingCleanupPhase>(); };
}

ProgramFactory greedy_matching_algorithm() {
  return phase_as_algorithm(make_greedy_matching());
}

}  // namespace dgap
