#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "mis/algorithms.hpp"
#include "sim/engine.hpp"
#include "sim/phase.hpp"
#include "sim/transcript.hpp"

namespace dgap {
namespace {

/// Terminates immediately with output = own identifier.
class OutputIdProgram final : public NodeProgram {
 public:
  void on_send(NodeContext&) override {}
  void on_receive(NodeContext& ctx) override {
    ctx.set_output(ctx.id());
    ctx.terminate();
  }
};

TEST(Engine, SingleRoundTermination) {
  Graph g = make_ring(5);
  auto result = run_algorithm(
      g, [](NodeId) { return std::make_unique<OutputIdProgram>(); });
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.rounds, 1);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(result.outputs[v], g.id(v));
    EXPECT_EQ(result.termination_round[v], 1);
  }
}

/// Broadcasts its id; outputs the sum of ids received in round 1.
class SumNeighborsProgram final : public NodeProgram {
 public:
  void on_send(NodeContext& ctx) override {
    if (ctx.round() == 1) ctx.broadcast({ctx.id()});
  }
  void on_receive(NodeContext& ctx) override {
    Value sum = 0;
    for (const Message& m : ctx.inbox()) sum += m.words.at(0);
    ctx.set_output(sum);
    ctx.terminate();
  }
};

TEST(Engine, MessagesDeliveredWithinTheRound) {
  Graph g = make_line(3);  // ids 1,2,3
  auto result = run_algorithm(
      g, [](NodeId) { return std::make_unique<SumNeighborsProgram>(); });
  EXPECT_EQ(result.outputs[0], 2);
  EXPECT_EQ(result.outputs[1], 1 + 3);
  EXPECT_EQ(result.outputs[2], 2);
}

/// Node with the largest id terminates in round 1 (output 7); the others
/// record WHEN they first see it gone and what output they observe.
class ObserveTerminationProgram final : public NodeProgram {
 public:
  void on_send(NodeContext&) override {}
  void on_receive(NodeContext& ctx) override {
    bool local_max = true;
    for (NodeId u : ctx.active_neighbors()) {
      if (ctx.neighbor_id(u) > ctx.id()) local_max = false;
    }
    if (ctx.round() == 1 && local_max) {
      ctx.set_output(7);
      ctx.terminate();
      return;
    }
    for (const Value out : ctx.neighbor_outputs()) {
      if (out == 7) {
        // Encode the round at which the notice became visible.
        ctx.set_output(100 + ctx.round());
        ctx.terminate();
        return;
      }
    }
  }
};

TEST(Engine, TerminationNoticeVisibleNextRound) {
  Graph g = make_line(3);  // ids 1-2-3; node 2 is the global max
  EngineOptions opt;
  opt.max_rounds = 10;  // node 0 never meets its condition; cut the run
  auto result = run_algorithm(
      g, [](NodeId) { return std::make_unique<ObserveTerminationProgram>(); },
      opt);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.outputs[2], 7);
  EXPECT_EQ(result.termination_round[2], 1);
  // Neighbor 1 sees the notice in round 2, not round 1, and terminates
  // in that round.
  EXPECT_EQ(result.outputs[1], 102);
  EXPECT_EQ(result.termination_round[1], 2);
  // Node 0 only sees node 1 (output 102 ≠ 7): it keeps waiting until the
  // run is cut off — mark incomplete runs correctly.
  EXPECT_FALSE(result.outputs[0] == 7);
  EXPECT_EQ(result.termination_round[0], -1);
}

/// A node that never terminates.
class StallProgram final : public NodeProgram {
 public:
  void on_send(NodeContext&) override {}
  void on_receive(NodeContext&) override {}
};

/// Star with center 0 and leaves 1–3, plus the isolated node 4. Each node
/// logs its neighbor_outputs() view every round, then follows a script:
/// node 1 sets an output in round 1 and terminates in round 2 with
/// another, node 0 sets its output in round 3 and terminates in round 4.
class OutputsViewProgram final : public NodeProgram {
 public:
  explicit OutputsViewProgram(std::vector<std::vector<Value>>* log)
      : log_(log) {}
  void on_send(NodeContext&) override {}
  void on_receive(NodeContext& ctx) override {
    const NeighborOutputs view = ctx.neighbor_outputs();
    EXPECT_EQ(view.size(), ctx.neighbors().size());
    std::vector<Value> seen;
    for (const Value out : view) seen.push_back(out);
    for (std::size_t j = 0; j < view.size(); ++j) EXPECT_EQ(view[j], seen[j]);
    log_->push_back(seen);
    const NodeId v = ctx.index();
    if (v == 1 && ctx.round() == 1) ctx.set_output(11);
    if (v == 0 && ctx.round() == 3) ctx.set_output(1);
    constexpr int kLast[] = {4, 2, 1, 5, 1};
    constexpr Value kOutput[] = {1, 12, 21, 31, 41};
    if (ctx.round() == kLast[v]) {
      ctx.set_output(kOutput[v]);
      ctx.terminate();
    }
  }

 private:
  std::vector<std::vector<Value>>* log_;
};

TEST(Engine, NeighborOutputsShowTerminatedNeighborsOnly) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  const Graph g = b.build();
  constexpr Value U = kUndefined;
  // Per node, per round: the view, aligned with neighbors(). A neighbor's
  // output shows from the round after it terminates (node 2's 21 in round
  // 2), never while it is active, even once it has set one (node 1's 11,
  // node 0's 1 before round 5).
  const std::vector<std::vector<std::vector<Value>>> want = {
      {{U, U, U}, {U, 21, U}, {12, 21, U}, {12, 21, U}},
      {{U}, {U}},
      {{U}},
      {{U}, {U}, {U}, {U}, {1}},
      {{}},
  };
  for (const int threads : {1, 2, 4}) {
    std::vector<std::vector<std::vector<Value>>> logs(5);
    EngineOptions opt;
    opt.num_threads = threads;
    const RunResult result = run_algorithm(
        g,
        [&logs](NodeId v) {
          return std::make_unique<OutputsViewProgram>(&logs[v]);
        },
        opt);
    EXPECT_TRUE(result.completed) << threads << " threads";
    EXPECT_EQ(logs, want) << threads << " threads";
  }
}

TEST(Engine, MaxRoundsCutoffReportsIncomplete) {
  Graph g = make_line(2);
  EngineOptions opt;
  opt.max_rounds = 10;
  auto result = run_algorithm(
      g, [](NodeId) { return std::make_unique<StallProgram>(); }, opt);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.rounds, 10);
  EXPECT_EQ(result.termination_round[0], -1);
}

TEST(Engine, TerminateWithoutOutputThrows) {
  class BadProgram final : public NodeProgram {
   public:
    void on_send(NodeContext&) override {}
    void on_receive(NodeContext& ctx) override { ctx.terminate(); }
  };
  Graph g = make_line(2);
  EXPECT_THROW(
      run_algorithm(g, [](NodeId) { return std::make_unique<BadProgram>(); }),
      std::invalid_argument);
}

TEST(Engine, SendOutsideSendPhaseThrows) {
  class SendInReceiveProgram final : public NodeProgram {
   public:
    void on_send(NodeContext&) override {}
    void on_receive(NodeContext& ctx) override {
      ctx.send(ctx.neighbors().front(), {1});
    }
  };
  Graph g = make_line(2);
  EXPECT_THROW(run_algorithm(g, [](NodeId) {
                 return std::make_unique<SendInReceiveProgram>();
               }),
               std::invalid_argument);
}

TEST(Engine, MessageMetricsCountWordsAndNotices) {
  // Every node broadcasts one word in round 1, then terminates: ring of 4
  // gives 8 messages of 1 word + 0 notices (all terminate simultaneously).
  Graph g = make_ring(4);
  auto result = run_algorithm(
      g, [](NodeId) { return std::make_unique<SumNeighborsProgram>(); });
  EXPECT_EQ(result.total_messages, 8);
  EXPECT_EQ(result.total_words, 8);
  EXPECT_EQ(result.max_message_words, 1);
}

TEST(Engine, CongestViolationCounting) {
  class WidePayloadProgram final : public NodeProgram {
   public:
    void on_send(NodeContext& ctx) override {
      if (ctx.round() == 1) ctx.broadcast({1, 2, 3, 4, 5});
    }
    void on_receive(NodeContext& ctx) override {
      ctx.set_output(0);
      ctx.terminate();
    }
  };
  Graph g = make_line(3);
  EngineOptions opt;
  opt.congest_word_limit = 2;
  auto result = run_algorithm(
      g, [](NodeId) { return std::make_unique<WidePayloadProgram>(); }, opt);
  EXPECT_EQ(result.congest_violations, 4);  // 2+1+1 broadcasts of 5 words
  EXPECT_EQ(result.max_message_words, 5);
}

TEST(Engine, ChannelsAreIsolated) {
  // Node sends on channel 1 and channel 2; receiver counts per channel.
  class MultiChannelProgram final : public NodeProgram {
   public:
    void on_send(NodeContext& ctx) override {
      if (ctx.round() == 1) {
        ctx.broadcast({11}, 1);
        ctx.broadcast({22}, 2);
        ctx.broadcast({22}, 2);
      }
    }
    void on_receive(NodeContext& ctx) override {
      // Allocation-free per-channel filter.
      Value c1 = 0, c2 = 0;
      for (const Message* m : ChannelInbox(ctx.inbox(), 1)) {
        c1 += m->words.at(0) == 11;
      }
      for (const Message* m : ChannelInbox(ctx.inbox(), 2)) {
        c2 += m->words.at(0) == 22;
      }
      ctx.set_output(10 * c1 + c2);
      ctx.terminate();
    }
  };
  Graph g = make_line(2);
  auto result = run_algorithm(
      g, [](NodeId) { return std::make_unique<MultiChannelProgram>(); });
  EXPECT_EQ(result.outputs[0], 12);
  EXPECT_EQ(result.outputs[1], 12);
}

TEST(Engine, ChannelInboxPreservesInboxOrderAndMembership) {
  // The lazy filter must visit exactly the messages a plain filter of the
  // same span selects, in inbox order, for every channel.
  std::vector<Value> payloads = {10, 20, 30, 40, 50};
  std::vector<Message> inbox;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    Message m;
    m.from = static_cast<NodeId>(i);
    m.channel = static_cast<int>(i % 3);
    m.words = WordSpan(&payloads[i], 1);
    inbox.push_back(m);
  }
  for (int channel = -1; channel <= 3; ++channel) {
    std::vector<const Message*> seen;
    for (const Message* m : ChannelInbox(inbox, channel)) seen.push_back(m);
    std::vector<const Message*> want;
    for (const Message& m : inbox) {
      if (m.channel == channel) want.push_back(&m);
    }
    EXPECT_EQ(seen, want) << "channel " << channel;
    for (std::size_t i = 1; i < seen.size(); ++i) {
      EXPECT_LT(seen[i - 1]->from, seen[i]->from);  // inbox order kept
    }
  }
}

TEST(Engine, EdgeOutputsRecorded) {
  class EdgeOutputProgram final : public NodeProgram {
   public:
    void on_send(NodeContext&) override {}
    void on_receive(NodeContext& ctx) override {
      for (NodeId u : ctx.neighbors()) {
        ctx.set_output_for(u, ctx.id() * 100 + ctx.neighbor_id(u));
      }
      if (ctx.degree() == 0) ctx.set_output(0);
      ctx.terminate();
    }
  };
  Graph g = make_line(3);
  auto result = run_algorithm(
      g, [](NodeId) { return std::make_unique<EdgeOutputProgram>(); });
  ASSERT_EQ(result.edge_outputs[1].size(), 2u);
  EXPECT_EQ(result.edge_outputs[1][0].first, 0);
  EXPECT_EQ(result.edge_outputs[1][0].second, 201);
}

TEST(Engine, PredictionsAccessible) {
  class EchoPredictionProgram final : public NodeProgram {
   public:
    void on_send(NodeContext&) override {}
    void on_receive(NodeContext& ctx) override {
      ctx.set_output(ctx.prediction() * 2);
      ctx.terminate();
    }
  };
  Graph g = make_line(3);
  Predictions pred(std::vector<Value>{5, 6, 7});
  auto result = run_with_predictions(g, pred, [](NodeId) {
    return std::make_unique<EchoPredictionProgram>();
  });
  EXPECT_EQ(result.outputs[0], 10);
  EXPECT_EQ(result.outputs[2], 14);
}

TEST(Engine, GraphInfoExposedToNodes) {
  class InfoProgram final : public NodeProgram {
   public:
    void on_send(NodeContext&) override {}
    void on_receive(NodeContext& ctx) override {
      ctx.set_output(ctx.n() * 1000 + ctx.delta() * 100 +
                     static_cast<Value>(ctx.d()));
      ctx.terminate();
    }
  };
  Graph g = make_star(4);  // n=4, Δ=3, d=4
  auto result = run_algorithm(
      g, [](NodeId) { return std::make_unique<InfoProgram>(); });
  EXPECT_EQ(result.outputs[0], 4000 + 300 + 4);
}

TEST(Engine, CompletionRoundPerComponent) {
  // Two components: a clique (max-id terminates round 1, rest round 2ish)
  // and an isolated node (round 1). Use OutputIdProgram: everyone in
  // round 1.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  const Graph g = b.build();
  auto result = run_algorithm(
      g, [](NodeId) { return std::make_unique<OutputIdProgram>(); });
  auto per_comp = completion_round_per_component(g, result);
  ASSERT_EQ(per_comp.size(), 3u);
  for (int r : per_comp) EXPECT_EQ(r, 1);

  // Incomplete runs report -1 for unfinished components.
  EngineOptions opt;
  opt.max_rounds = 2;
  auto stalled = run_algorithm(
      g, [](NodeId) { return std::make_unique<StallProgram>(); }, opt);
  auto stalled_comp = completion_round_per_component(g, stalled);
  for (int r : stalled_comp) EXPECT_EQ(r, -1);
}

TEST(Phase, PhaseAsAlgorithmEmitsLeftoverMarker) {
  // All-0 predictions: the MIS initialization decides nothing in its 3
  // rounds, so both nodes finish it still active.
  Graph g = make_line(2);
  auto result = run_with_predictions(g, Predictions(std::vector<Value>(2, 0)),
                                     phase_as_algorithm(make_mis_init()));
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.rounds, kMisInitRounds);
  EXPECT_EQ(result.outputs[0], kLeftoverActive);
  EXPECT_EQ(result.outputs[1], kLeftoverActive);
}

/// Sends {round} to every *graph* neighbor each round — including ones
/// that already terminated — and records how many messages it received.
/// The node with id 3 terminates after round 1; the rest after round 3.
class SendToAllGraphNeighborsProgram final : public NodeProgram {
 public:
  void on_send(NodeContext& ctx) override {
    for (NodeId u : ctx.neighbors()) ctx.send(u, {Value{ctx.round()}});
  }
  void on_receive(NodeContext& ctx) override {
    received_ += static_cast<Value>(ctx.inbox().size());
    if (ctx.id() == 3 || ctx.round() == 3) {
      ctx.set_output(received_);
      ctx.terminate();
    }
  }

 private:
  Value received_ = 0;
};

// Pins the drop-vs-charge rule (see Engine::deliver_round_messages): a
// message addressed to a node that terminated in an earlier round is
// charged to the metrics — the sender cannot know the receiver is gone
// until the termination notice arrives — but never delivered (a terminated
// node has no receive phase).
TEST(Engine, DropsToTerminatedAreChargedNotDelivered) {
  Graph g = make_line(3);  // ids 1,2,3: edges 1-2, 2-3
  auto result = run_algorithm(g, [](NodeId) {
    return std::make_unique<SendToAllGraphNeighborsProgram>();
  });
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.rounds, 3);
  // Round 1: 4 sends (both edges, both directions), all delivered; id 3
  // terminates, and its notice to the one still-active neighbor costs 1.
  // Rounds 2 and 3: 3 sends each — id 2's send to the terminated id 3 is
  // charged but dropped. The final joint termination sends no notices.
  EXPECT_EQ(result.total_messages, 4 + 1 + 3 + 3);
  EXPECT_EQ(result.total_words, 4 + 1 + 3 + 3);  // 1 word each, channel 0
  // Received counts prove the drops: id 3 saw only round 1 (1 message from
  // id 2); id 1 got one message per round; id 2 got two in round 1 (ids 1
  // and 3 both sent) and one per round after.
  EXPECT_EQ(result.outputs[2], 1);
  EXPECT_EQ(result.outputs[0], 3);
  EXPECT_EQ(result.outputs[1], 2 + 1 + 1);
}

// ---------------------------------------------------------------------------
// Link-layer enforcement (docs/MODEL.md, "CONGEST enforcement semantics").
// ---------------------------------------------------------------------------

/// Index 0 sends one 6-word message to its neighbor in round 1 and outputs
/// the link budget it sees; the neighbor records the round its message
/// arrived in. Both run for exactly `run_rounds`.
class OneBurstProgram final : public NodeProgram {
 public:
  explicit OneBurstProgram(int run_rounds) : run_rounds_(run_rounds) {}
  void on_send(NodeContext& ctx) override {
    if (ctx.index() == 0 && ctx.round() == 1) ctx.send(1, {1, 2, 3, 4, 5, 6});
  }
  void on_receive(NodeContext& ctx) override {
    for (const Message& m : ctx.inbox()) {
      arrival_ = arrival_ * 100 + ctx.round() * 10 +
                 static_cast<Value>(m.words.size());
    }
    if (ctx.round() == run_rounds_) {
      ctx.set_output(ctx.index() == 0 ? ctx.link_budget() : arrival_);
      ctx.terminate();
    }
  }

 private:
  int run_rounds_;
  Value arrival_ = 0;  // (round, words) pairs, two digits each
};

TEST(Engine, DeferSpreadsDeliveryAcrossRounds) {
  // 6 words over a 2-word/round link: the message needs ceil(6/2) = 3
  // rounds and arrives in round 3, not round 1.
  Graph g = make_line(2);
  EngineOptions opt;
  opt.congest_policy = CongestPolicy::kDefer;
  opt.congest_word_limit = 2;
  auto result = run_algorithm(
      g, [](NodeId) { return std::make_unique<OneBurstProgram>(3); }, opt);
  EXPECT_TRUE(result.completed);
  // Receiver: exactly one arrival, in round 3, with all 6 words intact.
  EXPECT_EQ(result.outputs[1], 36);
  // Sender: kDefer shows programs the budget B.
  EXPECT_EQ(result.outputs[0], 2);
  // Metrics: one message missed its send round carrying 4 words; rounds 2
  // and 3 started with words in flight; the queue peaked at 4 words.
  EXPECT_EQ(result.deferred_messages, 1);
  EXPECT_EQ(result.deferred_words, 4);
  EXPECT_EQ(result.link_backlog_peak_words, 4);
  EXPECT_EQ(result.rounds_with_backlog, 2);
  // The audit semantics are unchanged: one message wider than the limit.
  EXPECT_EQ(result.congest_violations, 1);
  EXPECT_EQ(result.total_words, 6);
}

TEST(Engine, DeferPreservesFifoAndSenderOrder) {
  // Ids 1-2-3: both endpoints send two 2-word messages to the middle in
  // round 1 under a 2-word budget. Each link clears one message per
  // round; each round's inbox must list senders in ascending order and
  // each link's messages in send order.
  class TwoSendsProgram final : public NodeProgram {
   public:
    void on_send(NodeContext& ctx) override {
      if (ctx.round() == 1 && ctx.degree() == 1) {
        ctx.send(ctx.neighbors()[0], {ctx.id(), 1});
        ctx.send(ctx.neighbors()[0], {ctx.id(), 2});
      }
    }
    void on_receive(NodeContext& ctx) override {
      for (const Message& m : ctx.inbox()) {
        trace_ = trace_ * 1000 + m.words.at(0) * 10 + m.words.at(1);
      }
      if (ctx.round() == 2) {
        ctx.set_output(trace_);
        ctx.terminate();
      }
    }

   private:
    Value trace_ = 0;
  };
  Graph g = make_line(3);
  EngineOptions opt;
  opt.congest_policy = CongestPolicy::kDefer;
  opt.congest_word_limit = 2;
  auto result = run_algorithm(
      g, [](NodeId) { return std::make_unique<TwoSendsProgram>(); }, opt);
  EXPECT_TRUE(result.completed);
  // Round 1: first message of id 1 then of id 3; round 2: their seconds.
  EXPECT_EQ(result.outputs[1], 11'031'012'032LL);
}

TEST(Engine, EnforcingPolicyRequiresPositiveBudget) {
  Graph g = make_line(2);
  EngineOptions opt;
  opt.congest_policy = CongestPolicy::kDefer;  // congest_word_limit left 0
  EXPECT_THROW(
      run_algorithm(
          g, [](NodeId) { return std::make_unique<OutputIdProgram>(); }, opt),
      std::invalid_argument);
}

TEST(Engine, DeferDeliversToLateTerminatedReceiverNever) {
  // Index 1 terminates in round 1; index 0's 4-word message (sent round 1,
  // due round 2 under a 2-word budget) crossed the wire and is charged,
  // but is never delivered — terminated nodes have no receive phase.
  class SenderOrQuitter final : public NodeProgram {
   public:
    void on_send(NodeContext& ctx) override {
      if (ctx.round() == 1 && ctx.index() == 0) ctx.send(1, {1, 2, 3, 4});
    }
    void on_receive(NodeContext& ctx) override {
      EXPECT_TRUE(ctx.inbox().empty());
      if (ctx.index() == 1 || ctx.round() == 3) {
        ctx.set_output(7);
        ctx.terminate();
      }
    }
  };
  Graph g = make_line(2);
  EngineOptions opt;
  opt.congest_policy = CongestPolicy::kDefer;
  opt.congest_word_limit = 2;
  auto result = run_algorithm(
      g, [](NodeId) { return std::make_unique<SenderOrQuitter>(); }, opt);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.total_messages, 1 + 1);  // the burst + one notice
  EXPECT_EQ(result.total_words, 4 + 1);
}

// ---- Phase profiler (EngineOptions::profile_phases) -------------------------

/// Three rounds of broadcasting so every pipeline stage does real work.
class ChatterProgram final : public NodeProgram {
 public:
  void on_send(NodeContext& ctx) override {
    if (ctx.round() <= 3) ctx.broadcast({ctx.id(), 7});
  }
  void on_receive(NodeContext& ctx) override {
    if (ctx.round() >= 3) {
      ctx.set_output(ctx.id());
      ctx.terminate();
    }
  }
};

TEST(Engine, PhaseProfilerSelfConsistent) {
  Rng rng(4242);
  Graph g = make_gnp(256, 8.0 / 256, rng);
  EngineOptions opt;
  opt.profile_phases = true;
  auto factory = [](NodeId) { return std::make_unique<ChatterProgram>(); };
  auto result = run_algorithm(g, factory, opt);
  ASSERT_TRUE(result.completed);
  // Each stage measured its own wall slice: the per-stage sum can never
  // exceed the whole run's wall clock (it omits scheduling/bookkeeping
  // between the measured spans).
  EXPECT_GT(result.phase_ns.sum(), 0);
  EXPECT_LE(static_cast<double>(result.phase_ns.sum()) / 1e6,
            result.wall_ms + 1e-3);
  // A message-heavy run without a link layer exercises send, scatter,
  // receive, and mutate; the link span only runs under enforcement.
  EXPECT_GT(result.phase_ns.send_ns, 0);
  EXPECT_GT(result.phase_ns.scatter_ns, 0);
  EXPECT_GT(result.phase_ns.receive_ns, 0);
  EXPECT_GT(result.phase_ns.mutate_ns, 0);
  EXPECT_EQ(result.phase_ns.link_ns, 0);
  EXPECT_EQ(result.phase_ns.trace_ns, 0);
}

TEST(Engine, PhaseProfilerLinkAndTraceSpans) {
  // Under an enforcing policy the delivery span, link layer included, is
  // attributed to link_ns, and a payload-recording sink makes the trace
  // span nonzero.
  Rng rng(77);
  Graph g = make_gnp(128, 8.0 / 128, rng);
  EngineOptions opt;
  opt.profile_phases = true;
  opt.congest_policy = CongestPolicy::kDefer;
  opt.congest_word_limit = 1;
  auto factory = [](NodeId) { return std::make_unique<ChatterProgram>(); };
  auto result = run_algorithm(g, factory, opt);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.phase_ns.link_ns, 0);
  EXPECT_EQ(result.phase_ns.scatter_ns, 0);

  EngineOptions topt;
  topt.profile_phases = true;
  TranscriptWriter writer(TraceDetail::kPayloads);
  topt.trace_sink = &writer;
  auto traced = run_algorithm(g, factory, topt);
  ASSERT_TRUE(traced.completed);
  EXPECT_GT(traced.phase_ns.trace_ns, 0);
}

}  // namespace
}  // namespace dgap
