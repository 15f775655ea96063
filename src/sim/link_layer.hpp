// The engine's link layer: per-directed-edge bandwidth budgets realizing
// the CONGEST model's O(log n)-bit channels (Section 2) as an enforced
// constraint instead of an after-the-fact audit.
//
// The default engine path only *counts*: every message is charged to the
// metrics and a width over `EngineOptions::congest_word_limit` increments
// the violation counter, but delivery is unaffected
// (CongestPolicy::kCount). The LinkLayer implements kDefer, where the limit
// becomes a hard per-round word budget B on every directed edge: a link
// transmits at most B words per round, excess traffic queues FIFO per link
// (store-and-forward), and a message arrives in the round its last word is
// transmitted, so a w-word message occupies the link for ceil(w / B)
// rounds. A program fits its budget when its kDefer run reports
// deferred_messages == 0.
//
// Determinism by construction: fresh sends are ingested in the engine's
// canonical (sender, channel, send order) — the send shards' buffers, read
// in shard order — links transmit in ascending (sender, neighbor) order,
// and all link-state mutation happens in one serial step between the
// engine's sharded delivery passes and its receive phase, so `num_threads`
// cannot influence the schedule. The layer keeps no message account: the
// engine's delivery pass has charged every record before ingest(). The
// full contract lives in docs/MODEL.md, "CONGEST enforcement semantics";
// tests/engine_test.cpp, tests/engine_determinism_test.cpp and
// tests/reference_sim_test.cpp pin it.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"

namespace dgap::detail {

// message_width lives in sim/engine.hpp, beside the engine's message
// account, which this layer never charges.

/// A message the link layer cleared for delivery this round. `words` stays
/// valid through the round's receive phase (it points into either the
/// producing shard's arena or the link layer's carry-over store).
struct DeliveredMessage {
  NodeId to = kNoNode;
  NodeId from = kNoNode;
  std::int32_t channel = 0;
  std::uint32_t len = 0;
  const Value* words = nullptr;
  bool suppressed = false;  // synthesized delivery; never crossed the link
};

/// Deterministic per-directed-edge bandwidth scheduler. One instance per
/// engine run; only constructed under kDefer, so the default (kCount) data
/// plane carries no link-layer overhead at all.
class LinkLayer {
 public:
  LinkLayer(const Graph& g, int budget_words);

  /// Start a round: clear last round's deliveries and release their
  /// payload storage.
  void begin_round(int round);

  /// Feed one fresh send (canonical order): queue it on its link.
  void ingest(const SendRecord& r);

  /// Deliver a compile-suppressed message in its send round without
  /// touching any link budget: its words never cross the wire, so it can
  /// neither be deferred nor fail the budget contract (the
  /// no-double-count property compile_test pins). The caller has already
  /// filtered terminated receivers.
  void deliver_suppressed(const SendRecord& r);

  /// Transmit queued traffic within each link's budget. Must run after
  /// every ingest() of the round and before deliveries() is read.
  void finish_round(const std::uint8_t* node_active);

  /// This round's cleared messages, grouped receiver-scatter-ready:
  /// ascending sender, FIFO per link. Receivers are already filtered to
  /// active nodes.
  const std::vector<DeliveredMessage>& deliveries() const {
    return deliveries_;
  }

  /// Total words carried across rounds on all links. The engine's
  /// quiescence check uses it to distinguish "every node is idle but
  /// traffic is still in flight" from a permanent stall.
  std::int64_t pending_backlog() const { return total_backlog_; }

  /// Export the enforcement metrics into a finished run's result.
  void export_metrics(RunResult& m) const;

 private:
  /// One send waiting on (or in transit over) a link. The payload words
  /// are owned (copied out of the round arena), because the queue must
  /// survive the per-round slab reset.
  struct Pending {
    NodeId to = kNoNode;
    NodeId from = kNoNode;
    std::int32_t channel = 0;
    std::uint32_t words_remaining = 0;  // untransmitted width incl. tag
    int sent_round = 0;
    std::vector<Value> payload;
  };

  /// FIFO state of one directed edge.
  struct Link {
    std::vector<Pending> q;  // [head_, end) is the live queue
    std::size_t head = 0;
    std::int64_t backlog = 0;  // sum of words_remaining over the queue
  };

  /// The directed link from -> to is numbered by its CSR slot,
  /// Graph::edge_slot(from, to).
  std::size_t link_index(NodeId from, NodeId to) const;
  void deliver(NodeId to, NodeId from, std::int32_t channel,
               const Value* words, std::uint32_t len);

  const Graph& graph_;
  const std::uint32_t budget_;
  int round_ = 0;

  std::vector<Link> links_;
  std::vector<std::size_t> candidates_;     // links to service this round
  std::vector<std::uint8_t> queued_flag_;   // link already in candidates_?
  std::int64_t total_backlog_ = 0;          // words carried across rounds
  // Payloads of messages delivered this round, kept alive through the
  // receive phase (their heap buffers are stable under vector growth).
  std::vector<std::vector<Value>> delivered_store_;

  std::vector<DeliveredMessage> deliveries_;

  // Enforcement metrics (see RunResult).
  std::int64_t deferred_messages_ = 0;
  std::int64_t deferred_words_ = 0;
  std::int64_t backlog_peak_ = 0;
  std::int64_t rounds_with_backlog_ = 0;
};

}  // namespace dgap::detail
