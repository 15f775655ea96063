#include "sim/link_layer.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace dgap::detail {

LinkLayer::LinkLayer(const Graph& g, int budget_words)
    : graph_(g), budget_(static_cast<std::uint32_t>(budget_words)) {
  DGAP_REQUIRE(budget_words > 0,
               "the defer policy needs a positive word budget "
               "(EngineOptions::congest_word_limit)");
  links_.resize(g.adjacency().size());
  queued_flag_.assign(g.adjacency().size(), 0);
}

std::size_t LinkLayer::link_index(NodeId from, NodeId to) const {
  const std::uint32_t slot = graph_.edge_slot(from, to);
  DGAP_ASSERT(slot != Graph::kNoSlot, "send to a non-neighbor link");
  return slot;
}

void LinkLayer::begin_round(int round) {
  round_ = round;
  deliveries_.clear();
  delivered_store_.clear();
  // Carry-over in flight at the start of a round marks it as a stretch
  // round — the effective-vs-nominal gap reported by rounds_with_backlog.
  if (total_backlog_ > 0) ++rounds_with_backlog_;
}

void LinkLayer::deliver(NodeId to, NodeId from, std::int32_t channel,
                        const Value* words, std::uint32_t len) {
  deliveries_.push_back({to, from, channel, len, words});
}

void LinkLayer::deliver_suppressed(const SendRecord& r) {
  // Synthesized delivery: no link budget is consumed, no queue entry is
  // created, nothing can be deferred. Arrives in its send round, before
  // any link-transmitted traffic of the round (the engine ingests sends in
  // canonical order, so these keep ascending-sender order among
  // themselves). The record's payload pointer stays valid through the
  // receive phase (it points into the frozen shard arenas).
  deliveries_.push_back(
      {r.to, r.from, r.channel, r.len, r.words, /*suppressed=*/true});
}

void LinkLayer::ingest(const SendRecord& r) {
  // Queue on the link; transmission happens in finish_round so that
  // carried-over traffic always precedes this round's sends (FIFO).
  const std::size_t link = link_index(r.from, r.to);
  const auto width =
      static_cast<std::uint32_t>(message_width(r.len, r.channel));
  auto& link_state = links_[link];
  Pending p;
  p.to = r.to;
  p.from = r.from;
  p.channel = r.channel;
  p.words_remaining = width;
  p.sent_round = round_;
  p.payload.assign(r.words, r.words + r.len);
  link_state.q.push_back(std::move(p));
  link_state.backlog += width;
  total_backlog_ += width;
  if (!queued_flag_[link]) {
    queued_flag_[link] = 1;
    candidates_.push_back(link);
  }
}

void LinkLayer::finish_round(const std::uint8_t* node_active) {
  // Service links in ascending (sender, neighbor) order so the delivery
  // list is receiver-scatter-ready: per receiver, senders ascend and each
  // link's messages stay FIFO.
  std::sort(candidates_.begin(), candidates_.end());
  std::vector<std::size_t> still_queued;
  for (const std::size_t link : candidates_) {
    auto& ls = links_[link];
    std::uint32_t left = budget_;
    while (ls.head < ls.q.size()) {
      Pending& p = ls.q[ls.head];
      const std::uint32_t take = std::min(left, p.words_remaining);
      p.words_remaining -= take;
      ls.backlog -= take;
      total_backlog_ -= take;
      left -= take;
      if (p.words_remaining > 0) break;  // budget exhausted mid-message
      // Fully transmitted: deliver now — unless the receiver terminated
      // while the words were in flight (they occupied the link and were
      // charged at send time, but a terminated node has no receive phase).
      if (node_active[p.to]) {
        const auto len = static_cast<std::uint32_t>(p.payload.size());
        delivered_store_.push_back(std::move(p.payload));
        // The heap buffer is stable even as delivered_store_ grows.
        deliver(p.to, p.from, p.channel, delivered_store_.back().data(), len);
      }
      ++ls.head;
    }
    // Whatever survives the round was deferred; count each message once,
    // in its send round, by the words it had to carry over.
    for (std::size_t i = ls.head; i < ls.q.size(); ++i) {
      if (ls.q[i].sent_round != round_) continue;
      ++deferred_messages_;
      deferred_words_ += ls.q[i].words_remaining;
    }
    backlog_peak_ = std::max(backlog_peak_, ls.backlog);
    if (ls.head == ls.q.size()) {
      ls.q.clear();
      ls.head = 0;
      queued_flag_[link] = 0;
    } else {
      ls.q.erase(ls.q.begin(),
                 ls.q.begin() + static_cast<std::ptrdiff_t>(ls.head));
      ls.head = 0;
      still_queued.push_back(link);
    }
  }
  candidates_.swap(still_queued);
}

void LinkLayer::export_metrics(RunResult& m) const {
  m.deferred_messages = deferred_messages_;
  m.deferred_words = deferred_words_;
  m.link_backlog_peak_words = backlog_peak_;
  m.rounds_with_backlog = rounds_with_backlog_;
}

}  // namespace dgap::detail
