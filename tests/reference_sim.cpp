#include "reference_sim.hpp"

#include <algorithm>
#include <string>

#include "common/require.hpp"

namespace dgap::ref {

Run run_model(const Graph& g, const Factory& factory,
              const EngineOptions& options) {
  return Context(g, options).run(factory);
}

Run Context::run(const Factory& factory) {
  nodes_.resize(static_cast<std::size_t>(g_.num_nodes()));
  res_.termination_round.assign(nodes_.size(), -1);
  for (NodeId v = 0; v < g_.num_nodes(); ++v) {
    nodes_[v].program = factory(v);
    nodes_[v].view.assign(g_.neighbors(v).begin(), g_.neighbors(v).end());
  }
  // Stop when no node is left, or when every active node sleeps with no
  // word in flight: then no event can wake one again.
  while (round_ < opt_.max_rounds &&
         std::any_of(nodes_.begin(), nodes_.end(), [this](const Node& x) {
           return x.active && (!x.asleep || in_flight_ > 0);
         })) {
    ++round_;
    if (in_flight_ > 0) ++res_.rounds_with_backlog;
    send_and_deliver();
    receive();
  }
  res_.completed = std::none_of(nodes_.begin(), nodes_.end(),
                                [](const Node& x) { return x.active; });
  res_.rounds = round_;
  res_.total_messages = res_.messages_sent + res_.messages_suppressed;
  res_.total_words = res_.words_sent + res_.words_suppressed;
  for (const Node& x : nodes_) {
    res_.outputs.push_back(x.output);
    res_.edge_outputs.emplace_back(x.edge_out.begin(), x.edge_out.end());
  }
  return {std::move(res_), std::move(log_)};
}

std::vector<Value> Context::neighbor_outputs() const {
  std::vector<Value> out;
  for (const NodeId u : neighbors()) {
    const bool active = std::binary_search(at().view.begin(),
                                           at().view.end(), u);
    out.push_back(active ? kUndefined : nodes_[u].output);
  }
  return out;
}

Context::Node& Context::acts(const char* act) {
  DGAP_ASSERT(!at().asleep, "node " + std::to_string(v_) + " " + act +
                                " asleep in round " + std::to_string(round_));
  return at();
}

void Context::charge(int words, bool suppressed) {
  (suppressed ? res_.messages_suppressed : res_.messages_sent) += 1;
  (suppressed ? res_.words_suppressed : res_.words_sent) += words;
  if (suppressed) return;  // silence occupies no link
  res_.max_message_words = std::max(res_.max_message_words, words);
  const int limit = opt_.congest_word_limit;
  if (limit > 0 && words > limit) ++res_.congest_violations;
}

void Context::arrive(Msg m) {  // a terminated node receives nothing
  if (!nodes_[m.to].active) return;
  nodes_[m.to].received.emplace_back(m.from, m.channel, std::move(m.words),
                                     m.suppressed);
}

void Context::send(NodeId to, const Value* words, std::size_t count,
                   int channel) {
  Node& x = acts("sent");
  // Its width: the payload, plus a tag word on a nonzero channel.
  const int w = static_cast<int>(count) + (channel != 0);
  Msg m{v_, to, channel, std::vector<Value>(words, words + count), false, w,
        round_};
  m.suppressed = opt_.compile.decode_defaults && x.default_msg &&
                 *x.default_msg == std::make_pair(channel, m.words);
  x.sent.push_back(std::move(m));
}

void Context::send_and_deliver() {
  for (v_ = 0; v_ < g_.num_nodes(); ++v_) {
    if (!at().active) continue;
    at().default_msg.reset();
    at().program->on_send(*this);
  }
  const CongestPolicy policy = opt_.congest_policy;
  for (Node& x : nodes_) {  // senders ascending, each in channel order
    std::stable_sort(
        x.sent.begin(), x.sent.end(),
        [](const Msg& a, const Msg& b) { return a.channel < b.channel; });
    for (Msg& m : x.sent) {
      if (opt_.compile.cache_resends) {
        // The receiver remembers the last message on each edge.
        const auto last = std::make_pair(m.channel, m.words);
        auto [it, fresh] = memory_.try_emplace({m.from, m.to}, last);
        if (!fresh && it->second == last) m.suppressed = true;
        it->second = last;
      }
      charge(m.left, m.suppressed);  // sends to terminated nodes too
      // Suppressed messages never touch a link, and arrive at once.
      if (policy == CongestPolicy::kDefer && !m.suppressed) {
        in_flight_ += m.left;
        links_[{m.from, m.to}].push_back(std::move(m));
        continue;
      }
      arrive(std::move(m));
    }
    x.sent.clear();
  }
  if (policy == CongestPolicy::kDefer) transmit();
}

void Context::transmit() {  // a message arrives with its last word
  for (auto& [link, q] : links_) {
    int budget = opt_.congest_word_limit;
    while (!q.empty()) {
      const int take = std::min(budget, q.front().left);
      q.front().left -= take;
      budget -= take;
      in_flight_ -= take;
      if (q.front().left > 0) break;
      arrive(std::move(q.front()));
      q.pop_front();
    }
    std::int64_t backlog = 0;
    for (const Msg& e : q) {  // deferred: missed its send round
      backlog += e.left;
      res_.deferred_messages += e.sent_round == round_;
      res_.deferred_words += e.sent_round == round_ ? e.left : 0;
    }
    res_.link_backlog_peak_words =
        std::max(res_.link_backlog_peak_words, backlog);
  }
}

void Context::receive() {
  for (v_ = 0; v_ < g_.num_nodes(); ++v_) {
    Node& x = at();
    if (!x.active) continue;
    x.inbox.clear();
    if (!x.received.empty()) {
      x.asleep = false;  // a delivery wakes a sleeper this round
      const auto& logged =
          log_.emplace_hint(log_.end(), std::pair{round_, v_},
                            std::exchange(x.received, {}))->second;
      for (const auto& [from, channel, words, suppressed] : logged) {
        x.inbox.push_back(Message{
            from, channel, WordSpan(words.data(), words.size()), suppressed});
      }
    }
    x.program->on_receive(*this);
    // Both take effect at the end of the round; no hook reads them before.
    if (x.quits) res_.termination_round[v_] = round_;
    x.active = !x.quits;
    x.asleep |= std::exchange(x.wants_idle, false);
  }
  // Section 7 notices: 1 + (edge outputs) words on channel 0 to each
  // still-active neighbor. They wake sleepers; new views apply next round.
  for (NodeId v = 0; v < g_.num_nodes(); ++v) {
    if (res_.termination_round[v] != round_) continue;
    const int words = 1 + static_cast<int>(nodes_[v].edge_out.size());
    for (const NodeId u : g_.neighbors(v)) {
      if (!nodes_[u].active) continue;
      charge(words, false);
      nodes_[u].asleep = false;
      std::erase(nodes_[u].view, v);
    }
  }
}

}  // namespace dgap::ref
