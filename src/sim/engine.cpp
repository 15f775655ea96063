#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <climits>
#include <limits>

#include "common/require.hpp"
#include "graph/properties.hpp"
#include "sim/link_layer.hpp"
#include "sim/thread_pool.hpp"

namespace dgap {

namespace {

/// Does (channel, payload) match the default the current node declared on
/// its shard this round?
bool matches_default(const detail::SendShard& sh, int channel,
                     const Value* words, std::size_t count) {
  if (!sh.default_active || sh.default_channel != channel ||
      sh.default_len != count) {
    return false;
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (sh.default_words[i] != words[i]) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// NodeContext — thin accessor layer over Engine state.
// ---------------------------------------------------------------------------

Value NodeContext::id() const { return engine_->graph_.id(index_); }
NodeId NodeContext::n() const { return engine_->graph_.num_nodes(); }
std::int64_t NodeContext::d() const { return engine_->graph_.id_bound(); }
int NodeContext::delta() const { return engine_->graph_.max_degree(); }
int NodeContext::round() const { return engine_->round_; }

std::span<const NodeId> NodeContext::neighbors() const {
  return engine_->graph_.neighbors(index_);
}

Value NodeContext::neighbor_id(NodeId u) const {
  DGAP_REQUIRE(engine_->graph_.has_edge(index_, u), "not a neighbor");
  return engine_->graph_.id(u);
}

std::span<const NodeId> NodeContext::active_neighbors() const {
  return engine_->active_prefix(index_);
}

bool NodeContext::neighbor_active(NodeId u) const {
  const auto an = active_neighbors();
  return std::binary_search(an.begin(), an.end(), u);
}

NeighborOutputs NodeContext::neighbor_outputs() const {
  return {neighbors(), engine_->s_.node_active.data(),
          engine_->s_.node_output.data()};
}

Value NodeContext::prediction() const {
  return engine_->predictions_->node(index_);
}

Value NodeContext::edge_prediction(NodeId u) const {
  return engine_->predictions_->edge(engine_->graph_, index_, u);
}

void NodeContext::send(NodeId to, const Value* words, std::size_t count,
                       int channel) {
  DGAP_REQUIRE(engine_->in_send_phase_, "send() is only valid in onSend");
  DGAP_REQUIRE(engine_->graph_.has_edge(index_, to),
               "can only send to a neighbor");
  auto& sh = *shard_;
  if (!sh.node_on_records) leave_pull_path();
  if (channel < sh.last_channel) sh.node_unsorted = true;
  sh.last_channel = channel;
  detail::SendRecord r;
  r.to = to;
  r.from = index_;
  r.channel = channel;
  r.len = static_cast<std::uint32_t>(count);
  r.offset = 0;
  r.words = nullptr;
  r.suppressed = engine_->compile_defaults_ &&
                 matches_default(sh, channel, words, count);
  if (count <= detail::SendRecord::kInlineCap) {
    for (std::size_t i = 0; i < count; ++i) r.inline_words[i] = words[i];
  } else {
    r.offset = sh.arena.append(words, count);
  }
  sh.sends.push_back(r);
}

void NodeContext::send(NodeId to, const std::vector<Value>& words,
                       int channel) {
  send(to, words.data(), words.size(), channel);
}

void NodeContext::send(NodeId to, std::initializer_list<Value> words,
                       int channel) {
  send(to, words.begin(), words.size(), channel);
}

void NodeContext::broadcast(const Value* words, std::size_t count,
                            int channel) {
  DGAP_REQUIRE(engine_->in_send_phase_, "broadcast() is only valid in onSend");
  if (active_neighbors().empty()) return;
  auto& sh = *shard_;
  if (channel < sh.last_channel) {
    sh.node_unsorted = true;
    if (!sh.node_on_records) leave_pull_path();
  }
  sh.last_channel = channel;
  // One copy of the payload (inline, or once in the arena) per broadcast,
  // whatever the degree.
  detail::PullEntry e;
  e.channel = channel;
  e.len = static_cast<std::uint32_t>(count);
  e.offset = 0;
  e.suppressed = engine_->compile_defaults_ &&
                 matches_default(sh, channel, words, count);
  if (count <= detail::SendRecord::kInlineCap) {
    for (std::size_t i = 0; i < count; ++i) e.inline_words[i] = words[i];
  } else {
    e.offset = sh.arena.append(words, count);
  }
  if (sh.node_on_records) {
    push_broadcast_records(e);
  } else {
    sh.outbox.push_back(e);
  }
}

void NodeContext::push_broadcast_records(const detail::PullEntry& e) {
  auto& sh = *shard_;
  detail::SendRecord r;
  r.from = index_;
  r.channel = e.channel;
  r.len = e.len;
  r.offset = e.offset;
  r.words = nullptr;
  r.suppressed = e.suppressed;
  for (std::uint32_t i = 0; i < e.len && i < detail::SendRecord::kInlineCap;
       ++i) {
    r.inline_words[i] = e.inline_words[i];
  }
  for (NodeId u : active_neighbors()) {
    r.to = u;
    sh.sends.push_back(r);
  }
}

void NodeContext::leave_pull_path() {
  auto& sh = *shard_;
  sh.node_on_records = true;
  for (std::size_t i = sh.node_outbox_begin; i < sh.outbox.size(); ++i) {
    push_broadcast_records(sh.outbox[i]);
  }
  sh.outbox.resize(sh.node_outbox_begin);
}

void NodeContext::broadcast(const std::vector<Value>& words, int channel) {
  broadcast(words.data(), words.size(), channel);
}

void NodeContext::broadcast(std::initializer_list<Value> words, int channel) {
  broadcast(words.begin(), words.size(), channel);
}

void NodeContext::declare_default(const Value* words, std::size_t count,
                                  int channel) {
  DGAP_REQUIRE(engine_->in_send_phase_,
               "declare_default() is only valid in onSend");
  DGAP_REQUIRE(count <= detail::SendRecord::kInlineCap,
               "a default message holds at most SendRecord::kInlineCap words");
  auto& sh = *shard_;
  sh.default_active = true;
  sh.default_channel = channel;
  sh.default_len = static_cast<std::uint32_t>(count);
  for (std::size_t i = 0; i < count; ++i) sh.default_words[i] = words[i];
}

void NodeContext::declare_default(const std::vector<Value>& words,
                                  int channel) {
  declare_default(words.data(), words.size(), channel);
}

void NodeContext::declare_default(std::initializer_list<Value> words,
                                  int channel) {
  declare_default(words.begin(), words.size(), channel);
}

std::span<const Message> NodeContext::inbox() const {
  // A round without pull entries (round_has_pulls_ is also false during
  // the send phase) needs only the record slice; otherwise the node's
  // first call gathers its inbox into the shard buffer and later calls in
  // the same hook reuse it.
  if (!engine_->round_has_pulls_) return engine_->record_inbox(index_);
  auto& sh = *shard_;
  if (sh.gathered_node != index_) {
    engine_->gather_inbox(index_, sh.gathered);
    sh.gathered_node = index_;
  }
  return sh.gathered;
}

void NodeContext::set_output(Value v) {
  DGAP_REQUIRE(v != kUndefined, "kUndefined is reserved");
  engine_->s_.node_output[index_] = v;
}

void NodeContext::set_output_for(NodeId key, Value v) {
  DGAP_REQUIRE(v != kUndefined, "kUndefined is reserved");
  engine_->edge_output_store(index_, key, v);
}

bool NodeContext::has_output() const {
  return engine_->s_.node_output[index_] != kUndefined;
}

bool NodeContext::has_output_for(NodeId key) const {
  return engine_->edge_output_lookup(index_, key) != kUndefined;
}

Value NodeContext::output() const {
  return engine_->s_.node_output[index_];
}

Value NodeContext::output_for(NodeId key) const {
  return engine_->edge_output_lookup(index_, key);
}

int NodeContext::link_budget() const {
  return engine_->link_ ? engine_->options_.congest_word_limit : 0;
}

void NodeContext::terminate() {
  DGAP_REQUIRE(engine_->s_.node_output[index_] != kUndefined ||
                   engine_->edge_output_count(index_) > 0,
               "a node terminates only after assigning its outputs");
  engine_->s_.terminate_flag[index_] = 1;
}

bool NodeContext::terminated() const {
  return engine_->s_.terminate_flag[index_] != 0;
}

void NodeContext::idle() {
  DGAP_REQUIRE(!engine_->in_send_phase_, "idle() is only valid in onReceive");
  engine_->s_.idle_request[index_] = 1;
  if (shard_ != nullptr) shard_->any_idle = true;
}

// ---------------------------------------------------------------------------
// Engine — struct-of-arrays edge outputs.
// ---------------------------------------------------------------------------

void Engine::ensure_edge_out_pool() {
  if (edge_out_ready_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(edge_out_init_mutex_);
  if (edge_out_ready_.load(std::memory_order_relaxed)) return;
  s_.edge_out_pool.assign(s_.an_pool.size(), kUndefined);
  s_.edge_out_count.assign(static_cast<std::size_t>(graph_.num_nodes()), 0);
  edge_out_ready_.store(true, std::memory_order_release);
}

Value Engine::edge_output_lookup(NodeId v, NodeId key) const {
  if (!edge_out_ready_.load(std::memory_order_acquire)) return kUndefined;
  const std::uint32_t slot = graph_.edge_slot(v, key);
  if (slot == Graph::kNoSlot) return kUndefined;
  return s_.edge_out_pool[slot];
}

void Engine::edge_output_store(NodeId v, NodeId key, Value value) {
  ensure_edge_out_pool();
  const std::uint32_t slot = graph_.edge_slot(v, key);
  DGAP_REQUIRE(slot != Graph::kNoSlot,
               "edge outputs are keyed by a neighbor index");
  Value& cell = s_.edge_out_pool[slot];
  if (cell == kUndefined) ++s_.edge_out_count[v];
  cell = value;
}

std::uint32_t Engine::edge_output_count(NodeId v) const {
  if (!edge_out_ready_.load(std::memory_order_acquire)) return 0;
  return s_.edge_out_count[v];
}

void Engine::materialize_edge_outputs(
    NodeId v, std::vector<std::pair<NodeId, Value>>& out) const {
  out.clear();
  if (!edge_out_ready_.load(std::memory_order_acquire)) return;
  if (s_.edge_out_count[v] == 0) return;
  const auto nb = graph_.neighbors(v);
  const std::uint32_t base = graph_.row_begin(v);
  for (std::size_t j = 0; j < nb.size(); ++j) {
    const Value val = s_.edge_out_pool[base + j];
    if (val != kUndefined) out.emplace_back(nb[j], val);
  }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(const Graph& g, const Predictions& predictions,
               ProgramFactory factory, EngineOptions options,
               EngineScratch* scratch)
    : graph_(g),
      predictions_(&predictions),
      options_(options),
      owned_scratch_(scratch ? nullptr : std::make_unique<EngineScratch>()),
      s_(scratch ? *scratch : *owned_scratch_) {
  DGAP_REQUIRE(factory != nullptr, "a program factory is required");
  // Checked before anything touches a caller's scratch.
  DGAP_REQUIRE(options_.num_threads >= 1, "num_threads must be >= 1");
  // A pull slot names its send shard in 16 bits.
  using SlotShard = decltype(detail::PullSlot::shard);
  DGAP_REQUIRE(options_.num_threads <= std::numeric_limits<SlotShard>::max(),
               "num_threads out of range");
  const NodeId n = g.num_nodes();
  const std::size_t nu = static_cast<std::size_t>(n);
  programs_.clear();
  programs_.reserve(nu);
  s_.awake_nodes.clear();
  s_.awake_nodes.reserve(nu);
  // Struct-of-arrays node state. The active-neighbor pool is a mutable
  // copy of the graph's CSR neighbor array, addressed by the graph's own
  // row offsets; assign() rewrites every slot, so a reused scratch cannot
  // leak a previous (larger) graph's tails into this run
  // (tests/scratch_reuse_test.cpp sweeps decreasing sizes to pin it).
  s_.node_output.assign(nu, kUndefined);
  const std::vector<NodeId>& adjacency = g.adjacency();
  const std::size_t total_adj = adjacency.size();
  s_.an_pool.assign(adjacency.begin(), adjacency.end());
  s_.an_count.resize(nu);
  for (NodeId v = 0; v < n; ++v) {
    programs_.push_back(factory(v));
    DGAP_REQUIRE(programs_.back() != nullptr, "factory returned null");
    s_.an_count[v] = static_cast<std::uint32_t>(g.degree(v));
    s_.awake_nodes.push_back(v);
  }
  active_count_ = n;
  s_.node_active.assign(nu, 1);
  s_.terminate_flag.assign(nu, 0);
  s_.node_awake.assign(nu, 1);
  s_.idle_request.assign(nu, 0);
  // The edge-output pool is allocated lazily on first store; a fresh run
  // starts not-ready regardless of what a reused scratch still holds.
  // assign, not resize: a reused scratch carries round stamps from its
  // previous run, and a stale stamp equal to this run's current round
  // would resurrect a dead inbox slice.
  s_.inbox_ref.assign(nu, detail::InboxRef{});
  s_.pull_slot.assign(nu, detail::PullSlot{});
  // A previous run that died mid-round (an exception out of a program
  // hook) can leave nonzero counts / stale worklists behind, so restore
  // every between-rounds invariant explicitly.
  s_.recv_count.assign(nu, 0);
  s_.recv_nodes.clear();
  s_.woken.clear();
  s_.inbox_flat.clear();
  s_.shards.resize(static_cast<std::size_t>(options_.num_threads));
  for (auto& sh : s_.shards) {
    sh.arena.clear();
    sh.sends.clear();
    sh.outbox.clear();
    sh.pull_senders.clear();
    sh.gathered.clear();
    sh.gathered_node = kNoNode;
    sh.any_idle = false;
    sh.route_idx.clear();
    sh.route_begin.clear();
    sh.route_cursor.clear();
    sh.any_long = false;
  }
  // Receiver-shard ownership: shard t owns [n*t/S, n*(t+1)/S) — the same
  // slicing run_sharded uses, a pure function of (n, S).
  const std::size_t nshards = s_.shards.size();
  s_.recv_shards.resize(nshards);
  for (auto& rs : s_.recv_shards) {
    rs.acct = detail::CongestAccount{};
    rs.touched.clear();
    rs.delivered = 0;
    rs.region = 0;
    rs.newly_terminated.clear();
    rs.wake.clear();
    rs.next_awake.clear();
  }
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  if (options_.congest_policy == CongestPolicy::kDefer) {
    link_ = std::make_unique<detail::LinkLayer>(g, options_.congest_word_limit);
  }
  // Message-reduction compilation (sim/compile.hpp). The knobs are cached
  // as flat flags for the per-send / per-record checks; the per-directed-
  // edge cache is indexed by the graph's CSR slot (Graph::edge_slot).
  compile_cache_ = options_.compile.cache_resends;
  compile_defaults_ = options_.compile.decode_defaults;
  if (compile_cache_) {
    s_.cache_state.assign(total_adj, 0);
    s_.cache_channel.assign(total_adj, 0);
    s_.cache_len.assign(total_adj, 0);
    s_.cache_words.assign(total_adj * detail::SendRecord::kInlineCap, 0);
    s_.cache_long.clear();  // lazily sized on the first long payload
  }
  // The pull path skips per-edge delivery: the link layer's queues and
  // budgets and the resend cache's per-edge memory need one record per copy.
  pull_enabled_ = link_ == nullptr && !compile_cache_;
  // Trace spine: no sink => no virtual calls. detail() is a stable property
  // of the sink; cache the answer so the delivery path never queries it per
  // message.
  sink_ = options_.trace_sink;
  trace_messages_ =
      sink_ != nullptr && sink_->detail() == TraceDetail::kPayloads;
}

Engine::~Engine() = default;

template <typename Body>
void Engine::for_each_shard(const Body& body) {
  if (pool_ == nullptr) {
    body(0);
  } else {
    pool_->run([&body](int s) { body(s); });
  }
}

template <typename Body>
void Engine::run_sharded(std::size_t worklist_size, const Body& body) {
  const std::size_t shards = s_.shards.size();
  const std::size_t m = worklist_size;
  for_each_shard([&](int s) {
    const std::size_t su = static_cast<std::size_t>(s);
    body(s, m * su / shards, m * (su + 1) / shards);
  });
}

std::size_t Engine::recv_shard_of(NodeId v) const {
  // The inverse of the ownership ranges: v < n*(t+1)/S exactly when
  // S*(v+1) - 1 < n*(t+1), so the owner is (S*(v+1) - 1) / n.
  const std::uint64_t shards = s_.shards.size();
  if (shards == 1) return 0;
  const auto n = static_cast<std::uint64_t>(graph_.num_nodes());
  return static_cast<std::size_t>(
      (shards * (static_cast<std::uint64_t>(v) + 1) - 1) / n);
}

void Engine::send_phase() {
  in_send_phase_ = true;
  round_has_pulls_ = false;
  const int congest_limit = options_.congest_word_limit;
  run_sharded(s_.awake_nodes.size(),
              [this, congest_limit](int s, std::size_t lo, std::size_t hi) {
    auto& sh = s_.shards[static_cast<std::size_t>(s)];
    sh.arena.clear();
    sh.sends.clear();
    sh.outbox.clear();
    sh.pull_senders.clear();
    sh.acct = detail::CongestAccount{};
    for (std::size_t i = lo; i < hi; ++i) {
      const NodeId v = s_.awake_nodes[i];
      sh.last_channel = INT_MIN;
      sh.node_unsorted = false;
      sh.default_active = false;   // declarations last one node-round
      sh.node_on_records = !pull_enabled_;
      const auto begin = static_cast<std::uint32_t>(sh.outbox.size());
      sh.node_outbox_begin = begin;
      const auto first_record = static_cast<std::ptrdiff_t>(sh.sends.size());
      NodeContext ctx(this, v, &sh);
      programs_[v]->on_send(ctx);
      if (sh.node_unsorted) {
        // A channel decrease left the pull path, so every message of this
        // node-round is a record at the tail of the buffer: restore the
        // inbox order (channel, send order) for all of it.
        std::stable_sort(sh.sends.begin() + first_record, sh.sends.end(),
                         [](const detail::SendRecord& a,
                            const detail::SendRecord& b) {
                           return a.channel < b.channel;
                         });
      }
      const auto end = static_cast<std::uint32_t>(sh.outbox.size());
      if (end == begin) continue;
      // Charge the node's pull broadcasts for every active neighbor, exactly
      // what the per-copy records would cost, and publish them in its slot.
      sh.pull_senders.push_back(v);
      const std::int64_t copies = s_.an_count[v];
      for (std::uint32_t j = begin; j < end; ++j) {
        const detail::PullEntry& e = sh.outbox[j];
        sh.acct.charge(e.len, e.channel, congest_limit, e.suppressed, copies);
      }
      detail::PullSlot& slot = s_.pull_slot[v];
      slot.round_stamp = round_;
      const detail::PullEntry& e = sh.outbox[begin];
      slot.single = end - begin == 1 && e.len <= detail::SendRecord::kInlineCap;
      if (slot.single) {
        slot.suppressed = e.suppressed;
        slot.channel = e.channel;
        slot.len = e.len;
        for (std::uint32_t i = 0; i < e.len; ++i) {
          slot.words[i] = e.inline_words[i];
        }
        sh.outbox.pop_back();
      } else {
        slot.shard = static_cast<std::uint16_t>(s);
        slot.run = {begin, end - begin};
      }
    }
  });
  in_send_phase_ = false;
  for (const auto& sh : s_.shards) {
    acct_.merge_from(sh.acct);
    round_has_pulls_ |= !sh.pull_senders.empty();
  }
}

void Engine::deliver_round_messages() {
  // Four passes over S shards (S = num_threads; inline when S = 1):
  //
  //   A (over sender shards)   freeze each arena, resolve payload pointers
  //     (an inline payload's points into its own record, valid because the
  //     shard buffers stay frozen for the rest of the round), and route
  //     every record to the receiver shard owning its `to` — a stable
  //     counting sort of record indices, so each bucket preserves send
  //     order. With one shard the routing is the identity and is skipped.
  //   B (over receiver shards) walk owned records in canonical order
  //     (sender shards in index order; buckets are in order within a
  //     shard), running the resend cache, the per-shard message account,
  //     and the inbox counting. Each node's recv_count slot and each
  //     directed edge's cache line has exactly one writer.
  //   C (serial) prefix-sum the per-shard inbox regions.
  //   D (over receiver shards) assign each owned receiver's slice inside
  //     this shard's region and scatter the owned records into it.
  //
  // The shard buffers are already in canonical (sender, channel, send
  // order) — the send phase sorts the rare node-round whose channels
  // decrease — so each receiver's slice, each edge's cache sequence and
  // the account totals are the same for every S. inbox_flat's internal
  // layout does depend on S (shard regions), but nothing observes the
  // layout — every consumer goes through inbox_ref.
  //
  // Every sent message is charged in pass B — including messages addressed
  // to a node that terminated in an earlier round. The model's cost
  // accounting is sender-side: the sender cannot know the receiver is gone
  // until the termination notice arrives (next round's active_neighbors
  // view), so the words crossed the wire and count toward
  // total_messages/total_words. Delivery, however, drops them: a
  // terminated node has no receive phase, and resurrected inboxes would
  // violate the model. Pinned by
  // Engine.DropsToTerminatedAreChargedNotDelivered in engine_test.cpp.
  const int congest_limit = options_.congest_word_limit;
  const std::size_t S = s_.shards.size();
  const bool enforce = link_ != nullptr;

  for_each_shard([&](int k) {
    auto& sh = s_.shards[static_cast<std::size_t>(k)];
    sh.any_long = false;
    const Value* base = sh.arena.data();
    sh.route_begin.assign(S + 1, 0);
    for (auto& r : sh.sends) {
      if (r.len <= detail::SendRecord::kInlineCap) {
        r.words = r.inline_words;
      } else {
        r.words = base + r.offset;
        sh.any_long = true;
      }
      ++sh.route_begin[recv_shard_of(r.to) + 1];
    }
    for (std::size_t t = 0; t < S; ++t) {
      sh.route_begin[t + 1] += sh.route_begin[t];
    }
    if (S == 1) return;  // one bucket: B and D read the records in place
    sh.route_cursor.assign(sh.route_begin.begin(), sh.route_begin.end() - 1);
    sh.route_idx.resize(sh.sends.size());
    for (std::uint32_t i = 0; i < sh.sends.size(); ++i) {
      sh.route_idx[sh.route_cursor[recv_shard_of(sh.sends[i].to)]++] = i;
    }
  });

  // Serial inter-pass step: the arena high-water mark, and — when
  // compiling — the long-payload store, sized here so pass B never resizes
  // a shared vector concurrently.
  std::size_t arena_words = 0;
  bool any_long = false;
  for (const auto& sh : s_.shards) {
    arena_words += sh.arena.size();
    any_long |= sh.any_long;
  }
  peak_arena_words_ = std::max(peak_arena_words_, arena_words);
  if (compile_cache_ && any_long &&
      s_.cache_long.size() < s_.cache_state.size()) {
    s_.cache_long.resize(s_.cache_state.size());
  }

  for_each_shard([&](int t) {
    const std::size_t tu = static_cast<std::size_t>(t);
    auto& rs = s_.recv_shards[tu];
    rs.acct = detail::CongestAccount{};
    rs.touched.clear();
    std::uint32_t delivered = 0;
    for (std::size_t k = 0; k < S; ++k) {
      auto& sh = s_.shards[k];
      const std::uint32_t je = sh.route_begin[tu + 1];
      for (std::uint32_t j = sh.route_begin[tu]; j < je; ++j) {
        const std::uint32_t idx = S == 1 ? j : sh.route_idx[j];
        auto& r = sh.sends[idx];
        // The cache also absorbs default-suppressed records: the
        // receiver's memory of the edge advances either way.
        if (compile_cache_ && cache_check_and_update(r)) r.suppressed = true;
        rs.acct.charge(r.len, r.channel, congest_limit, r.suppressed);
        // Under an enforcing policy the link layer decides what arrives.
        if (!enforce && s_.node_active[r.to]) {
          if (s_.recv_count[r.to]++ == 0) rs.touched.push_back(r.to);
          ++delivered;
        }
      }
    }
    rs.delivered = delivered;
  });
  for (const auto& rs : s_.recv_shards) acct_.merge_from(rs.acct);

  if (enforce) {
    deliver_enforced();
    return;
  }

  std::uint32_t total = 0;
  for (auto& rs : s_.recv_shards) {
    rs.region = total;
    total += rs.delivered;
  }
  s_.inbox_flat.resize(total);

  for_each_shard([&](int t) {
    const std::size_t tu = static_cast<std::size_t>(t);
    auto& rs = s_.recv_shards[tu];
    std::uint32_t cursor = rs.region;
    for (const NodeId to : rs.touched) {
      s_.inbox_ref[to] = {cursor, 0, round_};
      cursor += s_.recv_count[to];
      s_.recv_count[to] = 0;  // restore the all-zero invariant for next round
    }
    for (std::size_t k = 0; k < S; ++k) {
      auto& sh = s_.shards[k];
      const std::uint32_t je = sh.route_begin[tu + 1];
      for (std::uint32_t j = sh.route_begin[tu]; j < je; ++j) {
        const auto& r = sh.sends[S == 1 ? j : sh.route_idx[j]];
        if (!s_.node_active[r.to]) continue;
        auto& ref = s_.inbox_ref[r.to];
        s_.inbox_flat[ref.begin + ref.count++] =
            Message{r.from, static_cast<int>(r.channel),
                    WordSpan(r.words, r.len), r.suppressed};
      }
    }
  });
}

void Engine::deliver_enforced() {
  // Feed the round's sends to the link layer in canonical (sender, channel,
  // send order): the shard buffers in shard order, already charged and run
  // through the resend cache by pass B. All link state mutation is serial;
  // num_threads cannot influence the schedule.
  auto& link = *link_;
  link.begin_round(round_);
  for (const auto& sh : s_.shards) {
    for (const auto& r : sh.sends) {
      if (r.suppressed) {
        // A suppressed message never crosses the wire, so it cannot be
        // deferred or charged against a link budget; it is synthesized at
        // the receiver in its send round (the free lunch — compile_test
        // pins the no-double-count property).
        if (s_.node_active[r.to]) link.deliver_suppressed(r);
        continue;
      }
      link.ingest(r);
    }
  }
  link.finish_round(s_.node_active.data());

  // Counting-sort scatter of the cleared messages. The link layer emits
  // the suppressed ones first, then the transmitted ones with ascending
  // senders and FIFO per link, so each receiver's slice comes out in
  // (sender, channel, send order) within each group — for carried-over
  // traffic, ordered by the round the words finished crossing.
  // Shard 0's touched list, which pass B cleared, collects the receivers.
  const auto& deliveries = link.deliveries();
  auto& touched = s_.recv_shards[0].touched;
  for (const auto& d : deliveries) {
    if (s_.recv_count[d.to]++ == 0) touched.push_back(d.to);
  }
  std::uint32_t cursor = 0;
  for (const NodeId to : touched) {
    s_.inbox_ref[to] = {cursor, 0, round_};
    cursor += s_.recv_count[to];
    s_.recv_count[to] = 0;  // restore the all-zero invariant for next round
  }
  s_.inbox_flat.resize(deliveries.size());
  for (const auto& d : deliveries) {
    auto& ref = s_.inbox_ref[d.to];
    s_.inbox_flat[ref.begin + ref.count++] =
        Message{d.from, static_cast<int>(d.channel), WordSpan(d.words, d.len),
                d.suppressed};
  }
}

bool Engine::cache_check_and_update(detail::SendRecord& r) {
  // One cache slot per directed edge, addressed by the sender's adjacency
  // CSR slot for the receiver — the receiver-memory model: "what was the
  // last message delivered on this edge?". A hit means the receiver can
  // reconstruct the payload from its own memory, so the re-send need not
  // cross the wire.
  const std::uint32_t slot = graph_.edge_slot(r.from, r.to);
  DGAP_ASSERT(slot != Graph::kNoSlot, "send record addresses a non-neighbor");
  constexpr std::uint32_t kCap = detail::SendRecord::kInlineCap;
  const bool small = r.len <= kCap;
  const std::uint8_t want_state = small ? 1 : 2;
  bool hit = s_.cache_state[slot] == want_state &&
             s_.cache_channel[slot] == r.channel && s_.cache_len[slot] == r.len;
  if (hit) {
    const Value* stored = small ? s_.cache_words.data() + slot * kCap
                                : s_.cache_long[slot].data();
    for (std::uint32_t i = 0; i < r.len && hit; ++i) {
      hit = stored[i] == r.words[i];
    }
  }
  if (hit) return true;
  s_.cache_state[slot] = want_state;
  s_.cache_channel[slot] = r.channel;
  s_.cache_len[slot] = r.len;
  if (small) {
    for (std::uint32_t i = 0; i < r.len; ++i) {
      s_.cache_words[slot * kCap + i] = r.words[i];
    }
  } else {
    // Sized by deliver_round_messages before pass B on any long payload.
    s_.cache_long[slot].assign(r.words, r.words + r.len);
  }
  return false;
}

const std::vector<NodeId>& Engine::collect_delivery_wakes() {
  // A delivery to a sleeping node wakes it for this round's receive phase
  // (it skipped the send phase, which is consistent with its quiescence
  // promise — the wake event postdates the send phase anyway). The record
  // receivers on the shards' touched lists are already filtered to active
  // nodes, and so are the active-neighbor prefixes a pull broadcast
  // reaches; those are only walked when some node sleeps.
  s_.woken.clear();
  for (const auto& rs : s_.recv_shards) {
    for (const NodeId to : rs.touched) {
      if (!s_.node_awake[to]) {
        s_.node_awake[to] = 1;
        s_.woken.push_back(to);
      }
    }
  }
  if (round_has_pulls_ &&
      s_.awake_nodes.size() < static_cast<std::size_t>(active_count_)) {
    for (const auto& sh : s_.shards) {
      for (const NodeId u : sh.pull_senders) {
        for (const NodeId x : active_prefix(u)) {
          if (!s_.node_awake[x]) {
            s_.node_awake[x] = 1;
            s_.woken.push_back(x);
          }
        }
      }
    }
  }
  if (s_.woken.empty()) return s_.awake_nodes;  // the common, no-idle case
  std::sort(s_.woken.begin(), s_.woken.end());
  s_.recv_nodes.clear();
  s_.recv_nodes.reserve(s_.awake_nodes.size() + s_.woken.size());
  std::merge(s_.awake_nodes.begin(), s_.awake_nodes.end(), s_.woken.begin(),
             s_.woken.end(), std::back_inserter(s_.recv_nodes));
  return s_.recv_nodes;
}

void Engine::trace_deliveries(const std::vector<NodeId>& recv) {
  // Emit every nonempty inbox — receivers ascending, each inbox in its
  // (sender, channel, send order) — so the stream is exactly the round's
  // inbox contents and is bit-identical across num_threads. Runs between
  // delivery and the receive phase, on the main thread. The receive
  // worklist ascends and holds every receiver: deliveries reach only
  // active nodes, and a delivery wakes a sleeper.
  for (const NodeId to : recv) {
    std::span<const Message> inbox = record_inbox(to);
    if (round_has_pulls_) {
      gather_inbox(to, trace_inbox_);
      inbox = trace_inbox_;
    }
    for (const Message& m : inbox) {
      sink_->on_message(
          {round_, m.from, to, m.channel, m.words, m.suppressed});
    }
  }
}

std::span<const NodeId> Engine::active_prefix(NodeId v) const {
  return {s_.an_pool.data() + graph_.row_begin(v), s_.an_count[v]};
}

std::span<const Message> Engine::record_inbox(NodeId v) const {
  const auto& ref = s_.inbox_ref[v];
  if (ref.round_stamp != round_) return {};
  return {s_.inbox_flat.data() + ref.begin, ref.count};
}

void Engine::gather_inbox(NodeId v, std::vector<Message>& out) const {
  // Merge by sender: the record slice is sorted by (sender, channel, send
  // order), the active-neighbor prefix ascends, and each sender's round is
  // wholly on records or wholly on the pull path, so no sender appears in
  // both. A pull sender's entries are already in (channel, send order).
  const std::span<const Message> records = record_inbox(v);
  out.clear();
  std::size_t ri = 0;
  for (const NodeId u : active_prefix(v)) {
    const detail::PullSlot& slot = s_.pull_slot[u];
    if (slot.round_stamp != round_) continue;
    while (ri < records.size() && records[ri].from < u) {
      out.push_back(records[ri++]);
    }
    if (slot.single) {
      out.push_back(Message{u, slot.channel, WordSpan(slot.words, slot.len),
                            slot.suppressed});
      continue;
    }
    const detail::SendShard& src = s_.shards[slot.shard];
    const std::uint32_t end = slot.run.begin + slot.run.count;
    for (std::uint32_t j = slot.run.begin; j < end; ++j) {
      const detail::PullEntry& e = src.outbox[j];
      const Value* words = e.len <= detail::SendRecord::kInlineCap
                               ? e.inline_words
                               : src.arena.data() + e.offset;
      out.push_back(Message{u, static_cast<int>(e.channel),
                            WordSpan(words, e.len), e.suppressed});
    }
  }
  out.insert(out.end(), records.begin() + static_cast<std::ptrdiff_t>(ri),
             records.end());
}

void Engine::receive_phase(const std::vector<NodeId>& recv) {
  // Safe to shard: a program's receive hook writes only its own node's
  // state (output, edge outputs, terminate/idle requests) and reads
  // neighbor state frozen at the start of the round (active flags and
  // outputs only change in process_terminations, after this phase joins).
  // The shard pointer is passed for the idle() flag only; send() stays
  // guarded by in_send_phase_.
  run_sharded(recv.size(), [this, &recv](int s, std::size_t lo,
                                         std::size_t hi) {
    auto& sh = s_.shards[static_cast<std::size_t>(s)];
    sh.any_idle = false;
    sh.gathered_node = kNoNode;  // last round's gather is stale
    for (std::size_t i = lo; i < hi; ++i) {
      const NodeId v = recv[i];
      NodeContext ctx(this, v, &sh);
      programs_[v]->on_receive(ctx);
    }
  });
}

void Engine::notify_terminations(NodeId lo, NodeId hi, std::size_t terminated,
                                 detail::CongestAccount& acct,
                                 std::vector<NodeId>& touched,
                                 std::vector<NodeId>& wake) {
  // The Section 7 convention: one notice carrying the node's outputs to
  // each neighbor that is still active. A live prefix holds exactly the
  // neighbors that were active when the round began, so its entries that
  // T1 marked inactive are exactly this round's terminated neighbors:
  // `compact` drops them in place, one notice each. A termination is also
  // a wake event: the neighbor's view changes next round, so any idle
  // promise it made is void.
  const int congest_limit = options_.congest_word_limit;
  const auto compact = [&](NodeId u) {
    NodeId* live = s_.an_pool.data() + graph_.row_begin(u);
    const std::uint32_t count = s_.an_count[u];
    std::uint32_t w = 0;  // entries before the first drop stay in place
    while (w < count && s_.node_active[live[w]]) ++w;
    if (w == count) return;
    for (std::uint32_t i = w; i < count; ++i) {
      const NodeId x = live[i];
      if (s_.node_active[x]) {
        live[w++] = x;
      } else {
        acct.charge(1 + edge_output_count(x), /*channel=*/0, congest_limit);
      }
    }
    s_.an_count[u] = w;
    s_.idle_request[u] = 0;
    if (!s_.node_awake[u]) {
      s_.node_awake[u] = 1;
      wake.push_back(u);
    }
  };
  wake.clear();
  if (detail::pull_terminations(terminated,
                                static_cast<std::size_t>(hi - lo))) {
    // Pull: the range's own rows in ascending order, so wakes ascend.
    for (NodeId u = lo; u < hi; ++u) {
      if (s_.node_active[u]) compact(u);
    }
    return;
  }
  // Push: collect the terminated nodes' still-active neighbors in the
  // range, deduplicated via the s_.recv_count scratch (all-zero between
  // rounds, restored below). Every range scans every terminated node, from
  // each T1 slice in order.
  touched.clear();
  for (const auto& rs : s_.recv_shards) {
    for (const NodeId v : rs.newly_terminated) {
      for (const NodeId u : graph_.neighbors(v)) {
        if (u < lo || u >= hi || !s_.node_active[u]) continue;
        if (s_.recv_count[u]++ == 0) touched.push_back(u);
      }
    }
  }
  for (const NodeId u : touched) {
    s_.recv_count[u] = 0;
    compact(u);
  }
  std::sort(wake.begin(), wake.end());
}

void Engine::process_terminations(const std::vector<NodeId>& recv,
                                  std::vector<int>& termination_round) {
  // Three passes, each merged in fixed shard order:
  //   T1 (over recv slices)      detect terminations. Only nodes whose
  //       hooks ran this round can have requested termination, and every
  //       such node is on the receive worklist, so the sweep is O(recv).
  //       Slices of the ascending worklist are contiguous, so the per-slot
  //       lists read in slot order ascend; the trace sink fires serially
  //       over them, in ascending node order as the spine contract
  //       requires.
  //   T2 (over receiver shards)  charge the Section 7 notices for owned
  //       still-active neighbors into the shard's account, compact their
  //       active-neighbor prefixes, void their idle promises, and wake
  //       owned sleepers. A dense round's shard pulls: it scans its own
  //       nodes' prefixes. Otherwise it pushes: it scans the full
  //       terminated-node adjacency. Either way it writes only owned
  //       nodes' slots; node_active is frozen after T1, so cross-shard
  //       reads are safe.
  //   T3 (over receiver shards)  rebuild the awake worklist: each shard
  //       merges its owned sub-range of recv (a binary search — recv is
  //       ascending), filtered by liveness and this round's idle requests,
  //       with its own woken sleepers (disjoint from recv: they were
  //       asleep and received nothing). Ownership ranges are contiguous
  //       and ascending, so the per-shard segments in shard order ascend.
  const std::size_t S = s_.shards.size();
  run_sharded(recv.size(), [&](int s, std::size_t lo, std::size_t hi) {
    auto& rs = s_.recv_shards[static_cast<std::size_t>(s)];
    rs.newly_terminated.clear();
    for (std::size_t i = lo; i < hi; ++i) {
      const NodeId v = recv[i];
      if (!s_.terminate_flag[v]) continue;
      s_.node_active[v] = 0;
      termination_round[v] = round_;
      rs.newly_terminated.push_back(v);
    }
  });
  std::size_t terminated = 0;
  for (const auto& rs : s_.recv_shards) {
    terminated += rs.newly_terminated.size();
    if (sink_ == nullptr) continue;
    for (const NodeId v : rs.newly_terminated) {
      materialize_edge_outputs(v, term_edge_outputs_);
      sink_->on_termination(round_, v, s_.node_output[v], term_edge_outputs_);
    }
  }
  active_count_ -= static_cast<NodeId>(terminated);
  bool any_idle = false;
  for (const auto& sh : s_.shards) any_idle |= sh.any_idle;
  if (terminated == 0 && !any_idle && s_.woken.empty()) return;

  const std::size_t nu = static_cast<std::size_t>(graph_.num_nodes());
  if (terminated > 0) {
    for_each_shard([&](int t) {
      const std::size_t tu = static_cast<std::size_t>(t);
      auto& rs = s_.recv_shards[tu];
      rs.acct = detail::CongestAccount{};
      notify_terminations(static_cast<NodeId>(nu * tu / S),
                          static_cast<NodeId>(nu * (tu + 1) / S), terminated,
                          rs.acct, rs.touched, rs.wake);
    });
    for (const auto& rs : s_.recv_shards) acct_.merge_from(rs.acct);
  } else {
    for (auto& rs : s_.recv_shards) rs.wake.clear();
  }

  for_each_shard([&](int t) {
    const std::size_t tu = static_cast<std::size_t>(t);
    auto& rs = s_.recv_shards[tu];
    rs.next_awake.clear();
    const NodeId lo = static_cast<NodeId>(nu * tu / S);
    const NodeId hi = static_cast<NodeId>(nu * (tu + 1) / S);
    std::size_t ri = static_cast<std::size_t>(
        std::lower_bound(recv.begin(), recv.end(), lo) - recv.begin());
    const std::size_t rn = static_cast<std::size_t>(
        std::lower_bound(recv.begin(), recv.end(), hi) - recv.begin());
    std::size_t wi = 0;
    const std::size_t wn = rs.wake.size();
    while (ri < rn || wi < wn) {
      NodeId v;
      if (wi >= wn || (ri < rn && recv[ri] < rs.wake[wi])) {
        v = recv[ri++];
      } else {
        v = rs.wake[wi++];
      }
      if (!s_.node_active[v]) {
        s_.node_awake[v] = 0;
        s_.idle_request[v] = 0;
        continue;
      }
      if (s_.idle_request[v]) {
        s_.idle_request[v] = 0;
        s_.node_awake[v] = 0;
        continue;
      }
      s_.node_awake[v] = 1;
      rs.next_awake.push_back(v);
    }
  });
  // recv may alias awake_nodes; it is not read again this round. One
  // shard's segment is the whole worklist: take it without a copy.
  if (S == 1) {
    std::swap(s_.awake_nodes, s_.recv_shards[0].next_awake);
    return;
  }
  s_.awake_nodes.clear();
  for (const auto& rs : s_.recv_shards) {
    s_.awake_nodes.insert(s_.awake_nodes.end(), rs.next_awake.begin(),
                          rs.next_awake.end());
  }
}

RunResult Engine::run() {
  const auto t0 = std::chrono::steady_clock::now();
  const NodeId n = graph_.num_nodes();
  RunResult result;
  result.termination_round.assign(static_cast<std::size_t>(n), -1);

  if (sink_ != nullptr) sink_->on_run_begin(n, options_);
  // Phase profiler (EngineOptions::profile_phases): one clock read per
  // stage boundary, so adjacent spans share a timestamp and the per-round
  // sum never exceeds the wall time between the boundaries. lap() costs
  // nothing when profiling is off.
  const bool prof = options_.profile_phases;
  auto mark = std::chrono::steady_clock::now();
  const auto lap = [&mark, prof]() -> std::int64_t {
    if (!prof) return 0;
    const auto now = std::chrono::steady_clock::now();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark);
    mark = now;
    return ns.count();
  };
  while (active_count_ > 0 && round_ < options_.max_rounds) {
    if (s_.awake_nodes.empty() &&
        (!link_ || link_->pending_backlog() == 0)) {
      // Every active node is idle and no traffic is in flight: no event
      // can ever wake anyone again, so the network is permanently
      // quiescent. Report the run as incomplete instead of spinning the
      // round counter to max_rounds.
      break;
    }
    ++round_;
    if (sink_ != nullptr) sink_->on_round_begin(round_, active_count_);
    PhaseProfile rp;
    lap();
    send_phase();
    rp.send_ns = lap();
    deliver_round_messages();
    const std::vector<NodeId>& recv = collect_delivery_wakes();
    (link_ ? rp.link_ns : rp.scatter_ns) = lap();
    if (trace_messages_) {
      trace_deliveries(recv);
      rp.trace_ns = lap();
    }
    receive_phase(recv);
    rp.receive_ns = lap();
    process_terminations(recv, result.termination_round);
    rp.mutate_ns = lap();
    if (prof) result.phase_ns.accumulate(rp);
  }

  result.completed = (active_count_ == 0);
  result.rounds = round_;
  result.outputs = s_.node_output;
  result.edge_outputs.resize(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    materialize_edge_outputs(v, result.edge_outputs[v]);
  }
  acct_.fold_into(result);
  if (link_) link_->export_metrics(result);
  result.peak_arena_bytes =
      static_cast<std::int64_t>(peak_arena_words_ * sizeof(Value));
  if (sink_ != nullptr) sink_->on_run_end(result);
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return result;
}

const Predictions& empty_predictions() {
  static const Predictions kEmpty;
  return kEmpty;
}

RunResult run_algorithm(const Graph& g, ProgramFactory factory,
                        EngineOptions options) {
  Engine engine(g, empty_predictions(), std::move(factory), options);
  return engine.run();
}

RunResult run_with_predictions(const Graph& g, const Predictions& predictions,
                               ProgramFactory factory, EngineOptions options) {
  Engine engine(g, predictions, std::move(factory), options);
  return engine.run();
}

std::vector<int> completion_round_per_component(const Graph& g,
                                                const RunResult& result) {
  DGAP_REQUIRE(result.termination_round.size() ==
                   static_cast<std::size_t>(g.num_nodes()),
               "result does not match the graph");
  return completion_round_per_component(connected_components(g), result);
}

std::vector<int> completion_round_per_component(
    const std::vector<std::vector<NodeId>>& components,
    const RunResult& result) {
  std::vector<int> out;
  out.reserve(components.size());
  for (const auto& comp : components) {
    int worst = 0;
    for (NodeId v : comp) {
      DGAP_REQUIRE(static_cast<std::size_t>(v) <
                       result.termination_round.size(),
                   "components do not match the result");
      const int t = result.termination_round[v];
      if (t < 0) {
        worst = -1;
        break;
      }
      worst = std::max(worst, t);
    }
    out.push_back(worst);
  }
  return out;
}

}  // namespace dgap
