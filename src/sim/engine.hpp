// Round-synchronous message-passing simulator (the paper's Section 2 model).
//
// Each round, every *active* node first sends (a possibly different message
// to each neighbor), then receives everything sent to it this round, then
// computes, optionally assigns output values, and optionally terminates.
// Programs therefore implement two hooks per round, onSend and onReceive;
// a node cannot make its round-r sends depend on its round-r inbox, exactly
// as in the model.
//
// Termination convention (Section 7): "prior to terminating, nodes inform
// their active neighbors about their output values". The engine implements
// this convention once, for every algorithm: when a node terminates at the
// end of round r, each still-active neighbor's view is updated for round
// r+1 — the node disappears from active_neighbors() and its outputs become
// readable through neighbor_outputs(). The notification traffic is charged
// to the message metrics (one message per still-active neighbor, one word
// per output value), so CONGEST accounting stays honest.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"
#include "predict/predictions.hpp"
#include "sim/arena.hpp"
#include "sim/trace.hpp"

namespace dgap {

/// What the engine does with traffic that exceeds the per-link CONGEST
/// budget (`EngineOptions::congest_word_limit`, in words per directed edge
/// per round). See docs/MODEL.md, "CONGEST enforcement semantics".
enum class CongestPolicy {
  /// Audit only (default): violations are counted, delivery is unaffected.
  kCount,
  /// Enforce by store-and-forward: a link transmits at most B words per
  /// round; excess queues FIFO per link and arrives in a later round.
  kDefer,
  /// Enforce by contract: an over-budget send throws (DGAP_REQUIRE).
  kFail,
};

/// A message delivered within a round. `channel` is a multiplexing tag used
/// by composed algorithms (the Parallel template runs two sub-algorithms
/// whose traffic must not be confused); it models field(s) inside the
/// message, and its width is charged as one extra word whenever nonzero.
/// `words` is a borrowed view into the engine's round arena — valid only
/// during this round's receive phase; copy words out to keep them.
/// `suppressed` is set only under message-reduction compilation
/// (EngineOptions::compile): the payload never crossed the wire — the
/// receiver reconstructs it from silence (a declared default or its
/// memory of the link's previous message) — but the engine synthesizes
/// the delivery so program behavior is byte-identical to the uncompiled
/// run. See docs/MODEL.md, "Message-reduction compilation".
struct Message {
  NodeId from = kNoNode;  // sender's internal index
  int channel = 0;
  WordSpan words;
  bool suppressed = false;
};

class Engine;
struct RunResult;

namespace detail {

/// One message's width in words: the payload plus the channel-tag field
/// (a nonzero channel models an extra field inside the message).
inline int message_width(std::size_t payload_words, int channel) {
  return static_cast<int>(payload_words) + (channel != 0 ? 1 : 0);
}

/// Message-metric accumulator shared by every accounting site — the pull
/// broadcasts of the send phase, the delivery pass and the
/// termination-notice charges — so the CONGEST bookkeeping cannot drift
/// between them. The send phase charges one instance per send shard, and
/// the delivery and termination passes one per receiver shard, all merged
/// into the engine's run account in fixed shard order each round. Every
/// counter is an order-independent reduction (sums, plus one max), so the
/// merged totals are *exactly* the same for any num_threads; folded into
/// the RunResult once per run.
///
/// `messages`/`words` are the *nominal* totals — what the uncompiled
/// algorithm pays, suppressed traffic included — so compiling a run never
/// changes them (the invariant sent + suppressed == nominal that
/// bench_messages asserts). The `*_suppressed` counters split out traffic
/// a message-reduction transform kept off the wire (sim/compile.hpp);
/// width and violation audits skip suppressed messages, because silence
/// occupies no link.
struct CongestAccount {
  std::int64_t messages = 0;  // nominal: sent + suppressed
  std::int64_t words = 0;
  std::int64_t messages_suppressed = 0;
  std::int64_t words_suppressed = 0;
  int max_width = 0;
  std::int64_t violations = 0;

  /// Charge `copies` identical messages (a pull broadcast charges one per
  /// active neighbor at once). `word_limit` <= 0 disables violation
  /// counting; `suppressed` messages are charged to the nominal totals but
  /// never to the wire-side audits (width, violations).
  void charge(std::size_t payload_words, int channel, int word_limit,
              bool suppressed = false, std::int64_t copies = 1) {
    messages += copies;
    const int width = message_width(payload_words, channel);
    words += copies * width;
    if (suppressed) {
      messages_suppressed += copies;
      words_suppressed += copies * width;
      return;
    }
    if (width > max_width) max_width = width;
    if (word_limit > 0 && width > word_limit) violations += copies;
  }

  /// Merge another account into this one (the fixed-shard-order reduction
  /// of the sharded passes). All counters are sums except max_width, which
  /// is a max — both order-independent, so the merge is exact.
  void merge_from(const CongestAccount& o) {
    messages += o.messages;
    words += o.words;
    messages_suppressed += o.messages_suppressed;
    words_suppressed += o.words_suppressed;
    max_width = max_width > o.max_width ? max_width : o.max_width;
    violations += o.violations;
  }

  /// Fold the accumulated counters into the run metrics (defined out of
  /// line: RunResult is completed later in this header).
  void fold_into(RunResult& m) const;
};

/// One queued point-to-point message: a send(), or one copy of a broadcast
/// from a node-round that left the pull path (see PullEntry) or a run that
/// keeps per-edge state. Payloads of at most kInlineCap words — the common
/// case for every algorithm in docs/ALGORITHMS.md — are stored inline in
/// the record itself and never touch the arena; larger payloads record the
/// (offset, len) of their arena copy. `words` is filled in after the send
/// phase, once both the arena and the shard's record vector are frozen
/// (either may still grow — and move — while the phase runs, which is why
/// neither an arena pointer nor a self-pointer can be taken earlier).
struct SendRecord {
  static constexpr std::uint32_t kInlineCap = 2;

  NodeId to;
  NodeId from;
  std::int32_t channel;
  std::uint32_t len;
  std::uint32_t offset;         // arena offset; unused when len <= kInlineCap
  const Value* words;           // resolved after the send phase
  Value inline_words[kInlineCap];
  // Set by a compile transform (EngineOptions::compile): the payload stays
  // off the wire but the delivery is synthesized (charged suppressed,
  // still delivered).
  bool suppressed;
};

/// One broadcast on the pull path: stored once at the sender, whatever its
/// degree, and gathered by each active neighbor when it reads its inbox
/// (docs/MODEL.md, "Delivery order"). Payload storage and `suppressed`
/// follow SendRecord: inline up to kInlineCap words, else an arena offset.
struct PullEntry {
  std::int32_t channel;
  std::uint32_t len;
  std::uint32_t offset;  // arena offset; unused when len <= kInlineCap
  bool suppressed;
  Value inline_words[SendRecord::kInlineCap];
};

/// A node's pull broadcasts of one round: entries [begin, begin + count) of
/// send shard `shard`'s outbox. Only a stamp equal to the current round is
/// live, so the array is never cleared between rounds.
struct OutboxRef {
  std::uint32_t begin = 0;
  std::uint32_t count = 0;
  std::uint32_t shard = 0;
  int round_stamp = -1;
};

/// Outgoing traffic of one contiguous slice of the awake worklist, one
/// shard per engine thread; read in slice order, the shards' buffers are
/// the round's canonical send sequence for every thread count.
///
/// A node-round's broadcasts take the pull path — one PullEntry each in
/// `outbox`, charged here for every active neighbor — while everything the
/// node sends is a broadcast on non-decreasing channels. Its first send()
/// or channel decrease flushes those entries into per-neighbor `sends`
/// records in send order, and the rest of its round uses records. Runs
/// whose delivery keeps per-edge state (an enforcing link layer, the resend
/// cache) put every broadcast on records. A node-round whose channels
/// decreased has its records stable-sorted by channel after its send hook,
/// so `sends` is always in (sender, channel, send order).
struct SendShard {
  MessageArena arena;
  std::vector<SendRecord> sends;
  std::vector<PullEntry> outbox;     // pull broadcasts, grouped by sender
  std::vector<NodeId> pull_senders;  // nodes with outbox entries, ascending
  CongestAccount acct;               // charges of this round's outbox
  bool node_on_records = false;      // current node-round left the pull path
  std::uint32_t node_outbox_begin = 0;  // current node's first outbox entry
  bool node_unsorted = false;     // current node-round's channels fell
  int last_channel = 0;           // channel of the current node's last send
  bool any_idle = false;          // some node on this slice called idle()
  // Receive phase: the gathered inbox of `gathered_node` (this shard's
  // node currently in on_receive), materialized on its first inbox() call.
  std::vector<Message> gathered;
  NodeId gathered_node = kNoNode;
  // declare_default state of the node currently in its on_send hook (reset
  // per node, like last_channel). Shard-local, so the parallel send phase
  // needs no shared state.
  bool default_active = false;
  std::int32_t default_channel = 0;
  std::uint32_t default_len = 0;
  Value default_words[SendRecord::kInlineCap];
  // Receiver routing: this shard's send records grouped by the receiver
  // shard that owns `to` — a stable counting sort of record indices, so
  // each bucket preserves send order. route_begin holds S + 1 bucket
  // offsets into route_idx. any_long notes a payload over
  // SendRecord::kInlineCap this round (the serial between-passes step
  // sizes the compile cache's long-payload store before shards touch it).
  std::vector<std::uint32_t> route_idx;
  std::vector<std::uint32_t> route_begin;
  std::vector<std::uint32_t> route_cursor;
  bool any_long = false;
};

/// Per-receiver-shard state of the delivery and termination passes.
/// Receiver shard t of S owns the contiguous node range [n*t/S, n*(t+1)/S)
/// for the whole run — a pure function of (n, S), never of scheduling —
/// and every per-node slot (recv_count, inbox slices, active-neighbor
/// prefixes, awake flags, and the compile pass's per-in-edge cache lines)
/// of an owned node is touched by exactly one shard, so the passes need no
/// locks and no atomics. Per-shard outputs (wake lists, account) are
/// merged serially in fixed shard order; because ownership ranges are
/// contiguous and ascending, concatenation in shard order *is* ascending
/// node order, and the account counters are order-independent reductions —
/// which is why the merged result is the same for every S (docs/MODEL.md,
/// "Simulator internals & performance model").
struct RecvShard {
  CongestAccount acct;                   // merged in shard order
  std::vector<NodeId> touched;           // owned record receivers
  std::uint32_t delivered = 0;           // records scattered by this shard
  std::uint32_t region = 0;              // this shard's inbox_flat base
  std::vector<NodeId> newly_terminated;  // T1: this recv slice's (asc.)
  std::vector<NodeId> wake;              // owned sleepers woken (sorted)
  std::vector<NodeId> next_awake;        // owned slice of the rebuild
};

/// The direction of the termination pass for one receiver range of
/// `range` nodes, in a round where `terminated` nodes terminated. Pull —
/// each active node of the range drops the terminated entries of its own
/// active-neighbor prefix, in ascending order — when the terminations are
/// many against the range; else push each terminated node's notices to
/// its neighbors in the range. Both directions charge the same notices
/// and leave the same prefixes and wakes, so no result depends on it.
inline bool pull_terminations(std::size_t terminated, std::size_t range) {
  return 16 * terminated >= range;
}

/// Inbox of one node = a slice of the flat round buffer, valid for one
/// round. The stamp makes stale entries read as empty without any
/// per-round clearing.
struct InboxRef {
  std::uint32_t begin = 0;
  std::uint32_t count = 0;
  int round_stamp = -1;
};

class LinkLayer;  // per-edge bandwidth scheduler (sim/link_layer.hpp)

}  // namespace detail

/// The engine's reusable data-plane buffers: hot flags, worklists, the
/// struct-of-arrays node state, the per-thread send shards (with their
/// payload arenas, outboxes and gather buffers) and the flat inbox. An Engine normally owns one
/// privately; sweeps that construct thousands of short-lived engines can
/// instead hand the same scratch to consecutive engines — one live engine
/// at a time, never two — so arena, worklist, and node-state capacity is
/// reused instead of reallocated per run. The engine fully re-initializes
/// the logical contents at construction, so reuse cannot leak state across
/// runs (tests/batch_test.cpp and tests/scratch_reuse_test.cpp pin
/// bit-identical results); the win is purely the retained heap capacity.
///
/// Per-node state is struct-of-arrays (docs/MODEL.md, "Memory model"): one
/// flat output array, and the active-neighbor sets as live prefixes of a
/// mutable copy of the graph's CSR neighbor array, addressed by the graph's
/// own row offsets — termination compacts a node's prefix in place instead
/// of erasing from a per-node vector, so the termination sweep and delivery
/// checks touch dense cache-resident arrays even at n = 10^6-10^7.
struct EngineScratch {
  std::vector<std::uint8_t> node_active;     // hot flag, 1 = active
  std::vector<std::uint8_t> terminate_flag;  // hot flag, 1 = requested
  std::vector<std::uint8_t> node_awake;      // active and not idling
  std::vector<std::uint8_t> idle_request;    // idle() called this round
  std::vector<NodeId> awake_nodes;        // awake node indices, ascending
  std::vector<NodeId> recv_nodes;         // receive worklist (merged wakes)
  std::vector<NodeId> woken;              // sleepers woken by a delivery
  // --- struct-of-arrays node state ---
  std::vector<Value> node_output;         // key-0 outputs; kUndefined unset
  std::vector<NodeId> an_pool;            // active-neighbor live prefixes
  std::vector<std::uint32_t> an_count;    // live prefix length per node
  std::vector<Value> edge_out_pool;       // lazy; one slot / directed edge
  std::vector<std::uint32_t> edge_out_count;  // assigned slots per node
  // --- message data plane ---
  std::vector<detail::SendShard> shards;  // one per engine thread
  std::vector<Message> inbox_flat;        // receiver-grouped record messages
  std::vector<detail::InboxRef> inbox_ref;  // per node, stamped by round
  std::vector<detail::OutboxRef> outbox_ref;  // per node, stamped by round
  std::vector<std::uint32_t> recv_count;  // scratch; all-zero between rounds
  // --- receiver-shard ownership (delivery and termination passes) ---
  std::vector<detail::RecvShard> recv_shards;  // one per engine thread
  // --- message-reduction compiler state (EngineOptions::compile), SoA per
  // directed edge, addressed by the graph's CSR slot of (from, to). The
  // cache models the receiver's one-slot memory of the link's previous
  // message: (channel, len, payload). Payloads up to SendRecord::kInlineCap
  // words — the common case — live in the flat cache_words pool; longer
  // ones fall back to the per-edge vector store. Only allocated when
  // compile.cache_resends is on. Mutation is keyed to receiver-shard
  // ownership: the directed edge (from, to)'s slot is touched only by the
  // shard owning `to`, and each shard walks its records in ascending
  // global send order, so the hit/miss sequence per edge — and therefore
  // the suppressed split — is identical for every num_threads.
  std::vector<std::uint8_t> cache_state;      // 0 empty, 1 short, 2 long
  std::vector<std::int32_t> cache_channel;
  std::vector<std::uint32_t> cache_len;
  std::vector<Value> cache_words;             // kInlineCap slots per edge
  std::vector<std::vector<Value>> cache_long;  // lazily sized on first use
};

/// A node's view of its neighbors' key-0 outputs, aligned with
/// NodeContext::neighbors(): element j is the output of neighbors()[j] once
/// that neighbor has terminated (kUndefined if it never set one), and
/// kUndefined while it is active. Its indices come from the node's own CSR
/// row, so no element needs a membership check. Its values are for the
/// hook that produced it; like ChannelInbox's, its iterators point into
/// engine storage.
class NeighborOutputs {
 public:
  class iterator {
   public:
    // The active flag first: an active neighbor's hook may be writing its
    // output on another shard, and a terminated one's never changes again.
    Value operator*() const {
      return active_[*cur_] ? kUndefined : output_[*cur_];
    }
    iterator& operator++() {
      ++cur_;
      return *this;
    }
    bool operator!=(const iterator& o) const { return cur_ != o.cur_; }

   private:
    friend class NeighborOutputs;
    iterator(const NodeId* cur, const std::uint8_t* active,
             const Value* output)
        : cur_(cur), active_(active), output_(output) {}
    const NodeId* cur_;
    const std::uint8_t* active_;
    const Value* output_;
  };

  std::size_t size() const { return neighbors_.size(); }
  Value operator[](std::size_t j) const { return *at(j); }
  iterator begin() const { return at(0); }
  iterator end() const { return at(neighbors_.size()); }

 private:
  friend class NodeContext;
  NeighborOutputs(std::span<const NodeId> neighbors,
                  const std::uint8_t* active, const Value* output)
      : neighbors_(neighbors), active_(active), output_(output) {}
  iterator at(std::size_t j) const {
    return {neighbors_.data() + j, active_, output_};
  }

  std::span<const NodeId> neighbors_;
  const std::uint8_t* active_;
  const Value* output_;
};

/// Per-node view handed to programs each round. All queries reflect the
/// node's legitimate local knowledge: its identifier, its neighbors'
/// identifiers, n, d, Δ (Section 2: "Each node is assumed to know its
/// identifier and the identifiers of its neighbors, as well as the values
/// n and d"), the predictions, the current inbox, and everything implied
/// by the termination-notification convention.
class NodeContext {
 public:
  NodeId index() const { return index_; }
  Value id() const;
  NodeId n() const;
  std::int64_t d() const;
  int delta() const;
  int round() const;

  /// All neighbors in the input graph (internal indices, ascending).
  std::span<const NodeId> neighbors() const;
  Value neighbor_id(NodeId u) const;
  int degree() const { return static_cast<int>(neighbors().size()); }

  /// Neighbors that have not terminated as of the start of this round
  /// (internal indices, ascending). The span views engine-owned storage
  /// that is stable within the round; copy it to keep it across rounds.
  std::span<const NodeId> active_neighbors() const;
  bool neighbor_active(NodeId u) const;

  /// Key-0 outputs of the neighbors, aligned with neighbors(): kUndefined
  /// at a neighbor that is still active (see NeighborOutputs).
  NeighborOutputs neighbor_outputs() const;
  /// Edge-keyed output of a terminated neighbor (for edge problems).
  Value neighbor_output_for(NodeId u, NodeId key) const;

  /// This node's prediction x_i (node-valued problems).
  Value prediction() const;
  /// Predicted value for the edge to neighbor u (edge-valued problems).
  Value edge_prediction(NodeId u) const;

  /// Queue a message to neighbor `to` for this round. Only valid in onSend.
  /// The words are copied into the round arena; the initializer-list
  /// overload keeps literal payloads (`ctx.send(u, {x, y})`) off the heap.
  void send(NodeId to, const Value* words, std::size_t count, int channel = 0);
  void send(NodeId to, const std::vector<Value>& words, int channel = 0);
  void send(NodeId to, std::initializer_list<Value> words, int channel = 0);
  /// Send the same message to every active neighbor. Only valid in onSend.
  /// The payload is stored once regardless of the degree, and usually so
  /// is the message: each receiver gathers it (docs/MODEL.md, "Delivery
  /// order").
  void broadcast(const Value* words, std::size_t count, int channel = 0);
  void broadcast(const std::vector<Value>& words, int channel = 0);
  void broadcast(std::initializer_list<Value> words, int channel = 0);

  /// Declare this round's default message on `channel` (the
  /// silence-as-information transform, sim/compile.hpp): a send this round
  /// whose (channel, payload) equals the declaration is suppressed — the
  /// words stay off the wire, the receiver decodes them from the absence —
  /// when the engine runs with EngineOptions::compile.decode_defaults;
  /// otherwise the declaration is inert, so the same program serves both
  /// the compiled and the uncompiled run. Only valid in onSend, before the
  /// sends it should cover; at most SendRecord::kInlineCap words. The
  /// declaring program is responsible for soundness: every receiver must
  /// know the declaration (same program, same round of a lockstep
  /// schedule) — see docs/MODEL.md, "Message-reduction compilation".
  void declare_default(const Value* words, std::size_t count, int channel = 0);
  void declare_default(const std::vector<Value>& words, int channel = 0);
  void declare_default(std::initializer_list<Value> words, int channel = 0);

  /// Messages received this round, ordered by (sender, channel, send
  /// order). Only meaningful in onReceive; the underlying storage is
  /// reused for the next node and round, so copy anything that must
  /// outlive this hook.
  std::span<const Message> inbox() const;

  /// Assign this node's (key-0) output value.
  void set_output(Value v);
  /// Assign an edge-keyed output (key = neighbor index), for edge problems.
  void set_output_for(NodeId key, Value v);
  bool has_output() const;
  bool has_output_for(NodeId key) const;
  Value output() const;
  /// This node's own edge-keyed output (kUndefined if unset).
  Value output_for(NodeId key) const;

  /// Words still in flight (sent but not yet delivered) on this node's
  /// link to neighbor u, so programs can observe congestion. Nonzero only
  /// under CongestPolicy::kDefer.
  std::int64_t link_backlog(NodeId u) const;
  /// The per-link word budget this run defers excess traffic against, or 0
  /// when delivery is same-round (count / fail policies).
  /// Budget-aware schedules stretch their stages by this (it is global and
  /// round-invariant, so schedules stay pure functions of the instance).
  int link_budget() const;

  /// Terminate at the end of this round. Requires at least one output to
  /// have been assigned ("immediately after node i has assigned values to
  /// all its output variables, it terminates").
  void terminate();
  bool terminated() const;

  /// Promise quiescence: this node has nothing to send and its decision
  /// cannot change until an external event occurs. The engine stops
  /// calling the node's hooks after this round and wakes it when a message
  /// is delivered to it (same round's receive phase) or a neighbor
  /// terminates (next round, when the updated active_neighbors() /
  /// neighbor_outputs() view becomes visible). Purely a scheduling hint:
  /// rounds still advance globally, and an algorithm that never idles runs
  /// exactly as before. Only valid in onReceive. See docs/MODEL.md,
  /// "Idle nodes and event-driven scheduling".
  void idle();

 private:
  friend class Engine;
  NodeContext(Engine* e, NodeId index, detail::SendShard* shard)
      : engine_(e), index_(index), shard_(shard) {}
  /// Queue broadcast `e` as one record per active neighbor.
  void push_broadcast_records(const detail::PullEntry& e);
  /// Move this node-round off the pull path: its outbox entries become
  /// records in send order, and later broadcasts go to records directly.
  void leave_pull_path();
  Engine* engine_;
  NodeId index_;
  // Outgoing-traffic sink; null outside the send phase.
  detail::SendShard* shard_;
};

/// A per-node state machine. The engine owns one per node; hooks are called
/// while the node is active.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;
  /// Decide this round's outgoing messages (round r sends).
  virtual void on_send(NodeContext& ctx) = 0;
  /// Consume this round's inbox; may set outputs and terminate.
  virtual void on_receive(NodeContext& ctx) = 0;
};

/// Factory producing one program per node. Called once per node before
/// round 1; programs learn their identity from the context.
using ProgramFactory =
    std::function<std::unique_ptr<NodeProgram>(NodeId index)>;

/// Knobs of the message-reduction compiler pass (sim/compile.hpp; docs/
/// MODEL.md "Message-reduction compilation"). All default off — the
/// uncompiled engine is untouched. The transforms change what crosses the
/// wire (RunResult::messages_sent vs messages_suppressed), never the
/// nominal totals, and never program behavior: suppressed messages are
/// still delivered (synthesized at the receiver), so outputs, rounds, and
/// kRounds transcripts are byte-identical to the uncompiled run by
/// construction.
struct CompileOptions {
  /// (1) Neighborhood caching: suppress a send whose (channel, payload)
  /// repeats the previous message on the same directed edge — the
  /// receiver's one-slot memory of the link reconstructs it.
  bool cache_resends = false;
  /// (2) Silence-as-information: suppress sends matching the default the
  /// program declared this round (NodeContext::declare_default).
  bool decode_defaults = false;
};

struct EngineOptions {
  /// Hard stop; a run that hits it is reported with completed = false.
  int max_rounds = 1'000'000;
  /// If > 0, messages wider than this many words are counted as CONGEST
  /// violations (the run still proceeds; benches report the counter).
  /// Under an enforcing congest_policy this is the hard per-round word
  /// budget of every directed edge and must be positive.
  int congest_word_limit = 0;
  /// What over-budget traffic does. The default (kCount) is the audit-only
  /// path, bit-identical to the engine before link-layer enforcement
  /// existed; any other value requires congest_word_limit > 0.
  CongestPolicy congest_policy = CongestPolicy::kCount;
  /// Observer of the run's event stream (round begins, deliveries,
  /// terminations) — see sim/trace.hpp. Borrowed; must outlive run().
  /// Null (the default) installs no sink: the engine then makes no
  /// virtual calls and does no per-message trace work at all.
  TraceSink* trace_sink = nullptr;
  /// Shard the round pipeline over this many threads (1 = no pool).
  /// Results are bit-identical for every value — see docs/MODEL.md
  /// "Simulator internals & performance model".
  int num_threads = 1;
  /// Measure the wall-ns the run spends in each pipeline stage
  /// (RunResult::phase_ns). Off by default under the trace spine's
  /// cost contract: the measurement is a handful of clock reads per round,
  /// invisible on message-bound runs but measurable on runs with millions
  /// of sub-microsecond rounds. Never affects simulated behavior.
  bool profile_phases = false;
  /// Message-reduction compilation (see CompileOptions above).
  CompileOptions compile = {};
};

struct RunResult {
  bool completed = false;
  int rounds = 0;                        // rounds until every node terminated
  std::vector<int> termination_round;    // per node, 1-based; -1 if never
  std::vector<Value> outputs;            // key-0 outputs (kUndefined if unset)
  std::vector<std::vector<std::pair<NodeId, Value>>> edge_outputs;
  /// Nominal message complexity: every message the program logically sent,
  /// suppressed traffic included. Invariant under compilation — compiled
  /// and uncompiled runs of the same job report identical totals
  /// (total == sent + suppressed; bench_messages asserts it per row).
  std::int64_t total_messages = 0;
  std::int64_t total_words = 0;
  // --- message-reduction accounting (sim/compile.hpp) ---
  /// Physical wire traffic: messages whose words actually crossed a link.
  /// With compilation off, sent == total and suppressed == 0.
  std::int64_t messages_sent = 0;
  std::int64_t words_sent = 0;
  /// Traffic a compile transform kept off the wire (the receiver
  /// reconstructs it from silence).
  std::int64_t messages_suppressed = 0;
  std::int64_t words_suppressed = 0;
  /// Wire-side audits: suppressed messages never contribute (silence
  /// occupies no link).
  int max_message_words = 0;
  std::int64_t congest_violations = 0;
  // --- link-layer enforcement metrics (all zero under kCount) ---
  /// Messages that missed their send round under kDefer, and the words
  /// they had to carry into later rounds.
  std::int64_t deferred_messages = 0;
  std::int64_t deferred_words = 0;
  /// High-water mark of any single link's carry-over queue, in words.
  std::int64_t link_backlog_peak_words = 0;
  /// Rounds that began with words still in flight — the gap between the
  /// run's effective round count (`rounds`) and the algorithm's nominal
  /// schedule is spent in these rounds.
  std::int64_t rounds_with_backlog = 0;
  /// Wall-clock duration of run(). Excluded from determinism comparisons —
  /// every field above is reproducible from (graph, factory, options).
  double wall_ms = 0;
  /// Cumulative wall-ns per pipeline stage (sim/trace.hpp) — where inside
  /// run() the wall time went. Host measurements like wall_ms: excluded
  /// from determinism comparisons and never part of a transcript.
  PhaseProfile phase_ns;
  /// High-water mark of per-round message-payload arena usage, in bytes.
  /// Plateaus once the arena reaches steady state (no per-round allocation).
  std::int64_t peak_arena_bytes = 0;
};

namespace detail {
inline void CongestAccount::fold_into(RunResult& m) const {
  m.total_messages += messages;
  m.total_words += words;
  m.messages_suppressed += messages_suppressed;
  m.words_suppressed += words_suppressed;
  m.messages_sent += messages - messages_suppressed;
  m.words_sent += words - words_suppressed;
  m.max_message_words = std::max(m.max_message_words, max_width);
  m.congest_violations += violations;
}
}  // namespace detail

class ThreadPool;

class Engine {
 public:
  /// The predictions object may be empty for algorithms without
  /// predictions; it is borrowed and must stay alive until run() returns.
  /// With options.num_threads > 1 the engine owns a pool of that many
  /// slots for its lifetime. `scratch` (optional) lets a sweep reuse the
  /// data-plane buffers across consecutive engines — see EngineScratch.
  Engine(const Graph& g, const Predictions& predictions,
         ProgramFactory factory, EngineOptions options = {},
         EngineScratch* scratch = nullptr);
  ~Engine();

  /// Run to global termination (or max_rounds).
  RunResult run();

 private:
  friend class NodeContext;

  /// Runs body(shard) once per shard: inline when there is one shard, on
  /// the pool otherwise. Every sharded pass goes through here.
  template <typename Body>
  void for_each_shard(const Body& body);
  /// Runs body(shard, lo, hi) for each contiguous slice [lo, hi) of a
  /// worklist of the given size. Slices are a pure function of (worklist
  /// size, shard count), so concatenating per-shard output in shard order
  /// is independent of the thread count; that is the heart of the
  /// determinism contract.
  template <typename Body>
  void run_sharded(std::size_t worklist_size, const Body& body);
  /// The receiver shard owning node v: the t with v in [n*t/S, n*(t+1)/S).
  std::size_t recv_shard_of(NodeId v) const;
  void send_phase();
  /// Receiver-sharded delivery: resolve + route over sender shards, then
  /// resend cache / charge / inbox count and the inbox scatter over
  /// receiver shards, with per-shard accounts merged in fixed shard order.
  /// Under an enforcing policy the link layer replaces the inbox count and
  /// scatter (deliver_enforced).
  void deliver_round_messages();
  /// Enforcing-policy tail of delivery: feed the round's sends to the link
  /// layer in canonical order and scatter what it clears into the inboxes.
  void deliver_enforced();
  /// Wake sleeping nodes that received traffic this round; returns the
  /// receive worklist (awake_nodes when nothing woke, else the merged
  /// recv_nodes).
  const std::vector<NodeId>& collect_delivery_wakes();
  /// Run every receive hook on `recv`, sharded into contiguous slices
  /// (one slice when serial). On rounds with pull entries at 2^16 nodes
  /// and more, each shard pipelines the gather of the receivers ahead of
  /// it in its own slice: it prefetches the OutboxRef stamps of the active
  /// neighbors 6 receivers ahead, then the PullEntry of each stamped
  /// neighbor 3 receivers ahead. Everything it reads is frozen during the
  /// phase.
  void receive_phase(const std::vector<NodeId>& recv);
  /// The termination pass, sharded like delivery: detection over recv
  /// slices, notice charging / view compaction / wake collection over
  /// owned nodes, and the awake-worklist rebuild over owned recv
  /// sub-ranges, each merged in fixed shard order.
  void process_terminations(const std::vector<NodeId>& recv,
                            std::vector<int>& termination_round);
  /// The termination pass's notice step for receiver range [lo, hi), in a
  /// round where `terminated` nodes terminated: charge the Section 7
  /// notices of this round's terminated nodes to their still-active
  /// neighbors in the range into `acct`, compact those neighbors' active
  /// prefixes, void their idle promises, and collect the sleepers this
  /// wakes into `wake`, ascending. detail::pull_terminations picks the
  /// direction. Pull walks the range's active nodes in ascending order and
  /// drops each prefix's inactive entries, one notice each. Push walks the
  /// terminated nodes' rows, with `touched` as scratch, and at 2^16 nodes
  /// and more its compaction prefetches the prefix row and count of the
  /// receiver 8 ahead, all of them in [lo, hi).
  void notify_terminations(NodeId lo, NodeId hi, std::size_t terminated,
                           detail::CongestAccount& acct,
                           std::vector<NodeId>& touched,
                           std::vector<NodeId>& wake);
  /// Neighborhood-cache lookup/update for one resolved record, called from
  /// the one receiver shard owning r.to — each directed edge's cache line
  /// has exactly one writer, and it sees that edge's records in canonical
  /// order. Returns true when the record repeats the edge's previous
  /// message — the caller marks it suppressed.
  bool cache_check_and_update(detail::SendRecord& r);
  /// Emit this round's delivered messages to the sink: each nonempty inbox
  /// of the receive worklist `recv`, receivers ascending. Only called when
  /// a sink wants message detail.
  void trace_deliveries(const std::vector<NodeId>& recv);
  /// Node v's full inbox this round into `out`: its record slice merged,
  /// by sender, with the pull entries of its active neighbors. Two
  /// dependent random reads per pull sender (stamp, then entry); at 2^16
  /// nodes and more receive_phase has prefetched both by the time a
  /// receive hook calls it.
  void gather_inbox(NodeId v, std::vector<Message>& out) const;
  std::span<const Message> record_inbox(NodeId v) const;
  /// Node v's active neighbors: the live prefix of its an_pool row.
  std::span<const NodeId> active_prefix(NodeId v) const;

  // --- struct-of-arrays edge-output accessors. The pool (one Value slot
  // per directed edge, addressed by the graph's CSR slot of the key) is
  // allocated lazily on the first store, so node-valued workloads never
  // pay for it; allocation is guarded for the sharded receive phase.
  void ensure_edge_out_pool();
  Value edge_output_lookup(NodeId v, NodeId key) const;
  void edge_output_store(NodeId v, NodeId key, Value value);
  std::uint32_t edge_output_count(NodeId v) const;
  void materialize_edge_outputs(
      NodeId v, std::vector<std::pair<NodeId, Value>>& out) const;

  const Graph& graph_;
  const Predictions* predictions_;  // borrowed; outlives the engine
  EngineOptions options_;
  std::vector<std::unique_ptr<NodeProgram>> programs_;  // cold, per node
  int round_ = 0;
  bool in_send_phase_ = false;
  NodeId active_count_ = 0;
  // The run's message account. The send phase and the delivery and
  // termination passes charge per-shard accounts and merge them into this
  // one in fixed shard order each round (exact — see
  // CongestAccount::merge_from). Folded into the RunResult once, at the
  // end of run().
  detail::CongestAccount acct_;
  // Compile knobs cached as flat flags (checked per send / per record).
  bool compile_cache_ = false;
  bool compile_defaults_ = false;
  // Broadcasts may take the pull path (no per-edge delivery state), and
  // whether some node-round of the current round did.
  bool pull_enabled_ = false;
  bool round_has_pulls_ = false;
  // The graph is large enough (kLookaheadMinNodes) that the gather and the
  // termination pass prefetch their random reads ahead.
  bool lookahead_ = false;
  std::vector<Message> trace_inbox_;  // trace_deliveries' gather buffer
  // Lazy edge-output pool handshake: readers that see `false` short-circuit
  // to kUndefined; the release store publishes the initialized pool.
  std::atomic<bool> edge_out_ready_{false};
  std::mutex edge_out_init_mutex_;
  // Scratch for materializing one node's edge outputs for the trace spine.
  std::vector<std::pair<NodeId, Value>> term_edge_outputs_;

  // --- data plane (all buffers are reused across rounds; injected scratch
  // additionally reuses their capacity across consecutive engines) ---
  std::unique_ptr<EngineScratch> owned_scratch_;  // null when injected
  EngineScratch& s_;
  std::unique_ptr<ThreadPool> pool_;  // workers when num_threads > 1
  // Bandwidth scheduler; only constructed for enforcing policies, so the
  // default (kCount) data plane is untouched by the link layer.
  std::unique_ptr<detail::LinkLayer> link_;
  std::size_t peak_arena_words_ = 0;

  // --- trace spine (sim/trace.hpp). sink_ is EngineOptions::trace_sink;
  // when it is null the round loop tests one pointer and makes no virtual
  // calls. trace_messages_ caches "the sink wants per-message events" so
  // the delivery path stays free of them otherwise.
  TraceSink* sink_ = nullptr;
  bool trace_messages_ = false;
};

/// The shared immutable empty Predictions instance used by every run
/// without predictions, so hot sweep loops never construct one per call.
const Predictions& empty_predictions();

/// Convenience: run an algorithm without predictions.
RunResult run_algorithm(const Graph& g, ProgramFactory factory,
                        EngineOptions options = {});

/// Convenience: run an algorithm with predictions.
RunResult run_with_predictions(const Graph& g, const Predictions& predictions,
                               ProgramFactory factory,
                               EngineOptions options = {});

/// Apply `fn` to every message in `inbox` with the given channel, in inbox
/// order. Allocation-free — the filter runs inline, so per-round hot loops
/// (and composed-program receive hooks, alongside the lazy ChannelInbox in
/// sim/phase.hpp) never materialize a vector of pointers.
template <typename Fn>
void for_each_on_channel(std::span<const Message> inbox, int channel,
                         const Fn& fn) {
  for (const Message& m : inbox) {
    if (m.channel == channel) fn(m);
  }
}

/// Completion round of each connected component of g (max termination
/// round over its nodes; -1 if some node never terminated). Ordered like
/// connected_components(g). This is the quantity the Section 10 analysis
/// maximizes over components.
std::vector<int> completion_round_per_component(const Graph& g,
                                                const RunResult& result);

/// Overload taking precomputed components (connected_components(g)) — use
/// in sweep loops to avoid recomputing the component structure per run.
std::vector<int> completion_round_per_component(
    const std::vector<std::vector<NodeId>>& components,
    const RunResult& result);

}  // namespace dgap
