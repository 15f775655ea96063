// A reference model of docs/MODEL.md's rounds ("Reference model"),
// transcribed from that document and not from the engine, so tests check
// the engine against something other than itself. Every active node is
// stepped every round, with one vector inbox per node; there are no arenas,
// pull path, shards, worklists or compile pass. Programs are
// templates on their context type (tests/random_traffic.hpp), because only
// the engine can build a NodeContext; ref::Context has the same methods.
#pragma once

#include <deque>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/engine.hpp"

namespace dgap::ref {

/// Every nonempty inbox: (round, receiver) -> (sender, channel, words,
/// suppressed) in inbox order.
using InboxEntry = std::tuple<NodeId, int, std::vector<Value>, bool>;
using Inboxes = std::map<std::pair<int, NodeId>, std::vector<InboxEntry>>;

class Context;

class Program {
 public:
  virtual ~Program() = default;
  virtual void on_send(Context& ctx) = 0;
  virtual void on_receive(Context& ctx) = 0;
};

using Factory = std::function<std::unique_ptr<Program>(NodeId)>;

struct Run {
  RunResult result;  // wall_ms, phase_ns and peak_arena_bytes stay zero
  Inboxes inboxes;
};

/// Runs under the options that change a run (max_rounds, congest limit and
/// policy, and compile). Throws std::logic_error when a sleeper acts before
/// an event wakes it.
Run run_model(const Graph& g, const Factory& factory,
              const EngineOptions& options);

/// The model's state. A hook sees it as the context of the node it steps.
class Context {
 public:
  Value id() const { return g_.id(v_); }
  int round() const { return round_; }
  std::span<const NodeId> neighbors() const { return g_.neighbors(v_); }
  Value neighbor_id(NodeId u) const { return g_.id(u); }
  std::span<const NodeId> active_neighbors() const { return at().view; }
  /// Aligned with neighbors(): a neighbor's output once it has left the
  /// view, kUndefined while it is in it.
  std::vector<Value> neighbor_outputs() const;
  std::span<const Message> inbox() const { return at().inbox; }
  void send(NodeId to, const Value* words, std::size_t count, int channel = 0);
  void broadcast(const Value* words, std::size_t count, int channel = 0) {
    for (const NodeId u : at().view) send(u, words, count, channel);
  }
  void declare_default(std::initializer_list<Value> words, int channel = 0) {
    at().default_msg.emplace(channel, words);
  }
  void set_output(Value v) { acts("set an output").output = v; }
  void set_output_for(NodeId key, Value v) {
    acts("set an output").edge_out[key] = v;
  }
  void terminate() { acts("terminated").quits = true; }
  void idle() { at().wants_idle = true; }

 private:
  friend Run run_model(const Graph&, const Factory&, const EngineOptions&);
  struct Msg {  // a message whose payload the model owns
    NodeId from, to;
    int channel;
    std::vector<Value> words;
    bool suppressed = false;
    int left, sent_round;  // left: its words not yet transmitted
  };
  struct Node {
    std::unique_ptr<Program> program;
    bool active = true, asleep = false, wants_idle = false, quits = false;
    std::vector<NodeId> view;  // active neighbors at the start of the round
    std::optional<std::pair<int, std::vector<Value>>> default_msg;
    std::vector<Msg> sent;             // this round, in send order
    std::vector<InboxEntry> received;  // this round, in inbox order
    std::vector<Message> inbox;
    Value output = kUndefined;
    std::map<NodeId, Value> edge_out;
  };
  using Link = std::pair<NodeId, NodeId>;  // (from, to)

  Context(const Graph& g, const EngineOptions& o) : g_(g), opt_(o) {}
  Node& at() { return nodes_[v_]; }
  const Node& at() const { return nodes_[v_]; }
  Node& acts(const char* act);  // the idle promise
  Run run(const Factory& factory);
  void charge(int words, bool suppressed);
  void arrive(Msg m);
  void send_and_deliver();
  void transmit();
  void receive();

  const Graph& g_;
  const EngineOptions opt_;
  int round_ = 0;
  NodeId v_ = 0;  // the node whose hook runs
  std::vector<Node> nodes_;
  RunResult res_;
  Inboxes log_;
  std::map<Link, std::pair<int, std::vector<Value>>> memory_;  // per edge
  std::map<Link, std::deque<Msg>> links_;                      // kDefer
  std::int64_t in_flight_ = 0;  // words queued on kDefer links
};

}  // namespace dgap::ref
