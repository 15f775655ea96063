#include "edgecoloring/linegraph.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "common/require.hpp"

namespace dgap {

namespace {

/// (d+1)², the size of the line-graph identifier space. Rejects id
/// bounds whose square does not fit in 64 bits.
std::int64_t line_graph_id_space(std::int64_t d) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  DGAP_REQUIRE(d >= 0 && d < kMax && d + 1 <= kMax / (d + 1),
               "line-graph identifiers need (d+1)² ≤ 2^63 − 1");
  return (d + 1) * (d + 1);
}

/// Distinct line-graph identifier of the edge {a, b} (endpoint ids),
/// in [1, (d+1)²).
Value edge_identifier(Value a, Value b, std::int64_t d) {
  const Value lo = std::min(a, b), hi = std::max(a, b);
  return lo * (d + 1) + hi;
}

}  // namespace

int line_graph_linial_total_rounds(std::int64_t d, int delta) {
  const int delta_l = std::max(2 * delta - 2, 0);
  return linial_schedule(line_graph_id_space(d), delta_l,
                         /*all_classes=*/true)
      .total_rounds;
}

void LineGraphLinialPhase::ensure_schedule(NodeContext& ctx) {
  if (scheduled_) return;
  delta_l_ = std::max(2 * static_cast<Value>(ctx.delta()) - 2, Value{0});
  schedule_ = linial_schedule(line_graph_id_space(ctx.d()),
                              static_cast<int>(delta_l_),
                              /*all_classes=*/true);
  for (NodeId u : ctx.active_neighbors()) {
    if (ctx.output_for(u) != kUndefined) continue;
    const Value uid = ctx.neighbor_id(u);
    edges_.push_back(
        {u, uid,
         delta_l_ == 0 ? 0 : edge_identifier(ctx.id(), uid, ctx.d()) - 1});
  }
  scheduled_ = true;
}

void LineGraphLinialPhase::prune(const NodeContext& ctx) {
  // Drop edges whose co-endpoint vanished (treated as crashed: its edges
  // leave the remaining problem) and edges colored meanwhile by a
  // concurrently running uniform algorithm (Parallel template). Both lists
  // ascend, so one merge finds the live co-endpoints.
  const std::span<const NodeId> active = ctx.active_neighbors();
  std::size_t a = 0, kept = 0;
  for (const Edge& e : edges_) {
    while (a < active.size() && active[a] < e.to) ++a;
    if (a < active.size() && active[a] == e.to &&
        ctx.output_for(e.to) == kUndefined) {
      edges_[kept++] = e;
    }
  }
  edges_.resize(kept);
}

Value LineGraphLinialPhase::edge_palette_color(NodeId u) const {
  const auto it =
      std::lower_bound(edges_.begin(), edges_.end(), u,
                       [](const Edge& e, NodeId v) { return e.to < v; });
  if (it == edges_.end() || it->to != u) return kUndefined;
  return it->color + 1;
}

void LineGraphLinialPhase::on_send(NodeContext& ctx, Channel& ch) {
  ensure_schedule(ctx);
  if (done_) return;
  // Prune before broadcasting, so the list sent is exactly the set of
  // edges this node counts itself: both endpoints of an edge then decide
  // from the same constraints after a neighbor terminates.
  prune(ctx);
  // [U, (co-endpoint id, color)*U, C, output colors*C]. The co-endpoint id
  // lets the receiver identify the shared edge and the rest of the list
  // gives the adjacent-edge constraints at this endpoint.
  words_.clear();
  words_.push_back(static_cast<Value>(edges_.size()));
  for (const Edge& e : edges_) {
    words_.push_back(e.to_id);
    words_.push_back(e.color);
  }
  const std::size_t used_at = words_.size();
  words_.push_back(0);
  for (NodeId u : ctx.neighbors()) {
    const Value c = ctx.output_for(u);
    if (c != kUndefined) words_.push_back(c);
  }
  words_[used_at] = static_cast<Value>(words_.size() - used_at - 1);
  ch.broadcast(words_);
}

template <class Fn>
void LineGraphLinialPhase::for_each_adjacent_color(const NodeContext& ctx,
                                                   Channel& ch, std::size_t i,
                                                   Fn fn) const {
  const Value mine = edges_[i].color;
  for (std::size_t j = 0; j < edges_.size(); ++j) {
    if (j == i) continue;
    DGAP_ASSERT(edges_[j].color != mine,
                "line-graph Linial invariant: proper throughout");
    fn(edges_[j].color);
  }
  for (const Message* m : ch.inbox()) {
    if (m->from != edges_[i].to) continue;
    const WordSpan& w = m->words;
    const auto cnt = static_cast<std::size_t>(w.at(0));
    for (std::size_t t = 0; t < cnt; ++t) {
      if (w.at(1 + 2 * t) == ctx.id()) continue;  // the shared edge
      const Value c = w.at(2 + 2 * t);
      DGAP_ASSERT(c != mine, "line-graph Linial invariant: proper throughout");
      fn(c);
    }
  }
}

void LineGraphLinialPhase::linial_step(const NodeContext& ctx, Channel& ch,
                                       LinialStep step) {
  const auto [k, q] = step;
  const auto width = static_cast<std::size_t>(k + 1);
  const std::size_t n = edges_.size();
  // Every old color is split once: first this node's edges, then, per
  // edge, the co-endpoint's other edges behind them.
  digits_.resize(n * width);
  for (std::size_t j = 0; j < n; ++j) {
    linial_digits(edges_[j].color, q,
                  std::span<Value>(digits_).subspan(j * width, width));
  }
  next_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Adjacent edge colors: my other live edges + u's other live edges,
    // read from u's broadcasts of this round.
    const Value my_color = edges_[i].color;
    for (std::size_t j = 0; j < n; ++j) {
      DGAP_ASSERT(j == i || edges_[j].color != my_color,
                  "line-graph Linial invariant: proper throughout");
    }
    digits_.resize(n * width);
    for (const Message* m : ch.inbox()) {
      if (m->from != edges_[i].to) continue;
      const WordSpan& w = m->words;
      const auto cnt = static_cast<std::size_t>(w.at(0));
      for (std::size_t t = 0; t < cnt; ++t) {
        if (w.at(1 + 2 * t) == ctx.id()) continue;
        const Value c = w.at(2 + 2 * t);
        DGAP_ASSERT(c != my_color,
                    "line-graph Linial invariant: proper throughout");
        digits_.resize(digits_.size() + width);
        linial_digits(c, q, std::span<Value>(digits_).last(width));
      }
    }
    const std::span<const Value> all(digits_);
    const std::size_t count = all.size() / width;
    const auto digits_of = [&](std::size_t j) {
      return all.subspan(j * width, width);
    };
    std::int64_t chosen_x = -1;
    for (std::int64_t x = 0; x < q && chosen_x < 0; ++x) {
      const Value mine = linial_eval(digits_of(i), q, x);
      bool ok = true;
      for (std::size_t j = 0; j < count && ok; ++j) {
        ok = j == i || linial_eval(digits_of(j), q, x) != mine;
      }
      if (ok) chosen_x = x;
    }
    DGAP_ASSERT(chosen_x >= 0, "q > kΔ_L guarantees a separating point");
    next_[i] = chosen_x * q + linial_eval(digits_of(i), q, chosen_x);
  }
  for (std::size_t i = 0; i < n; ++i) edges_[i].color = next_[i];
}

void LineGraphLinialPhase::stage_step(const NodeContext& ctx, Channel& ch) {
  const std::int64_t q = schedule_.stage_q;
  next_.resize(edges_.size());
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    // An edge settles on (0, b) unless an adjacent edge's color has second
    // coordinate b.
    const Value color = edges_[i].color;
    next_[i] = color;
    if (color < q) continue;  // a = 0: settled
    const Value b = color % q;
    bool blocked = false;
    for_each_adjacent_color(ctx, ch, i,
                            [&](Value c) { blocked = blocked || c % q == b; });
    next_[i] = linial_stage_color(color, q, blocked);
  }
  for (std::size_t i = 0; i < edges_.size(); ++i) edges_[i].color = next_[i];
}

void LineGraphLinialPhase::reduce_class(const NodeContext& ctx, Channel& ch,
                                        Value target) {
  // Colors update in place: later edges see earlier edges' new colors.
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].color != target) continue;
    used_.assign(static_cast<std::size_t>(delta_l_ + 1), 0);
    auto mark = [&](Value c) {
      if (c >= 0 && c <= delta_l_) used_[static_cast<std::size_t>(c)] = 1;
    };
    // The adjacent edges' current colors, then the colors already OUTPUT
    // on adjacent edges at either endpoint (palette values are 1-based;
    // internal colors 0-based).
    for_each_adjacent_color(ctx, ch, i, mark);
    for (const Message* m : ch.inbox()) {
      if (m->from != edges_[i].to) continue;
      const WordSpan& w = m->words;
      const auto cnt = static_cast<std::size_t>(w.at(0));
      const auto used_cnt = static_cast<std::size_t>(w.at(1 + 2 * cnt));
      for (std::size_t t = 0; t < used_cnt; ++t) {
        mark(w.at(2 + 2 * cnt + t) - 1);
      }
    }
    for (NodeId w : ctx.neighbors()) {
      const Value out = ctx.output_for(w);
      if (out != kUndefined) mark(out - 1);
    }
    const auto free_it = std::find(used_.begin(), used_.end(), 0);
    DGAP_ASSERT(free_it != used_.end(),
                "the 2Δ−1 palette always has a free color");
    edges_[i].color = free_it - used_.begin();
  }
}

PhaseProgram::Status LineGraphLinialPhase::on_receive(NodeContext& ctx,
                                                      Channel& ch) {
  ensure_schedule(ctx);
  if (done_) return Status::kFinished;
  ++step_;
  prune(ctx);
  const int num_steps = static_cast<int>(schedule_.steps.size());
  const int stage_end = num_steps + schedule_.stage_rounds;
  if (step_ <= num_steps) {
    linial_step(ctx, ch,
                schedule_.steps[static_cast<std::size_t>(step_ - 1)]);
  } else if (step_ <= stage_end) {
    stage_step(ctx, ch);
  } else if (step_ <= stage_end + schedule_.tail_count) {
    reduce_class(ctx, ch, schedule_.tail_first - (step_ - stage_end - 1));
  } else {
    for (const Edge& e : edges_) {
      DGAP_ASSERT(e.color >= 0 && e.color <= delta_l_,
                  "final line-graph colors must fit the palette");
    }
    done_ = true;
    return Status::kFinished;
  }
  return Status::kRunning;
}

PhaseProgram::Status EdgeColorEmitPhase::on_receive(NodeContext& ctx,
                                                    Channel&) {
  if (ctx.degree() == 0) {
    ctx.set_output(0);
    ctx.terminate();
    return Status::kFinished;
  }
  for (NodeId u : ctx.neighbors()) {
    if (ctx.has_output_for(u)) continue;
    const Value c = color_(u);
    if (c != kUndefined) ctx.set_output_for(u, c);
  }
  ctx.terminate();
  return Status::kFinished;
}

void EdgeColorClassEmitPhase::on_send(NodeContext& ctx, Channel& ch) {
  // Broadcast the colors already output on this node's edges so both
  // endpoints of every emitting edge agree on the forbidden set.
  std::vector<Value> words;
  for (NodeId u : ctx.neighbors()) {
    const Value c = ctx.output_for(u);
    if (c != kUndefined) words.push_back(c);
  }
  words.insert(words.begin(), static_cast<Value>(words.size()));
  ch.broadcast(words);
}

PhaseProgram::Status EdgeColorClassEmitPhase::on_receive(NodeContext& ctx,
                                                         Channel& ch) {
  ++step_;
  if (ctx.degree() == 0) {
    ctx.set_output(0);
    ctx.terminate();
    return Status::kFinished;
  }
  const Value palette =
      std::max<Value>(1, 2 * static_cast<Value>(ctx.delta()) - 1);
  std::map<NodeId, std::vector<Value>> neighbor_used;
  for (const Message* m : ch.inbox()) {
    const auto cnt = static_cast<std::size_t>(m->words.at(0));
    auto& used = neighbor_used[m->from];
    for (std::size_t i = 0; i < cnt; ++i) used.push_back(m->words.at(1 + i));
  }
  if (step_ <= palette) {
    for (NodeId u : ctx.active_neighbors()) {
      if (ctx.has_output_for(u)) continue;
      if (color_(u) != step_) continue;
      std::vector<bool> used(static_cast<std::size_t>(palette + 1), false);
      auto mark = [&](Value c) {
        if (c >= 1 && c <= palette) used[static_cast<std::size_t>(c)] = true;
      };
      for (NodeId w : ctx.neighbors()) mark(ctx.output_for(w));
      auto it = neighbor_used.find(u);
      if (it != neighbor_used.end()) {
        for (Value c : it->second) mark(c);
      }
      Value fresh = kUndefined;
      for (Value c = 1; c <= palette; ++c) {
        if (!used[static_cast<std::size_t>(c)]) {
          fresh = c;
          break;
        }
      }
      DGAP_ASSERT(fresh != kUndefined,
                  "2Δ−1 exceeds the two endpoints' used colors");
      ctx.set_output_for(u, fresh);
    }
  }
  bool complete = true;
  for (NodeId u : ctx.neighbors()) {
    if (ctx.neighbor_active(u) && ctx.output_for(u) == kUndefined) {
      complete = false;
    }
  }
  if (complete) {
    // Edges to terminated co-endpoints were colored before termination.
    ctx.terminate();
    return Status::kFinished;
  }
  return step_ > palette ? Status::kFinished : Status::kRunning;
}

TwoPartFactory line_graph_edge_coloring_reference() {
  return [](NodeId) {
    auto part1 = std::make_unique<LineGraphLinialPhase>();
    const LineGraphLinialPhase* colors = part1.get();
    return TwoPartReference{
        std::move(part1), [colors](const NodeContext&) {
          return std::make_unique<EdgeColorEmitPhase>(
              [colors](NodeId u) { return colors->edge_palette_color(u); });
        }};
  };
}

TwoPartFactory line_graph_edge_coloring_repair_reference() {
  return [](NodeId) {
    auto part1 = std::make_unique<LineGraphLinialPhase>();
    const LineGraphLinialPhase* colors = part1.get();
    return TwoPartReference{
        std::move(part1), [colors](const NodeContext&) {
          return std::make_unique<EdgeColorClassEmitPhase>(
              [colors](NodeId u) { return colors->edge_palette_color(u); });
        }};
  };
}

ProgramFactory line_graph_edge_coloring_algorithm() {
  return phase_as_algorithm(
      whole_reference(line_graph_edge_coloring_reference()));
}

}  // namespace dgap
