#include "coloring/linial.hpp"

#include <algorithm>

#include "coloring/algorithms.hpp"
#include "common/math_util.hpp"
#include "common/require.hpp"
#include "mis/algorithms.hpp"

namespace dgap {

LinialSchedule linial_schedule(std::int64_t d, int delta, bool all_classes) {
  DGAP_REQUIRE(d >= 1, "identifier bound must be positive");
  DGAP_REQUIRE(delta >= 0, "max degree must be non-negative");
  LinialSchedule s;
  if (delta == 0) {
    // No conflicts possible: everyone can take color 0 right away.
    s.final_colors = 1;
    s.total_rounds = 1;  // the final announce round
    return s;
  }
  std::int64_t m = d;  // colors are 0..d-1 initially (identifier − 1)
  while (true) {
    // Smallest polynomial degree k whose set system can encode m colors.
    std::int64_t k = 1, q = 0;
    for (;; ++k) {
      DGAP_REQUIRE(k <= 64, "Linial degree search overflow");
      q = next_prime(k * delta + 1);
      if (ipow_sat(q, static_cast<int>(k + 1)) >= m) break;
    }
    const std::int64_t m_new = q * q;
    if (m_new >= m) break;  // fixed point: palette no longer shrinks
    s.steps.push_back({k, q});
    m = m_new;
  }
  s.final_colors = m;
  // The class tail of a palette of `colors` examines classes colors − 1
  // down to the floor, one per round.
  const Value floor = all_classes ? 0 : delta + 1;
  const auto tail_length = [floor](std::int64_t colors) {
    return std::max<std::int64_t>(colors - floor, 0);
  };
  const std::int64_t q = next_prime(2 * static_cast<std::int64_t>(delta) + 1);
  DGAP_ASSERT(ipow_sat(q, 2) >= m,
              "the stage's pairs (a, b) must cover the post-Linial palette");
  std::int64_t tail_colors = m;
  if (2 * delta + 1 + tail_length(q) < tail_length(m)) {
    s.stage_q = q;
    s.stage_rounds = 2 * delta + 1;
    tail_colors = q;
  }
  s.tail_first = tail_colors - 1;
  s.tail_count = static_cast<int>(tail_length(tail_colors));
  s.total_rounds = static_cast<int>(s.steps.size()) + s.stage_rounds +
                   s.tail_count + 1;
  return s;
}

int linial_total_rounds(std::int64_t d, int delta) {
  return linial_schedule(d, delta).total_rounds;
}

void LinialColoringPhase::ensure_schedule(const NodeContext& ctx) {
  if (scheduled_) return;
  schedule_ = linial_schedule(ctx.d(), ctx.delta());
  color_ = ctx.delta() == 0 ? 0 : ctx.id() - 1;
  scheduled_ = true;
}

Value LinialColoringPhase::neighbor_palette_color(NodeId u) const {
  auto it = neighbor_color_.find(u);
  if (it == neighbor_color_.end()) return kUndefined;
  return it->second + 1;
}

void LinialColoringPhase::on_send(NodeContext& ctx, Channel& ch) {
  ensure_schedule(ctx);
  if (done_) return;
  ch.broadcast({color_});
}

PhaseProgram::Status LinialColoringPhase::on_receive(NodeContext& ctx,
                                                     Channel& ch) {
  ensure_schedule(ctx);
  if (done_) return Status::kFinished;
  ++step_;
  for (const Message* m : ch.inbox()) {
    neighbor_color_[m->from] = m->words.at(0);
  }
  const int num_steps = static_cast<int>(schedule_.steps.size());
  const int stage_end = num_steps + schedule_.stage_rounds;
  if (step_ <= num_steps) {
    // One Linial reduction: find x ∈ GF(q) separating us from every live
    // neighbor, new color = (x, p(x)).
    const auto [k, q] = schedule_.steps[static_cast<std::size_t>(step_ - 1)];
    // Split every color once: ours first, then each live neighbor's.
    const auto width = static_cast<std::size_t>(k + 1);
    std::vector<Value> digits(width);
    linial_digits(color_, q, digits);
    for (NodeId u : ctx.active_neighbors()) {
      auto it = neighbor_color_.find(u);
      if (it == neighbor_color_.end()) continue;
      DGAP_ASSERT(it->second != color_,
                  "Linial invariant: the running coloring stays proper");
      digits.resize(digits.size() + width);
      linial_digits(it->second, q, std::span<Value>(digits).last(width));
    }
    const std::span<const Value> all(digits);
    const std::span<const Value> own = all.first(width);
    std::int64_t chosen_x = -1;
    for (std::int64_t x = 0; x < q && chosen_x < 0; ++x) {
      const Value mine = linial_eval(own, q, x);
      bool ok = true;
      for (std::size_t at = width; at < all.size() && ok; at += width) {
        ok = linial_eval(all.subspan(at, width), q, x) != mine;
      }
      if (ok) chosen_x = x;
    }
    DGAP_ASSERT(chosen_x >= 0,
                "q > kΔ guarantees a separating evaluation point");
    color_ = chosen_x * q + linial_eval(own, q, chosen_x);
  } else if (step_ <= stage_end) {
    // Locally-iterative stage: settle on (0, b) unless a live neighbor's
    // color shares the second coordinate b. Settled colors (a = 0) stay.
    const std::int64_t q = schedule_.stage_q;
    if (color_ >= q) {
      bool blocked = false;
      for (NodeId u : ctx.active_neighbors()) {
        auto it = neighbor_color_.find(u);
        if (it == neighbor_color_.end()) continue;
        DGAP_ASSERT(it->second != color_,
                    "Linial invariant: the running coloring stays proper");
        blocked = blocked || it->second % q == color_ % q;
      }
      color_ = linial_stage_color(color_, q, blocked);
    }
  } else if (step_ <= stage_end + schedule_.tail_count) {
    // One class per round recolors into {0..Δ}, avoiding all neighbors.
    if (color_ == schedule_.tail_first - (step_ - stage_end - 1)) {
      const Value delta = ctx.delta();
      std::vector<bool> used(static_cast<std::size_t>(delta + 1), false);
      for (NodeId u : ctx.active_neighbors()) {
        auto it = neighbor_color_.find(u);
        if (it != neighbor_color_.end() && it->second <= delta) {
          used[static_cast<std::size_t>(it->second)] = true;
        }
      }
      Value fresh = -1;
      for (Value c = 0; c <= delta; ++c) {
        if (!used[static_cast<std::size_t>(c)]) {
          fresh = c;
          break;
        }
      }
      DGAP_ASSERT(fresh >= 0, "a Δ+1 palette always has a free color");
      color_ = fresh;
    }
  } else {
    // Final announce round already happened via this round's broadcast.
    DGAP_ASSERT(color_ >= 0 && color_ <= ctx.delta(),
                "final Linial color must be in 0..Δ");
    done_ = true;
    return Status::kFinished;
  }
  return Status::kRunning;
}

namespace {

class LinialColoringAlgorithm final : public NodeProgram {
 public:
  void on_send(NodeContext& ctx) override {
    Channel ch(ctx, 0);
    phase_.on_send(ctx, ch);
  }
  void on_receive(NodeContext& ctx) override {
    Channel ch(ctx, 0);
    if (phase_.on_receive(ctx, ch) == PhaseProgram::Status::kFinished) {
      ctx.set_output(phase_.palette_color());
      ctx.terminate();
    }
  }

 private:
  LinialColoringPhase phase_;
};

}  // namespace

ProgramFactory linial_coloring_algorithm() {
  return [](NodeId) { return std::make_unique<LinialColoringAlgorithm>(); };
}

TwoPartFactory linial_mis_reference() {
  return [](NodeId) {
    auto part1 = std::make_unique<LinialColoringPhase>();
    const LinialColoringPhase* colors = part1.get();
    return TwoPartReference{
        std::move(part1), [colors](const NodeContext& ctx) {
          return std::make_unique<ColorToMisPhase>(
              static_cast<Value>(ctx.delta() + 1),
              [colors] { return colors->palette_color(); },
              [colors](NodeId u) {
                return colors->neighbor_palette_color(u);
              });
        }};
  };
}

TwoPartFactory linial_coloring_reference() {
  return [](NodeId) {
    auto part1 = std::make_unique<LinialColoringPhase>();
    const LinialColoringPhase* colors = part1.get();
    return TwoPartReference{
        std::move(part1), [colors](const NodeContext&) {
          return std::make_unique<ColorClassEmitPhase>(
              [colors] { return colors->palette_color(); });
        }};
  };
}

int linial_mis_total_rounds(std::int64_t d, int delta) {
  // Part 2 processes colors 1..Δ+1 plus one drain round.
  return linial_total_rounds(d, delta) + delta + 2;
}

}  // namespace dgap
