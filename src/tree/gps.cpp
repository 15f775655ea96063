#include "tree/gps.hpp"

#include "common/math_util.hpp"
#include "common/require.hpp"

namespace dgap {

namespace {

int bit_length(std::int64_t x) { return x >= 1 ? ilog2(x) + 1 : 1; }

/// Lowest bit position where a and b differ (a != b).
int lowest_diff_bit(Value a, Value b) {
  DGAP_ASSERT(a != b, "colors must differ to compress");
  const Value x = a ^ b;
  int i = 0;
  while (((x >> i) & 1) == 0) ++i;
  return i;
}

}  // namespace

int gps_iterations(std::int64_t d) {
  DGAP_REQUIRE(d >= 1, "identifier bound must be positive");
  std::int64_t domain = d;  // colors 0..d-1
  int iters = 0;
  while (domain > 6) {
    domain = 2 * bit_length(domain - 1);
    ++iters;
  }
  return iters;
}

int gps_total_rounds(std::int64_t d) { return gps_iterations(d) + 6; }

int gps_tree_mis_total_rounds(std::int64_t d) {
  return gps_total_rounds(d) + 2;
}

void GpsColoringPhase::ensure_schedule(const NodeContext& ctx) {
  if (scheduled_) return;
  iterations_ = gps_iterations(ctx.d());
  color_ = ctx.id() - 1;
  scheduled_ = true;
}

void GpsColoringPhase::on_send(NodeContext& ctx, Channel& ch) {
  ensure_schedule(ctx);
  if (!done_) ch.broadcast({color_});
}

PhaseProgram::Status GpsColoringPhase::on_receive(NodeContext& ctx,
                                                  Channel& ch) {
  ensure_schedule(ctx);
  if (done_) return Status::kFinished;
  ++step_;
  Value parent_color = kUndefined;
  std::unordered_map<NodeId, Value> child_color;
  for (const Message* m : ch.inbox()) {
    if (m->from == parent_) {
      parent_color = m->words.at(0);
    } else {
      child_color[m->from] = m->words.at(0);
    }
  }
  // A vanished parent (or no parent at all) is simulated by a stand-in
  // color: the node's own color with bit 0 flipped.
  const bool orphan = (parent_color == kUndefined);
  if (orphan) parent_color = color_ ^ 1;

  if (step_ <= iterations_) {
    const int i = lowest_diff_bit(color_, parent_color);
    color_ = 2 * static_cast<Value>(i) + ((color_ >> i) & 1);
  } else {
    const int j = step_ - iterations_;  // 1..6
    if (j % 2 == 1) {
      // Shift-down: adopt the parent's color; fragment roots rotate.
      color_ = orphan ? (color_ + 1) % 3 : parent_color;
    } else {
      // Recolor the class scheduled this pair: 5, then 4, then 3.
      const Value target = 5 - (j / 2 - 1);
      if (color_ == target) {
        bool used[3] = {false, false, false};
        if (!orphan && parent_color >= 0 && parent_color <= 2) {
          used[parent_color] = true;
        }
        for (const auto& [child, c] : child_color) {
          if (c >= 0 && c <= 2) used[c] = true;
        }
        Value fresh = -1;
        for (Value c = 0; c <= 2; ++c) {
          if (!used[c]) {
            fresh = c;
            break;
          }
        }
        DGAP_ASSERT(fresh >= 0,
                    "parent + uniform child color leave a free color");
        color_ = fresh;
      }
    }
    if (j == 6) {
      DGAP_ASSERT(color_ >= 0 && color_ <= 2, "GPS must end in {0,1,2}");
      done_ = true;
      return Status::kFinished;
    }
  }
  return Status::kRunning;
}

// ---------------------------------------------------------------------------
// Part 2: 3-coloring → MIS in two rounds.
// ---------------------------------------------------------------------------

void TreeColorToMisPhase::on_send(NodeContext&, Channel& ch) {
  ch.broadcast({color_()});
}

PhaseProgram::Status TreeColorToMisPhase::on_receive(NodeContext& ctx,
                                                     Channel& ch) {
  ++step_;
  const Value mine = color_();
  if (step_ == 1) {
    if (mine == 0) {
      ctx.set_output(1);
      ctx.terminate();
      return Status::kRunning;
    }
    for (const Message* m : ch.inbox()) {
      if (m->words.at(0) == 0) {
        ctx.set_output(0);
        ctx.terminate();
        return Status::kRunning;
      }
    }
    return Status::kRunning;
  }
  DGAP_ASSERT(step_ == 2, "part 2 is a two-round algorithm");
  if (mine == 1) {
    ctx.set_output(1);
    ctx.terminate();
  } else {
    bool saw_one = false;
    for (const Message* m : ch.inbox()) {
      if (m->words.at(0) == 1) saw_one = true;
    }
    ctx.set_output(saw_one ? 0 : 1);
    ctx.terminate();
  }
  return Status::kFinished;
}

namespace {

class GpsColoringAlgorithm final : public NodeProgram {
 public:
  explicit GpsColoringAlgorithm(NodeId parent) : phase_(parent) {}

  void on_send(NodeContext& ctx) override {
    Channel ch(ctx, 0);
    phase_.on_send(ctx, ch);
  }
  void on_receive(NodeContext& ctx) override {
    Channel ch(ctx, 0);
    if (phase_.on_receive(ctx, ch) == PhaseProgram::Status::kFinished) {
      ctx.set_output(phase_.color() + 1);
      ctx.terminate();
    }
  }

 private:
  GpsColoringPhase phase_;
};

}  // namespace

TwoPartFactory gps_tree_mis_reference(const RootedTree& tree) {
  auto parents = tree.parent;
  return [parents](NodeId index) {
    auto part1 = std::make_unique<GpsColoringPhase>(
        parents[static_cast<std::size_t>(index)]);
    const GpsColoringPhase* colors = part1.get();
    return TwoPartReference{
        std::move(part1), [colors](const NodeContext&) {
          return std::make_unique<TreeColorToMisPhase>(
              [colors] { return colors->color(); });
        }};
  };
}

ProgramFactory gps_coloring_algorithm(const RootedTree& tree) {
  auto parents = tree.parent;
  return [parents](NodeId index) {
    return std::make_unique<GpsColoringAlgorithm>(
        parents[static_cast<std::size_t>(index)]);
  };
}

}  // namespace dgap
