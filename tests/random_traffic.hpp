// Shared by engine_determinism_test and reference_sim_test: a seeded random
// program, written once as a template on its context type so that it runs
// both on the engine (NodeContext) and on the reference model
// (ref::Context), and the two ways those tests compare runs.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "reference_sim.hpp"
#include "sim/engine.hpp"
#include "sim/transcript.hpp"

namespace dgap {

/// Seeded random traffic. Each node-round draws, from (seed, identifier,
/// round, everything received so far), a few operations: broadcasts on
/// channels 0–3 (so some sequences decrease), point-to-point sends to any
/// neighbor (terminated ones included), payloads of 0–5 words (crossing
/// SendRecord::kInlineCap), and a declared default that some payloads
/// match. Received messages fold into a digest that steers later draws,
/// idle() calls and terminations (some with an edge output), so any
/// delivery difference changes the run. The idle promise is kept: after
/// idle(), the hooks do nothing until the inbox is nonempty or the
/// active-neighbor count has dropped.
template <typename Ctx>
class RandomTraffic {
 public:
  explicit RandomTraffic(std::uint64_t seed) : seed_(seed) {}

  void on_send(Ctx& ctx) {
    if (asleep(ctx)) return;
    Rng rng = draw(ctx, 1);
    if (rng.flip(0.4)) {
      ctx.declare_default({static_cast<Value>(rng.next_below(2))},
                          static_cast<int>(rng.next_below(4)));
    }
    const auto nb = ctx.neighbors();
    const int ops = static_cast<int>(rng.next_below(4));
    for (int k = 0; k < ops; ++k) {
      const int channel = static_cast<int>(rng.next_below(4));
      const std::size_t len = rng.next_below(6);
      Value words[5];
      for (std::size_t i = 0; i < len; ++i) {
        words[i] = static_cast<Value>(rng.next_below(3));
      }
      if (nb.empty() || rng.flip(0.7)) {
        ctx.broadcast(words, len, channel);
      } else {
        ctx.send(nb[rng.next_below(nb.size())], words, len, channel);
      }
    }
  }

  void on_receive(Ctx& ctx) {
    if (ctx.inbox().empty() && asleep(ctx)) return;
    idle_view_ = kAwake;
    for (const Message& m : ctx.inbox()) {
      digest_ = digest_ * 1315423911u +
                static_cast<std::uint64_t>(ctx.neighbor_id(m.from));
      digest_ = digest_ * 31u + static_cast<std::uint64_t>(m.channel);
      for (const Value w : m.words) {
        digest_ = digest_ * 31u + static_cast<std::uint64_t>(w);
      }
      digest_ = digest_ * 31u + m.words.size();
    }
    Rng rng = draw(ctx, 2);
    const auto an = ctx.active_neighbors();
    if (ctx.round() >= 4 && rng.flip(0.25)) {
      ctx.set_output(static_cast<Value>(digest_ >> 1));
      if (!an.empty() && rng.flip(0.5)) {
        ctx.set_output_for(an[rng.next_below(an.size())],
                           static_cast<Value>(digest_ & 0xff));
      }
      ctx.terminate();
    } else if (rng.flip(0.15)) {
      ctx.idle();
      idle_view_ = an.size();
    }
  }

 private:
  static constexpr std::size_t kAwake = ~std::size_t{0};

  /// Still asleep: idle() was called and no neighbor has terminated since.
  bool asleep(const Ctx& ctx) {
    if (idle_view_ == ctx.active_neighbors().size()) return true;
    idle_view_ = kAwake;
    return false;
  }

  Rng draw(const Ctx& ctx, std::uint64_t salt) const {
    const auto id = static_cast<std::uint64_t>(ctx.id());
    const auto round = static_cast<std::uint64_t>(ctx.round());
    return Rng(seed_ ^ (id * 0x9e3779b97f4a7c15ULL) ^
               (round * 0xbf58476d1ce4e5b9ULL) ^
               (digest_ * 0x94d049bb133111ebULL) ^ salt);
  }

  std::uint64_t seed_;
  std::uint64_t digest_ = 1;
  std::size_t idle_view_ = kAwake;  // active-neighbor count at idle()
};

/// Hosts program template P on the engine (Base = NodeProgram, Ctx =
/// NodeContext) or on the model (ref::Program, ref::Context).
template <template <typename> class P, typename Base, typename Ctx>
class Hosted final : public Base {
 public:
  template <typename... Args>
  explicit Hosted(Args... args) : p_(args...) {}
  void on_send(Ctx& ctx) override { p_.on_send(ctx); }
  void on_receive(Ctx& ctx) override { p_.on_receive(ctx); }

 private:
  P<Ctx> p_;
};

template <template <typename> class P, typename... Args>
ProgramFactory engine_factory(Args... args) {
  return [args...](NodeId) {
    return std::make_unique<Hosted<P, NodeProgram, NodeContext>>(args...);
  };
}

template <template <typename> class P, typename... Args>
ref::Factory model_factory(Args... args) {
  return [args...](NodeId) {
    return std::make_unique<Hosted<P, ref::Program, ref::Context>>(args...);
  };
}

/// Walks a kPayloads transcript's messages and `want` in step: read in key
/// order, `want` is the transcript's message sequence (rounds ascending,
/// receivers ascending, each inbox in its order). Returns the first
/// (round, receiver) where they differ, or an empty string when they match.
inline std::string inbox_mismatch(const ref::Inboxes& want,
                                  const std::vector<std::uint8_t>& bytes) {
  auto it = want.begin();
  std::size_t k = 0;  // position in it->second
  const auto at = [](std::pair<int, NodeId> key) {
    return "round " + std::to_string(key.first) + " receiver " +
           std::to_string(key.second);
  };
  for (const TranscriptRound& r : decode_transcript(bytes).rounds) {
    for (const TranscriptMessage& m : r.messages) {
      const std::pair<int, NodeId> key{r.round, m.to};
      // Of two different keys, the smaller names an inbox that one side
      // lacks or ends early.
      if (it == want.end() || it->first != key) {
        return at(it == want.end() ? key : std::min(it->first, key));
      }
      const auto& [from, channel, words, suppressed] = it->second[k];
      if (from != m.from || channel != m.channel || words != m.words ||
          suppressed != m.suppressed) {
        return at(key);
      }
      if (++k == it->second.size()) {
        ++it;
        k = 0;
      }
    }
  }
  if (it != want.end()) return at(it->first);
  return {};
}

/// Everything in RunResult except the host-clock measurements (wall_ms and
/// phase_ns, explicitly excluded from the determinism contract) and
/// peak_arena_bytes (capacity growth may differ across thread counts; the
/// *contents* may not). The suppression split is compared exactly.
inline void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.termination_round, b.termination_round);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.edge_outputs, b.edge_outputs);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_words, b.total_words);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.words_sent, b.words_sent);
  EXPECT_EQ(a.messages_suppressed, b.messages_suppressed);
  EXPECT_EQ(a.words_suppressed, b.words_suppressed);
  EXPECT_EQ(a.max_message_words, b.max_message_words);
  EXPECT_EQ(a.congest_violations, b.congest_violations);
  EXPECT_EQ(a.deferred_messages, b.deferred_messages);
  EXPECT_EQ(a.deferred_words, b.deferred_words);
  EXPECT_EQ(a.link_backlog_peak_words, b.link_backlog_peak_words);
  EXPECT_EQ(a.rounds_with_backlog, b.rounds_with_backlog);
}

}  // namespace dgap
