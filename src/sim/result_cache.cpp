#include "sim/result_cache.hpp"

#include <bit>

#include "common/require.hpp"

namespace dgap {

namespace {

// Domain tags (ASCII) of the digests that fill one key slot side by side,
// so a spec key and a structural key, or a provider slot and a raw
// predictions digest, never collide by construction.
constexpr std::uint64_t kGraphDomain = 0x4752415048ULL;  // "GRAPH"
constexpr std::uint64_t kSpecDomain = 0x53504543ULL;     // "SPEC"
constexpr std::uint64_t kSlotDomain = 0x534C4F54ULL;     // "SLOT"

std::uint64_t word_of(std::int64_t v) { return static_cast<std::uint64_t>(v); }

// Every deterministic field of a RunResult, in one fixed order: the single
// list both result_checksum (FNV-1a, pinned) and the cache guard
// (WordDigest) walk. Integers are sign-extended to 64-bit words.
template <class Hasher>
void walk_result(const RunResult& r, Hasher& h) {
  h.word(r.completed ? 1 : 0);
  h.word(word_of(r.rounds));
  for (int t : r.termination_round) h.word(word_of(t));
  for (Value v : r.outputs) h.word(word_of(v));
  for (const auto& edges : r.edge_outputs) {
    h.word(edges.size());
    for (const auto& [key, v] : edges) {
      h.word(word_of(key));
      h.word(word_of(v));
    }
  }
  h.word(word_of(r.total_messages));
  h.word(word_of(r.total_words));
  h.word(word_of(r.max_message_words));
  h.word(word_of(r.congest_violations));
  h.word(word_of(r.deferred_messages));
  h.word(word_of(r.deferred_words));
  // Two zero words where the retired loss-policy counters were hashed, so
  // every result_checksum pinned before their removal stays valid.
  h.word(0);
  h.word(0);
  h.word(word_of(r.link_backlog_peak_words));
  h.word(word_of(r.rounds_with_backlog));
}

}  // namespace

std::uint64_t result_checksum(const RunResult& result) {
  Fnv1a f;
  walk_result(result, f);
  return f.value();
}

std::uint64_t results_checksum(std::span<const RunResult> results) {
  Fnv1a f;
  for (const RunResult& r : results) f.word(result_checksum(r));
  return f.value();
}

std::uint64_t predictions_digest(const Predictions& pred) {
  Fnv1a f;
  f.word(pred.node_values().size());
  for (Value v : pred.node_values()) f.word(word_of(v));
  f.word(pred.edge_values().size());
  for (const auto& row : pred.edge_values()) {
    f.word(row.size());
    for (Value v : row) f.word(word_of(v));
  }
  return f.value();
}

std::uint64_t graph_digest(const Graph& g) {
  WordDigest d(kGraphDomain);
  d.word(word_of(g.num_nodes()));
  d.word(word_of(g.id_bound()));
  d.array(g.ids());
  d.array(g.offsets());
  d.array(g.adjacency());
  return d.value();
}

std::uint64_t spec_digest(const GraphSpec& spec) {
  WordDigest d(kSpecDomain);
  d.word(word_of(static_cast<int>(spec.family)));
  d.word(word_of(spec.a));
  d.word(word_of(spec.b));
  d.word(std::bit_cast<std::uint64_t>(spec.p));
  d.word(spec.seed);
  d.word(word_of(static_cast<int>(spec.ids)));
  return d.value();
}

std::uint64_t provider_slot_digest(const PredictionProvider& provider,
                                   ProblemKind kind, std::uint64_t seed) {
  WordDigest d(kSlotDomain);
  d.word(provider.digest());
  d.word(word_of(static_cast<int>(kind)));
  d.word(seed);
  return d.value();
}

std::uint64_t options_digest(const EngineOptions& options) {
  WordDigest d;
  d.word(word_of(options.max_rounds));
  d.word(word_of(options.congest_word_limit));
  d.word(word_of(static_cast<int>(options.congest_policy)));
  d.word(options.compile.cache_resends ? 1 : 0);
  d.word(options.compile.decode_defaults ? 1 : 0);
  return d.value();
}

std::uint64_t result_cache_key(std::uint64_t instance_digest,
                               std::string_view algorithm_id,
                               std::uint64_t predictions_digest,
                               std::uint64_t options_digest, bool capture,
                               TraceDetail detail) {
  WordDigest d;
  d.word(instance_digest);
  d.word(algorithm_id.size());
  d.array(algorithm_id);
  d.word(predictions_digest);
  d.word(options_digest);
  d.word(capture ? 1 : 0);
  d.word(word_of(static_cast<int>(detail)));
  return d.value();
}

std::uint64_t ResultCache::guard_of(const Entry& e) {
  WordDigest d;
  walk_result(e.result, d);
  d.array(e.transcript);
  return d.value();
}

std::shared_ptr<const ResultCache::Entry> ResultCache::get(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  DGAP_ASSERT(guard_of(*it->second.entry) == it->second.guard,
              "result cache entry was mutated after insertion");
  ++hits_;
  return it->second.entry;
}

void ResultCache::put(std::uint64_t key, RunResult result,
                      std::vector<std::uint8_t> transcript) {
  auto entry = std::make_shared<Entry>();
  entry->result = std::move(result);
  entry->transcript = std::move(transcript);
  const std::uint64_t guard = guard_of(*entry);
  std::lock_guard<std::mutex> lock(mu_);
  entries_.emplace(key, Stored{std::move(entry), guard});
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::int64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::int64_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

void ResultCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
}

void ResultCache::poison_for_test(
    std::uint64_t key, const std::function<void(Entry&)>& mutate) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  DGAP_REQUIRE(it != entries_.end(), "poison_for_test: key not present");
  mutate(*it->second.entry);
}

}  // namespace dgap
