#include "sim/epoch.hpp"

#include <utility>

#include "common/digest.hpp"
#include "common/require.hpp"
#include "predict/provider.hpp"

namespace dgap {

std::uint64_t epoch_report_checksum(const EpochReport& report) {
  Fnv1a f;
  for (const EpochRecord& e : report.epochs) {
    f.word(static_cast<std::uint64_t>(e.epoch));
    f.word(static_cast<std::uint64_t>(e.nodes));
    f.word(static_cast<std::uint64_t>(e.edges));
    f.word(static_cast<std::uint64_t>(e.eta));
    f.word(result_checksum(e.warm));
    f.word(result_checksum(e.control));
    f.bytes(e.warm_transcript);
  }
  return f.value();
}

EpochHarness::EpochHarness(EpochProblem problem, EpochConfig config)
    : problem_(std::move(problem)),
      config_(std::move(config)),
      runner_(BatchOptions{config_.workers}) {
  DGAP_REQUIRE(config_.epochs >= 1, "an epoch stream needs >= 1 epochs");
  DGAP_REQUIRE(problem_.factory && problem_.scratch != nullptr &&
                   problem_.eta && problem_.check,
               "epoch problem package is missing a required member");
  DGAP_REQUIRE(config_.options.num_threads == 1,
               "batch execution forces single-threaded engines; "
               "parallelism is config.workers");
  DGAP_REQUIRE(config_.options.trace_sink == nullptr,
               "the harness installs its own transcript writers");
}

EpochReport EpochHarness::run() {
  const ResultCache& cache = runner_.result_cache();
  const std::int64_t hits0 = cache.hits();
  const std::int64_t misses0 = cache.misses();
  // Providers are deterministic; the fixed seed keeps every execution
  // axis (workers, repeats) addressing the same cache slots.
  constexpr std::uint64_t kProviderSeed = 0;

  EpochReport report;
  Graph current = config_.base.build();
  // Epoch 0 has no history: the warm run falls back to the scratch
  // provider, exactly like the control.
  ProviderPtr warm_source = problem_.scratch;
  for (int k = 0; k < config_.epochs; ++k) {
    if (k > 0) {
      const EditBatch batch = config_.churn.generate(current, k);
      Graph next = apply_edits(current, batch);
      warm_source = warm_start_provider(std::move(current),
                                        report.epochs.back().warm.outputs);
      current = std::move(next);
    }
    Predictions warm_pred = provide_with_seed(*warm_source, current,
                                              problem_.kind, kProviderSeed);

    EpochRecord record;
    record.epoch = k;
    record.nodes = current.num_nodes();
    record.edges = current.num_edges();
    record.eta = problem_.eta(current, warm_pred);

    // The warm and control jobs differ only in their predictions and in
    // whether the run is recorded. Epoch 0 is spec-built, so its jobs are
    // keyed by the spec and their transcripts embed it.
    const auto add_job = [&](ProviderPtr provider, bool capture) {
      BatchJob job;
      if (k == 0) {
        job.spec = config_.base;
        job.use_spec = true;
      } else {
        job.graph = &current;
      }
      job.provider = std::move(provider);
      job.provider_kind = problem_.kind;
      job.provider_seed = kProviderSeed;
      job.factory = problem_.factory();
      job.options = config_.options;
      job.capture_transcript = capture;
      job.transcript_detail = config_.detail;
      job.transcript_label = config_.label + "_e" + std::to_string(k);
      job.algorithm_id = problem_.name;
      runner_.add(std::move(job));
    };
    add_job(literal_provider(std::move(warm_pred)),
            config_.capture_transcripts);
    add_job(problem_.scratch, /*capture=*/false);
    std::vector<BatchResult> results = runner_.run_all();
    DGAP_ASSERT(results[0].ok, "warm epoch run failed: " + results[0].error);
    record.warm = std::move(results[0].result);
    record.warm_transcript = std::move(results[0].transcript);
    record.warm_cache_hit = results[0].cache_hit;
    DGAP_ASSERT(results[1].ok,
                "control epoch run failed: " + results[1].error);
    record.control = std::move(results[1].result);
    record.control_cache_hit = results[1].cache_hit;

    const std::string warm_error = problem_.check(current, record.warm);
    DGAP_ASSERT(warm_error.empty(),
                "epoch " + std::to_string(k) +
                    " warm output invalid: " + warm_error);
    const std::string control_error = problem_.check(current, record.control);
    DGAP_ASSERT(control_error.empty(),
                "epoch " + std::to_string(k) +
                    " control output invalid: " + control_error);

    report.epochs.push_back(std::move(record));
  }

  report.cache_hits = cache.hits() - hits0;
  report.cache_misses = cache.misses() - misses0;
  return report;
}

// ---- Epoch-sequence container ---------------------------------------------

namespace {

constexpr std::uint8_t kMagic[4] = {'D', 'G', 'E', 'P'};

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint32_t u32() {
    DGAP_REQUIRE(pos_ + 4 <= bytes_.size(), "epoch sequence truncated");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    DGAP_REQUIRE(pos_ + 8 <= bytes_.size(), "epoch sequence truncated");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::vector<std::uint8_t> blob(std::uint64_t len) {
    // Not pos_ + len <= size: that sum wraps for a len near 2^64.
    DGAP_REQUIRE(len <= bytes_.size() - pos_, "epoch sequence truncated");
    std::vector<std::uint8_t> out(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  bytes_.begin() +
                                      static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return out;
  }

  std::size_t pos() const { return pos_; }
  std::size_t size() const { return bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

bool is_epoch_sequence(std::span<const std::uint8_t> bytes) {
  return bytes.size() >= 4 && bytes[0] == kMagic[0] && bytes[1] == kMagic[1] &&
         bytes[2] == kMagic[2] && bytes[3] == kMagic[3];
}

std::vector<std::uint8_t> encode_epoch_sequence(
    std::string_view label,
    const std::vector<std::vector<std::uint8_t>>& epoch_transcripts) {
  std::vector<std::uint8_t> out(kMagic, kMagic + 4);
  put_u32(out, kEpochSequenceVersion);
  put_u32(out, static_cast<std::uint32_t>(label.size()));
  out.insert(out.end(), label.begin(), label.end());
  put_u32(out, static_cast<std::uint32_t>(epoch_transcripts.size()));
  for (const auto& t : epoch_transcripts) {
    put_u64(out, static_cast<std::uint64_t>(t.size()));
    out.insert(out.end(), t.begin(), t.end());
  }
  put_u64(out, fnv1a_bytes(out));
  return out;
}

EpochSequence decode_epoch_sequence(std::span<const std::uint8_t> bytes) {
  DGAP_REQUIRE(is_epoch_sequence(bytes), "not an epoch sequence (bad magic)");
  DGAP_REQUIRE(bytes.size() >= 8 + 8, "epoch sequence truncated");
  const std::uint64_t body_len = bytes.size() - 8;
  Reader trailer(bytes.subspan(body_len));
  const std::uint64_t want = trailer.u64();
  const std::uint64_t got = fnv1a_bytes(bytes.first(body_len));
  DGAP_REQUIRE(want == got, "epoch sequence checksum mismatch");

  Reader r(bytes.first(body_len));
  r.u32();  // magic, already checked
  const std::uint32_t version = r.u32();
  DGAP_REQUIRE(version == kEpochSequenceVersion,
               "unknown epoch sequence version");
  EpochSequence seq;
  const std::uint32_t label_len = r.u32();
  const auto label_bytes = r.blob(label_len);
  seq.label.assign(label_bytes.begin(), label_bytes.end());
  // No reserve ahead of the entries: a corrupt count must fail as a
  // truncation, not as an allocation.
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t len = r.u64();
    seq.epochs.push_back(r.blob(len));
  }
  DGAP_REQUIRE(r.pos() == r.size(), "trailing bytes in epoch sequence");
  return seq;
}

std::vector<std::uint8_t> epoch_sequence_of(std::string_view label,
                                            const EpochReport& report) {
  std::vector<std::vector<std::uint8_t>> transcripts;
  transcripts.reserve(report.epochs.size());
  for (const EpochRecord& e : report.epochs) {
    DGAP_REQUIRE(!e.warm_transcript.empty(),
                 "epoch_sequence_of needs capture_transcripts on");
    transcripts.push_back(e.warm_transcript);
  }
  return encode_epoch_sequence(label, transcripts);
}

}  // namespace dgap
