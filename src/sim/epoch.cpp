#include "sim/epoch.hpp"

#include <utility>

#include "common/digest.hpp"
#include "common/require.hpp"
#include "predict/provider.hpp"
#include "sim/transcript.hpp"

namespace dgap {

double amortized_warm_rounds(const EpochReport& report) {
  if (report.epochs.empty()) return 0;
  double total = 0;
  for (const EpochRecord& e : report.epochs) total += e.warm.rounds;
  return total / static_cast<double>(report.epochs.size());
}

double amortized_control_rounds(const EpochReport& report) {
  if (report.epochs.empty()) return 0;
  double total = 0;
  for (const EpochRecord& e : report.epochs) total += e.control.rounds;
  return total / static_cast<double>(report.epochs.size());
}

double amortized_warm_messages(const EpochReport& report) {
  if (report.epochs.empty()) return 0;
  double total = 0;
  for (const EpochRecord& e : report.epochs) {
    total += static_cast<double>(e.warm.total_messages);
  }
  return total / static_cast<double>(report.epochs.size());
}

double amortized_control_messages(const EpochReport& report) {
  if (report.epochs.empty()) return 0;
  double total = 0;
  for (const EpochRecord& e : report.epochs) {
    total += static_cast<double>(e.control.total_messages);
  }
  return total / static_cast<double>(report.epochs.size());
}

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
    : problem_(std::move(problem)), config_(std::move(config)) {
  DGAP_REQUIRE(config_.epochs >= 1, "an epoch stream needs >= 1 epochs");
  DGAP_REQUIRE(problem_.factory && problem_.scratch != nullptr &&
                   problem_.eta && problem_.check,
               "epoch problem package is missing a required member");
  DGAP_REQUIRE(config_.workers >= 0, "workers must be >= 0");
  DGAP_REQUIRE(config_.workers == 0 || config_.options.num_threads == 1,
               "batch execution forces single-threaded engines; use "
               "workers == 0 to honor options.num_threads");
  DGAP_REQUIRE(config_.options.trace_sink == nullptr,
               "the harness installs its own transcript writers");
  if (config_.workers >= 1) {
    runner_ = std::make_unique<BatchRunner>(BatchOptions{config_.workers});
  } else {
    own_cache_ = std::make_unique<ResultCache>();
  }
}

EpochHarness::~EpochHarness() = default;

ResultCache& EpochHarness::result_cache() {
  return runner_ ? runner_->result_cache() : *own_cache_;
}

EpochReport EpochHarness::run() {
  const std::string algorithm_id =
      config_.use_result_cache ? problem_.name : std::string{};
  ResultCache& cache = result_cache();
  const std::int64_t hits0 = cache.hits();
  const std::int64_t misses0 = cache.misses();

  EpochReport report;
  Graph current = config_.base.build();
  Graph prev_graph;
  std::vector<Value> prev_outputs;
  // Providers are deterministic; the fixed seed keeps every execution
  // axis (workers, repeats) addressing the same cache slots.
  constexpr std::uint64_t kProviderSeed = 0;

  // Runs one provider-sourced job on the inline path: probe the cache by
  // the provider's slot digest, and only on a miss materialize the
  // prediction and execute (honoring options.num_threads, reusing the
  // harness scratch), then fill.
  auto run_inline = [&](const Graph& g, const PredictionProvider& provider,
                        bool capture, const std::string& label,
                        std::optional<GraphSpec> spec,
                        std::uint64_t instance_digest, RunResult& out,
                        std::vector<std::uint8_t>& transcript_out,
                        bool& hit_out) {
    const bool cacheable = !algorithm_id.empty();
    std::uint64_t key = 0;
    if (cacheable) {
      key = result_cache_key(
          instance_digest, algorithm_id,
          provider_slot_digest(provider, problem_.kind, kProviderSeed),
          options_digest(config_.options), capture, config_.detail);
      if (auto entry = own_cache_->get(key)) {
        out = entry->result;
        transcript_out = entry->transcript;
        hit_out = true;
        return;
      }
    }
    const Predictions pred =
        provide_with_seed(provider, g, problem_.kind, kProviderSeed);
    EngineOptions options = config_.options;
    std::unique_ptr<TranscriptWriter> writer;
    if (capture) {
      writer = std::make_unique<TranscriptWriter>(config_.detail, label,
                                                  std::move(spec));
      options.trace_sink = writer.get();
    }
    Engine engine(g, pred, problem_.factory(), options,
                  /*shared_pool=*/nullptr, &scratch_);
    out = engine.run();
    if (writer) transcript_out = writer->take_bytes();
    hit_out = false;
    if (cacheable) own_cache_->put(key, out, transcript_out);
  };

  for (int k = 0; k < config_.epochs; ++k) {
    if (k > 0) {
      const EditBatch batch = config_.churn.generate(current, k);
      Graph next = apply_edits(current, batch);
      prev_graph = std::move(current);
      current = std::move(next);
    }
    const bool spec_built = (k == 0);
    // Epoch 0 has no history: the warm run falls back to the scratch
    // provider, exactly like the control.
    const ProviderPtr warm_provider =
        spec_built ? problem_.scratch
                   : warm_start_provider(prev_graph, prev_outputs);
    const Predictions warm_pred = provide_with_seed(
        *warm_provider, current, problem_.kind, kProviderSeed);
    const std::string label =
        config_.label + "_e" + std::to_string(k);

    EpochRecord record;
    record.epoch = k;
    record.nodes = current.num_nodes();
    record.edges = current.num_edges();
    record.eta = problem_.eta(current, warm_pred);

    if (runner_) {
      BatchJob warm_job;
      if (spec_built) {
        warm_job.spec = config_.base;
        warm_job.use_spec = true;
      } else {
        warm_job.graph = &current;
      }
      warm_job.provider = warm_provider;
      warm_job.provider_kind = problem_.kind;
      warm_job.provider_seed = kProviderSeed;
      warm_job.factory = problem_.factory();
      warm_job.options = config_.options;
      warm_job.capture_transcript = config_.capture_transcripts;
      warm_job.transcript_detail = config_.detail;
      warm_job.transcript_label = label;
      warm_job.algorithm_id = algorithm_id;
      runner_->add(std::move(warm_job));
      BatchJob control_job;
      if (spec_built) {
        control_job.spec = config_.base;
        control_job.use_spec = true;
      } else {
        control_job.graph = &current;
      }
      control_job.provider = problem_.scratch;
      control_job.provider_kind = problem_.kind;
      control_job.provider_seed = kProviderSeed;
      control_job.factory = problem_.factory();
      control_job.options = config_.options;
      control_job.algorithm_id = algorithm_id;
      runner_->add(std::move(control_job));
      std::vector<BatchResult> results = runner_->run_all();
      DGAP_ASSERT(results[0].ok, "warm epoch run failed: " + results[0].error);
      record.warm = std::move(results[0].result);
      record.warm_transcript = std::move(results[0].transcript);
      record.warm_cache_hit = results[0].cache_hit;
      DGAP_ASSERT(results[1].ok,
                  "control epoch run failed: " + results[1].error);
      record.control = std::move(results[1].result);
      record.control_cache_hit = results[1].cache_hit;
    } else {
      const std::uint64_t instance = spec_built ? spec_digest(config_.base)
                                                : graph_digest(current);
      run_inline(current, *warm_provider, config_.capture_transcripts, label,
                 spec_built ? std::optional<GraphSpec>(config_.base)
                            : std::nullopt,
                 instance, record.warm, record.warm_transcript,
                 record.warm_cache_hit);
      std::vector<std::uint8_t> unused;
      run_inline(current, *problem_.scratch, /*capture=*/false, label,
                 std::nullopt, instance, record.control, unused,
                 record.control_cache_hit);
    }

    const std::string warm_error = problem_.check(current, record.warm);
    DGAP_ASSERT(warm_error.empty(),
                "epoch " + std::to_string(k) +
                    " warm output invalid: " + warm_error);
    const std::string control_error = problem_.check(current, record.control);
    DGAP_ASSERT(control_error.empty(),
                "epoch " + std::to_string(k) +
                    " control output invalid: " + control_error);

    prev_outputs = record.warm.outputs;
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
    DGAP_REQUIRE(pos_ + len <= bytes_.size(), "epoch sequence truncated");
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
  const std::uint32_t count = r.u32();
  seq.epochs.reserve(count);
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
