#include "cases.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "mis/congest_global.hpp"
#include "predict/provider.hpp"
#include "random/luby.hpp"
#include "templates/epoch_problems.hpp"
#include "templates/mis_with_predictions.hpp"

namespace dgap {

const std::vector<CanonicalCase>& canonical_cases() {
  static const std::vector<CanonicalCase> cases = [] {
    std::vector<CanonicalCase> out;

    // 1. The engine fast path: randomized Luby MIS on a sparse G(n, p).
    {
      CanonicalCase c;
      c.name = "luby_gnp256";
      c.description = "Luby MIS on gnp(256, p=0.02, seed 2024), fast path";
      c.spec = GraphSpec::gnp(256, 0.02, 2024);
      c.factory = [] { return luby_mis_algorithm(42); };
      out.push_back(std::move(c));
    }

    // 2. The enforced link layer: CONGEST global MIS under a 1-word
    // per-edge budget with kDefer queueing — transcripts record effective
    // arrival rounds, so the whole deferral schedule is pinned.
    {
      CanonicalCase c;
      c.name = "congest_defer_tree12";
      c.description =
          "CONGEST global MIS on random_tree(12, seed 7), kDefer budget 1";
      c.spec = GraphSpec::random_tree(12, 7);
      c.options.congest_word_limit = 1;
      c.options.congest_policy = CongestPolicy::kDefer;
      c.factory = [] { return congest_global_mis_algorithm(); };
      out.push_back(std::move(c));
    }

    // 3. A composed prediction template cut mid-run (completed = false):
    // pins the lockstep stage schedule, the prediction-dependent traffic,
    // and the incomplete-run trailer path.
    {
      CanonicalCase c;
      c.name = "linial_grid_cut3";
      c.description =
          "MIS-with-predictions (parallel Linial) on grid(6, 5), 3 flipped "
          "bits, cut at round 3";
      c.spec = GraphSpec::grid(6, 5);
      c.options.max_rounds = 3;
      // Same bytes as the pre-provider recipe: one Rng(913) stream,
      // correct MIS first, then 3 flips.
      c.provider = perturbed_provider(3);
      c.kind = ProblemKind::kMis;
      c.prediction_seed = 913;
      c.factory = [] { return mis_parallel_linial(); };
      out.push_back(std::move(c));
    }

    return out;
  }();
  return cases;
}

const CanonicalCase* find_canonical_case(const std::string& name) {
  for (const CanonicalCase& c : canonical_cases()) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

RecordedRun record_canonical_case(const CanonicalCase& c, TraceDetail detail) {
  const Graph g = c.spec.build();
  const Predictions predictions =
      c.provider ? provide_with_seed(*c.provider, g, c.kind, c.prediction_seed)
                 : Predictions{};
  return record_run(g, predictions, c.factory(), c.options, detail, c.name,
                    c.spec);
}

RunResult verify_canonical_case(const CanonicalCase& c,
                                std::span<const std::uint8_t> golden) {
  const Transcript want = decode_transcript(golden);
  DGAP_REQUIRE(want.label == c.name,
               "transcript '" + want.label + "' is not case '" + c.name + "'");
  RecordedRun run = record_canonical_case(c, want.detail);
  if (!std::ranges::equal(run.transcript, golden)) {
    // Diverged: name the first differing round and field.
    const auto d = diff_transcripts(want, decode_transcript(run.transcript));
    DGAP_ASSERT(false, "case '" + c.name + "' " +
                           (d ? "diverges at round " +
                                    std::to_string(d->round) + ": " + d->field
                              : "transcripts differ only in encoding"));
  }
  return run.result;
}

std::string golden_file_name(const CanonicalCase& c) {
  return c.name + ".dgaptr";
}

// ---- Epoch-sequence cases ---------------------------------------------------

const std::vector<EpochCase>& epoch_cases() {
  static const std::vector<EpochCase> cases = [] {
    std::vector<EpochCase> out;

    // 4. The serving pipeline end-to-end: MIS warm-started across five
    // epochs of mixed node/edge churn on a sparse G(n, p). Pins the churn
    // generator, apply_edits, the warm-start adapter, and every epoch's
    // full round-by-round behavior in one artifact.
    {
      EpochCase c;
      c.name = "epochs_mis_gnp48";
      c.description =
          "MIS (simple greedy) over 5 churn epochs of gnp(48, p=0.08, "
          "seed 11)";
      c.problem = &epoch_mis;
      c.config.base = GraphSpec::gnp(48, 0.08, 11);
      c.config.churn.seed = 301;
      c.config.churn.edge_remove_frac = 0.06;
      c.config.churn.edge_add_frac = 0.06;
      c.config.churn.node_remove_frac = 0.04;
      c.config.churn.node_add_frac = 0.04;
      c.config.epochs = 5;
      out.push_back(std::move(c));
    }

    return out;
  }();
  return cases;
}

const EpochCase* find_epoch_case(const std::string& name) {
  for (const EpochCase& c : epoch_cases()) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::vector<std::uint8_t> record_epoch_case(const EpochCase& c) {
  EpochConfig config = c.config;
  config.label = c.name;
  config.capture_transcripts = true;
  config.detail = TraceDetail::kPayloads;
  EpochHarness harness(c.problem(), config);
  return epoch_sequence_of(c.name, harness.run());
}

void verify_epoch_case(const EpochCase& c,
                       std::span<const std::uint8_t> golden) {
  const EpochSequence want = decode_epoch_sequence(golden);
  DGAP_REQUIRE(want.label == c.name, "epoch sequence '" + want.label +
                                         "' is not case '" + c.name + "'");
  const std::vector<std::uint8_t> bytes = record_epoch_case(c);
  if (bytes.size() == golden.size() &&
      std::equal(bytes.begin(), bytes.end(), golden.begin())) {
    return;
  }
  // Diverged: decode both and name the first differing epoch and round.
  const EpochSequence got = decode_epoch_sequence(bytes);
  const std::size_t common = std::min(want.epochs.size(), got.epochs.size());
  for (std::size_t k = 0; k < common; ++k) {
    if (want.epochs[k] == got.epochs[k]) continue;
    const Transcript a = decode_transcript(want.epochs[k]);
    const Transcript b = decode_transcript(got.epochs[k]);
    if (const auto d = diff_transcripts(a, b)) {
      DGAP_ASSERT(false, "epoch " + std::to_string(k) +
                             " diverges at round " + std::to_string(d->round) +
                             ": " + d->field);
    }
    DGAP_ASSERT(false, "epoch " + std::to_string(k) +
                           " transcripts differ only in encoding");
  }
  DGAP_ASSERT(false, "epoch count differs: golden " +
                         std::to_string(want.epochs.size()) + ", live " +
                         std::to_string(got.epochs.size()));
}

std::string golden_file_name(const EpochCase& c) { return c.name + ".dgaptr"; }

}  // namespace dgap
