// dgap_trace: record, verify, diff and inspect binary round transcripts.
//
//   dgap_trace list
//       List the canonical cases and their golden file names.
//   dgap_trace record <case>|all <dir>
//       Re-execute canonical case(s) and write <dir>/<case>.dgaptr.
//   dgap_trace verify <file>...
//       Re-record each transcript's canonical case (matched by label) and
//       compare the bytes; exits nonzero naming the first divergent round.
//       This is the CI golden-regression gate.
//   dgap_trace diff <a> <b>
//       First divergent (round, field) of two transcripts; exit 1 if they
//       differ, 0 if identical.
//   dgap_trace stats <file>...
//       Header, per-round message/termination profile, and totals.
//   dgap_trace profile <case>|all [threads]
//       Re-execute canonical case(s) with the phase profiler on
//       (EngineOptions::profile_phases) and print the per-stage wall-time
//       breakdown of the round pipeline. Host measurements — never part
//       of a transcript; see docs/MODEL.md, "Phase profiler".
//
// Transcripts are self-describing (GraphSpec + options in the header), so
// verify needs only the file and the case registry in tools/cases.cpp.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "cases.hpp"

namespace {

using namespace dgap;

int usage() {
  std::fprintf(stderr,
               "usage: dgap_trace list\n"
               "       dgap_trace record <case>|all <dir>\n"
               "       dgap_trace verify <file>...\n"
               "       dgap_trace diff <a> <b>\n"
               "       dgap_trace stats <file>...\n"
               "       dgap_trace profile <case>|all [threads]\n");
  return 2;
}

const char* detail_name(TraceDetail d) {
  switch (d) {
    case TraceDetail::kRounds: return "rounds";
    case TraceDetail::kPayloads: return "payloads";
  }
  return "?";
}

int cmd_list() {
  for (const CanonicalCase& c : canonical_cases()) {
    std::printf("%-22s %-26s %s\n", c.name.c_str(),
                golden_file_name(c).c_str(), c.description.c_str());
  }
  for (const EpochCase& c : epoch_cases()) {
    std::printf("%-22s %-26s %s\n", c.name.c_str(),
                golden_file_name(c).c_str(), c.description.c_str());
  }
  return 0;
}

int cmd_record(const std::string& which, const std::string& dir) {
  std::vector<const CanonicalCase*> selected;
  std::vector<const EpochCase*> selected_epochs;
  if (which == "all") {
    for (const CanonicalCase& c : canonical_cases()) selected.push_back(&c);
    for (const EpochCase& c : epoch_cases()) selected_epochs.push_back(&c);
  } else if (const CanonicalCase* c = find_canonical_case(which)) {
    selected.push_back(c);
  } else if (const EpochCase* e = find_epoch_case(which)) {
    selected_epochs.push_back(e);
  } else {
    std::fprintf(stderr, "dgap_trace: unknown case '%s' (try: list)\n",
                 which.c_str());
    return 2;
  }
  for (const CanonicalCase* c : selected) {
    const RecordedRun run = record_canonical_case(*c);
    const std::string path = dir + "/" + golden_file_name(*c);
    write_transcript_file(path, run.transcript);
    std::printf("recorded %-22s -> %s (%zu bytes, %d rounds%s)\n",
                c->name.c_str(), path.c_str(), run.transcript.size(),
                run.result.rounds, run.result.completed ? "" : ", cut");
  }
  for (const EpochCase* c : selected_epochs) {
    const std::vector<std::uint8_t> bytes = record_epoch_case(*c);
    const std::string path = dir + "/" + golden_file_name(*c);
    write_transcript_file(path, bytes);
    std::printf("recorded %-22s -> %s (%zu bytes, %d epochs)\n",
                c->name.c_str(), path.c_str(), bytes.size(),
                c->config.epochs);
  }
  return 0;
}

int cmd_verify(const std::vector<std::string>& files) {
  int failures = 0;
  for (const std::string& path : files) {
    try {
      const std::vector<std::uint8_t> bytes = read_transcript_file(path);
      if (is_epoch_sequence(bytes)) {
        const EpochSequence seq = decode_epoch_sequence(bytes);
        const EpochCase* c = find_epoch_case(seq.label);
        if (c == nullptr) {
          std::fprintf(stderr,
                       "FAIL %s: epoch sequence label '%s' is not an epoch "
                       "case\n",
                       path.c_str(), seq.label.c_str());
          ++failures;
          continue;
        }
        verify_epoch_case(*c, bytes);
        std::printf("OK   %s: %s, %zu epochs\n", path.c_str(),
                    c->name.c_str(), seq.epochs.size());
        continue;
      }
      const Transcript golden = decode_transcript(bytes);
      const CanonicalCase* c = find_canonical_case(golden.label);
      if (c == nullptr) {
        std::fprintf(stderr,
                     "FAIL %s: transcript label '%s' is not a canonical "
                     "case\n",
                     path.c_str(), golden.label.c_str());
        ++failures;
        continue;
      }
      const RunResult result = verify_canonical_case(*c, bytes);
      std::printf("OK   %s: %s, %d rounds, %lld messages\n", path.c_str(),
                  c->name.c_str(), result.rounds,
                  static_cast<long long>(result.total_messages));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(), e.what());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int cmd_diff(const std::string& a_path, const std::string& b_path) {
  const std::vector<std::uint8_t> a_bytes = read_transcript_file(a_path);
  const std::vector<std::uint8_t> b_bytes = read_transcript_file(b_path);
  if (is_epoch_sequence(a_bytes) || is_epoch_sequence(b_bytes)) {
    if (!is_epoch_sequence(a_bytes) || !is_epoch_sequence(b_bytes)) {
      std::printf("one file is an epoch sequence, the other a transcript\n");
      return 1;
    }
    const EpochSequence a = decode_epoch_sequence(a_bytes);
    const EpochSequence b = decode_epoch_sequence(b_bytes);
    const std::size_t common = std::min(a.epochs.size(), b.epochs.size());
    for (std::size_t k = 0; k < common; ++k) {
      if (a.epochs[k] == b.epochs[k]) continue;
      const Transcript ta = decode_transcript(a.epochs[k]);
      const Transcript tb = decode_transcript(b.epochs[k]);
      if (const auto d = diff_transcripts(ta, tb)) {
        std::printf("epoch %zu diverges at round %d: %s\n", k, d->round,
                    d->field.c_str());
        return 1;
      }
      std::printf("epoch %zu transcripts differ only in encoding\n", k);
      return 1;
    }
    if (a.epochs.size() != b.epochs.size()) {
      std::printf("epoch counts differ: %zu vs %zu\n", a.epochs.size(),
                  b.epochs.size());
      return 1;
    }
    std::printf("epoch sequences are identical (%zu epochs)\n",
                a.epochs.size());
    return 0;
  }
  const Transcript a = decode_transcript(a_bytes);
  const Transcript b = decode_transcript(b_bytes);
  if (const auto d = diff_transcripts(a, b)) {
    std::printf("transcripts diverge at round %d: %s\n", d->round,
                d->field.c_str());
    return 1;
  }
  std::printf("transcripts are identical (%d rounds)\n", a.summary.rounds);
  return 0;
}

int cmd_stats(const std::vector<std::string>& files) {
  for (const std::string& path : files) {
    const std::vector<std::uint8_t> bytes = read_transcript_file(path);
    if (is_epoch_sequence(bytes)) {
      const EpochSequence seq = decode_epoch_sequence(bytes);
      std::printf("%s\n", path.c_str());
      std::printf("  label        %s\n", seq.label.c_str());
      std::printf("  epochs       %zu\n", seq.epochs.size());
      for (std::size_t k = 0; k < seq.epochs.size(); ++k) {
        const Transcript t = decode_transcript(seq.epochs[k]);
        std::printf("  epoch %-4zu  %s: n %-5lld %d rounds, %lld messages%s\n",
                    k, t.label.c_str(), static_cast<long long>(t.n),
                    t.summary.rounds,
                    static_cast<long long>(t.summary.total_messages),
                    t.summary.completed ? "" : " (cut)");
      }
      continue;
    }
    const Transcript t = decode_transcript(bytes);
    std::printf("%s\n", path.c_str());
    std::printf("  label        %s\n", t.label.c_str());
    std::printf("  detail       %s\n", detail_name(t.detail));
    if (t.spec) {
      std::printf("  instance     %s (n = %lld)\n", t.spec->name().c_str(),
                  static_cast<long long>(t.n));
    } else {
      std::printf("  instance     ad hoc (n = %lld)\n",
                  static_cast<long long>(t.n));
    }
    std::printf("  options      max_rounds %d, word limit %d, policy %d\n",
                t.max_rounds, t.congest_word_limit,
                static_cast<int>(t.congest_policy));
    std::printf("  run          %s, %d rounds, %lld messages, %lld words\n",
                t.summary.completed ? "completed" : "cut",
                t.summary.rounds,
                static_cast<long long>(t.summary.total_messages),
                static_cast<long long>(t.summary.total_words));
    // Per-round profile, straight from the decoded rounds. The suppressed
    // split (message-reduction pass, sim/compile.hpp) answers wire-cost
    // questions without a rerun; columns appear only when the file
    // actually records suppressed deliveries.
    std::int64_t sup_messages = 0, sup_words = 0;
    for (const TranscriptRound& round : t.rounds) {
      std::int64_t words = 0, round_sup = 0, round_sup_words = 0;
      for (const TranscriptMessage& m : round.messages) {
        const auto len = static_cast<std::int64_t>(m.words.size());
        words += len;
        if (m.suppressed) {
          ++round_sup;
          round_sup_words += len;
        }
      }
      sup_messages += round_sup;
      sup_words += round_sup_words;
      std::printf("  round %-4d   active %-5lld messages %-5zu words %-6lld "
                  "terminated %zu",
                  round.round, static_cast<long long>(round.active),
                  round.messages.size(), static_cast<long long>(words),
                  round.terminations.size());
      if (round_sup > 0) {
        std::printf("  sent %lld/%lld suppressed %lld/%lld",
                    static_cast<long long>(
                        static_cast<std::int64_t>(round.messages.size()) -
                        round_sup),
                    static_cast<long long>(words - round_sup_words),
                    static_cast<long long>(round_sup),
                    static_cast<long long>(round_sup_words));
      }
      std::printf("\n");
    }
    if (sup_messages > 0) {
      std::printf("  compiled     %lld messages / %lld words suppressed off "
                  "the wire (totals above are nominal: sent + suppressed)\n",
                  static_cast<long long>(sup_messages),
                  static_cast<long long>(sup_words));
    }
  }
  return 0;
}

int cmd_profile(const std::string& which, int threads) {
  std::vector<const CanonicalCase*> selected;
  if (which == "all") {
    for (const CanonicalCase& c : canonical_cases()) selected.push_back(&c);
  } else if (const CanonicalCase* c = find_canonical_case(which)) {
    selected.push_back(c);
  } else {
    std::fprintf(stderr, "dgap_trace: unknown case '%s' (try: list)\n",
                 which.c_str());
    return 2;
  }
  std::printf("%-22s %8s %9s %9s %9s %9s %9s %9s %9s\n", "case", "rounds",
              "wall_ms", "send_ms", "scat_ms", "link_ms", "trace_ms",
              "recv_ms", "mut_ms");
  for (const CanonicalCase* c : selected) {
    const Graph g = c->spec.build();
    const Predictions predictions =
        c->provider ? provide_with_seed(*c->provider, g, c->kind,
                                        c->prediction_seed)
                    : Predictions{};
    EngineOptions opt = c->options;
    opt.profile_phases = true;
    if (threads > 0) opt.num_threads = threads;
    const RunResult r = run_with_predictions(g, predictions, c->factory(), opt);
    const auto ms = [](std::int64_t ns) {
      return static_cast<double>(ns) / 1e6;
    };
    std::printf("%-22s %8d %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n",
                c->name.c_str(), r.rounds, r.wall_ms, ms(r.phase_ns.send_ns),
                ms(r.phase_ns.scatter_ns), ms(r.phase_ns.link_ns),
                ms(r.phase_ns.trace_ns), ms(r.phase_ns.receive_ns),
                ms(r.phase_ns.mutate_ns));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.empty()) return usage();
    const std::string& cmd = args[0];
    if (cmd == "list" && args.size() == 1) return cmd_list();
    if (cmd == "record" && args.size() == 3) return cmd_record(args[1], args[2]);
    if (cmd == "verify" && args.size() >= 2) {
      return cmd_verify({args.begin() + 1, args.end()});
    }
    if (cmd == "diff" && args.size() == 3) return cmd_diff(args[1], args[2]);
    if (cmd == "stats" && args.size() >= 2) {
      return cmd_stats({args.begin() + 1, args.end()});
    }
    if (cmd == "profile" && (args.size() == 2 || args.size() == 3)) {
      return cmd_profile(args[1], args.size() == 3 ? std::stoi(args[2]) : 0);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dgap_trace: %s\n", e.what());
    return 1;
  }
}
