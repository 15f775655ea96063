#include "sim/transcript.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/digest.hpp"
#include "common/require.hpp"

namespace dgap {

namespace {

// ---------------------------------------------------------------------------
// Byte-level primitives. Unsigned integers are LEB128 varints, signed ones
// zigzag-coded first; checksums (and double bits) are fixed 64-bit
// little-endian so their width never depends on their value.
// ---------------------------------------------------------------------------

constexpr std::uint8_t kMagic[4] = {'D', 'G', 'T', 'R'};

enum Tag : std::uint8_t {
  kTagRound = 1,
  kTagMessage = 2,
  kTagTermination = 3,
  kTagRoundEnd = 4,
  kTagRunEnd = 5,
};

std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t zigzag_decode(std::uint64_t u) {
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_zigzag(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_varint(out, zigzag_encode(v));
}

void put_fixed64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_varint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

/// Bounds-checked cursor over a serialized transcript. Every read that
/// would cross the end throws DGAP_REQUIRE — truncated or corrupted input
/// fails cleanly, never reads out of bounds.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::size_t pos() const { return pos_; }
  bool eof() const { return pos_ >= bytes_.size(); }
  const std::uint8_t* base() const { return bytes_.data(); }

  std::uint8_t byte() {
    DGAP_REQUIRE(pos_ < bytes_.size(), "transcript truncated");
    return bytes_[pos_++];
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = byte();
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) {
        DGAP_REQUIRE(shift < 63 || (b & 0x7f) <= 1,
                     "transcript varint overflows 64 bits");
        return v;
      }
    }
    DGAP_REQUIRE(false, "transcript varint too long");
    return 0;  // unreachable
  }

  std::int64_t zigzag() { return zigzag_decode(varint()); }

  std::uint64_t fixed64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(byte()) << (8 * i);
    }
    return v;
  }

  std::string str() {
    const std::uint64_t len = varint();
    DGAP_REQUIRE(len <= bytes_.size() - pos_, "transcript string truncated");
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_),
                  static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return s;
  }

  /// A varint that must fit a nonnegative 32-bit quantity (node ids,
  /// counts, round numbers).
  std::int64_t small(const char* what) {
    const std::uint64_t v = varint();
    DGAP_REQUIRE(v <= 0x7fffffffULL,
                 std::string("transcript field out of range: ") + what);
    return static_cast<std::int64_t>(v);
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// TranscriptWriter
// ---------------------------------------------------------------------------

TranscriptWriter::TranscriptWriter(TraceDetail detail, std::string label,
                                   std::optional<GraphSpec> spec)
    : detail_(detail), label_(std::move(label)), spec_(std::move(spec)) {}

void TranscriptWriter::fold_hashes() {
  const std::span<const std::uint8_t> pending =
      std::span<const std::uint8_t>(out_).subspan(hashed_);
  if (in_round_) {
    // Bytes ahead of the open block (header, the last round's end tag) go
    // to the file hash only; the block's bytes feed both hashes at once.
    const std::size_t prefix = round_start_ - hashed_;
    file_hash_ = fnv1a_bytes(pending.first(prefix), file_hash_);
    fnv1a_both(pending.subspan(prefix), file_hash_, round_hash_);
  } else {
    file_hash_ = fnv1a_bytes(pending, file_hash_);
  }
  hashed_ = out_.size();
}

void TranscriptWriter::on_run_begin(NodeId n, const EngineOptions& options) {
  DGAP_REQUIRE(!begun_, "a TranscriptWriter records exactly one run");
  DGAP_REQUIRE(detail_ == TraceDetail::kRounds ||
                   detail_ == TraceDetail::kPayloads,
               "trace detail code other than 0 or 2");
  DGAP_REQUIRE(options.congest_policy <= CongestPolicy::kDefer,
               "congest policy code above kDefer");
  begun_ = true;
  out_.reserve(256);
  for (const std::uint8_t b : kMagic) out_.push_back(b);
  put_varint(out_, kTranscriptVersion);
  put_varint(out_, static_cast<std::uint64_t>(detail_));
  put_string(out_, label_);
  out_.push_back(spec_.has_value() ? 1 : 0);
  if (spec_) {
    put_varint(out_, static_cast<std::uint64_t>(spec_->family));
    put_zigzag(out_, spec_->a);
    put_zigzag(out_, spec_->b);
    put_fixed64(out_, std::bit_cast<std::uint64_t>(spec_->p));
    put_varint(out_, spec_->seed);
    put_varint(out_, static_cast<std::uint64_t>(spec_->ids));
  }
  put_varint(out_, static_cast<std::uint64_t>(n));
  // The options echo deliberately stops at the semantically meaningful
  // knobs; num_threads and sinks describe the execution, not the run, and
  // must not break transcript equality across schedulers.
  put_zigzag(out_, options.max_rounds);
  put_zigzag(out_, options.congest_word_limit);
  put_varint(out_, static_cast<std::uint64_t>(options.congest_policy));
}

void TranscriptWriter::close_round() {
  if (!in_round_) return;
  fold_hashes();
  out_.push_back(kTagRoundEnd);
  put_fixed64(out_, round_hash_);
  in_round_ = false;
}

void TranscriptWriter::on_round_begin(int round, NodeId active) {
  DGAP_REQUIRE(begun_ && !finished_,
               "round event outside an open recording");
  close_round();
  round_hash_ = kFnvBasis;
  round_start_ = out_.size();
  out_.push_back(kTagRound);
  put_varint(out_, static_cast<std::uint64_t>(round));
  put_varint(out_, static_cast<std::uint64_t>(active));
  in_round_ = true;
  last_to_ = 0;
}

void TranscriptWriter::on_message(const TraceMessage& m) {
  DGAP_REQUIRE(in_round_ && detail_ == TraceDetail::kPayloads,
               "message event outside an open round");
  DGAP_REQUIRE(m.to >= last_to_, "a round's receivers must not descend");
  last_to_ = m.to;
  out_.push_back(kTagMessage);
  put_varint(out_, static_cast<std::uint64_t>(m.from));
  put_varint(out_, static_cast<std::uint64_t>(m.to));
  put_zigzag(out_, m.channel);
  // Per-message flags byte: bit 1 suppressed; bit 0 is unassigned.
  out_.push_back(m.suppressed ? 2 : 0);
  put_varint(out_, m.words.size());
  for (const Value w : m.words) put_zigzag(out_, w);
}

void TranscriptWriter::on_termination(
    int /*round*/, NodeId node, Value output,
    std::span<const std::pair<NodeId, Value>> edge_outputs) {
  DGAP_REQUIRE(in_round_, "termination event outside an open round");
  out_.push_back(kTagTermination);
  put_varint(out_, static_cast<std::uint64_t>(node));
  put_zigzag(out_, output);
  put_varint(out_, edge_outputs.size());
  for (const auto& [key, v] : edge_outputs) {
    put_varint(out_, static_cast<std::uint64_t>(key));
    put_zigzag(out_, v);
  }
}

void TranscriptWriter::on_run_end(const RunResult& result) {
  DGAP_REQUIRE(begun_ && !finished_, "run end without a run begin");
  close_round();
  out_.push_back(kTagRunEnd);
  out_.push_back(result.completed ? 1 : 0);
  put_varint(out_, static_cast<std::uint64_t>(result.rounds));
  put_varint(out_, static_cast<std::uint64_t>(result.total_messages));
  put_varint(out_, static_cast<std::uint64_t>(result.total_words));
  // Whole-file checksum last: every byte before it is covered, so any
  // single-byte corruption (including in the trailer) fails decoding. The
  // running hash has already taken every folded byte, and FNV-1a's
  // byte-sequential structure makes that identical to hashing the whole
  // file at once.
  fold_hashes();
  put_fixed64(out_, file_hash_);
  finished_ = true;
}

const std::vector<std::uint8_t>& TranscriptWriter::bytes() const {
  DGAP_REQUIRE(finished_, "transcript incomplete: the run has not ended");
  return out_;
}

std::vector<std::uint8_t> TranscriptWriter::take_bytes() {
  DGAP_REQUIRE(finished_, "transcript incomplete: the run has not ended");
  finished_ = false;
  return std::move(out_);
}

// ---------------------------------------------------------------------------
// Decode / encode
// ---------------------------------------------------------------------------

Transcript decode_transcript(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  for (const std::uint8_t m : kMagic) {
    DGAP_REQUIRE(r.byte() == m, "not a dgap transcript (bad magic)");
  }
  Transcript t;
  const std::uint64_t version = r.varint();
  DGAP_REQUIRE(version == kTranscriptVersion,
               "unsupported transcript version");
  const std::uint64_t detail = r.varint();
  DGAP_REQUIRE(detail == 0 || detail == 2, "invalid transcript detail level");
  t.detail = static_cast<TraceDetail>(detail);
  t.label = r.str();
  const std::uint8_t has_spec = r.byte();
  DGAP_REQUIRE(has_spec <= 1, "invalid transcript spec flag");
  if (has_spec) {
    GraphSpec spec;
    const std::uint64_t family = r.varint();
    DGAP_REQUIRE(family <=
                     static_cast<std::uint64_t>(GraphSpec::Family::kGnm),
                 "invalid transcript graph family");
    spec.family = static_cast<GraphSpec::Family>(family);
    spec.a = r.zigzag();
    spec.b = r.zigzag();
    spec.p = std::bit_cast<double>(r.fixed64());
    spec.seed = r.varint();
    const std::uint64_t ids = r.varint();
    DGAP_REQUIRE(ids <= 2, "invalid transcript id policy");
    spec.ids = static_cast<GraphSpec::IdPolicy>(ids);
    t.spec = spec;
  }
  t.n = static_cast<NodeId>(r.small("n"));
  const std::int64_t max_rounds = r.zigzag();
  DGAP_REQUIRE(max_rounds >= 0 && max_rounds <= 0x7fffffff,
               "invalid transcript max_rounds");
  t.max_rounds = static_cast<int>(max_rounds);
  const std::int64_t word_limit = r.zigzag();
  DGAP_REQUIRE(word_limit >= 0 && word_limit <= 0x7fffffff,
               "invalid transcript congest_word_limit");
  t.congest_word_limit = static_cast<int>(word_limit);
  const std::uint64_t policy = r.varint();
  DGAP_REQUIRE(policy <= static_cast<std::uint64_t>(CongestPolicy::kDefer),
               "invalid transcript congest policy");
  t.congest_policy = static_cast<CongestPolicy>(policy);

  bool in_round = false;
  bool ended = false;
  std::size_t round_start = 0;
  while (!ended) {
    const std::size_t tag_pos = r.pos();
    const std::uint8_t tag = r.byte();
    switch (tag) {
      case kTagRound: {
        DGAP_REQUIRE(!in_round, "transcript round begins inside a round");
        round_start = tag_pos;
        TranscriptRound round;
        round.round = static_cast<int>(r.small("round"));
        const int expected = static_cast<int>(t.rounds.size()) + 1;
        DGAP_REQUIRE(round.round == expected,
                     "transcript rounds out of sequence");
        round.active = static_cast<NodeId>(r.small("active count"));
        DGAP_REQUIRE(round.active <= t.n,
                     "transcript active count exceeds n");
        t.rounds.push_back(std::move(round));
        in_round = true;
        break;
      }
      case kTagMessage: {
        DGAP_REQUIRE(in_round, "transcript message outside a round");
        DGAP_REQUIRE(t.detail == TraceDetail::kPayloads,
                     "message event in a rounds-only transcript");
        TranscriptMessage m;
        m.from = static_cast<NodeId>(r.small("message sender"));
        m.to = static_cast<NodeId>(r.small("message receiver"));
        DGAP_REQUIRE(m.from < t.n && m.to < t.n,
                     "transcript message endpoint out of range");
        std::vector<TranscriptMessage>& messages = t.rounds.back().messages;
        DGAP_REQUIRE(messages.empty() || messages.back().to <= m.to,
                     "transcript round lists receivers out of order");
        const std::int64_t channel = r.zigzag();
        DGAP_REQUIRE(channel >= -0x80000000LL && channel <= 0x7fffffffLL,
                     "transcript channel out of range");
        m.channel = static_cast<int>(channel);
        const std::uint8_t flags = r.byte();
        DGAP_REQUIRE(flags == 0 || flags == 2,
                     "invalid transcript message flags");
        m.suppressed = flags == 2;
        // No reserve ahead of the words (nor the edge outputs below): a
        // corrupt count must fail as a truncation, not as an allocation.
        const std::int64_t len = r.small("message length");
        for (std::int64_t i = 0; i < len; ++i) m.words.push_back(r.zigzag());
        messages.push_back(std::move(m));
        break;
      }
      case kTagTermination: {
        DGAP_REQUIRE(in_round, "transcript termination outside a round");
        TranscriptTermination term;
        term.node = static_cast<NodeId>(r.small("terminated node"));
        DGAP_REQUIRE(term.node < t.n,
                     "transcript terminated node out of range");
        term.output = r.zigzag();
        const std::int64_t edges = r.small("edge output count");
        for (std::int64_t i = 0; i < edges; ++i) {
          const NodeId key = static_cast<NodeId>(r.small("edge output key"));
          DGAP_REQUIRE(key < t.n, "transcript edge output key out of range");
          term.edge_outputs.emplace_back(key, r.zigzag());
        }
        t.rounds.back().terminations.push_back(std::move(term));
        break;
      }
      case kTagRoundEnd: {
        DGAP_REQUIRE(in_round, "transcript round end outside a round");
        const std::uint64_t expected =
            fnv1a_bytes({r.base() + round_start, tag_pos - round_start});
        DGAP_REQUIRE(r.fixed64() == expected,
                     "transcript round checksum mismatch");
        in_round = false;
        break;
      }
      case kTagRunEnd: {
        DGAP_REQUIRE(!in_round, "transcript ends inside an open round");
        const std::uint8_t completed = r.byte();
        DGAP_REQUIRE(completed <= 1, "invalid transcript completed flag");
        t.summary.completed = completed != 0;
        t.summary.rounds = static_cast<int>(r.small("summary rounds"));
        DGAP_REQUIRE(t.summary.rounds ==
                         static_cast<int>(t.rounds.size()),
                     "transcript summary round count mismatch");
        t.summary.total_messages = static_cast<std::int64_t>(r.varint());
        t.summary.total_words = static_cast<std::int64_t>(r.varint());
        const std::uint64_t expected = fnv1a_bytes({r.base(), r.pos()});
        DGAP_REQUIRE(r.fixed64() == expected,
                     "transcript file checksum mismatch");
        ended = true;
        break;
      }
      default:
        DGAP_REQUIRE(false, "unknown transcript event tag");
    }
  }
  DGAP_REQUIRE(r.eof(), "trailing bytes after transcript end");
  return t;
}

std::vector<std::uint8_t> encode_transcript(const Transcript& t) {
  // Drive a TranscriptWriter with the transcript's own events — encode is
  // therefore byte-identical to recording the run it describes, by
  // construction.
  TranscriptWriter w(t.detail, t.label, t.spec);
  EngineOptions options;
  options.max_rounds = t.max_rounds;
  options.congest_word_limit = t.congest_word_limit;
  options.congest_policy = t.congest_policy;
  w.on_run_begin(t.n, options);
  for (const TranscriptRound& round : t.rounds) {
    w.on_round_begin(round.round, round.active);
    for (const TranscriptMessage& m : round.messages) {
      w.on_message({round.round, m.from, m.to, m.channel,
                    WordSpan(m.words.data(), m.words.size()), m.suppressed});
    }
    for (const TranscriptTermination& term : round.terminations) {
      w.on_termination(round.round, term.node, term.output,
                       term.edge_outputs);
    }
  }
  RunResult result;
  result.completed = t.summary.completed;
  result.rounds = t.summary.rounds;
  result.total_messages = t.summary.total_messages;
  result.total_words = t.summary.total_words;
  w.on_run_end(result);
  return w.take_bytes();
}

void write_transcript_file(const std::string& path,
                           std::span<const std::uint8_t> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  DGAP_REQUIRE(f != nullptr, "cannot open transcript file for writing: " +
                                 path);
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool ok = written == bytes.size() && std::fclose(f) == 0;
  DGAP_REQUIRE(ok, "short write to transcript file: " + path);
}

std::vector<std::uint8_t> read_transcript_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  DGAP_REQUIRE(f != nullptr, "cannot open transcript file: " + path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  const bool ok = std::feof(f) && !std::ferror(f);
  std::fclose(f);
  DGAP_REQUIRE(ok, "error reading transcript file: " + path);
  return bytes;
}

RecordedRun record_run(const Graph& g, const Predictions& predictions,
                       ProgramFactory factory, EngineOptions options,
                       TraceDetail detail, std::string label,
                       std::optional<GraphSpec> spec) {
  DGAP_REQUIRE(options.trace_sink == nullptr,
               "record_run installs its own trace sink");
  TranscriptWriter writer(detail, std::move(label), std::move(spec));
  options.trace_sink = &writer;
  Engine engine(g, predictions, std::move(factory), options);
  RecordedRun out;
  out.result = engine.run();
  out.transcript = writer.take_bytes();
  return out;
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

namespace {

std::optional<TranscriptDivergence> header_diff(const Transcript& a,
                                                const Transcript& b) {
  if (a.detail != b.detail) return {{0, "header: detail level"}};
  if (a.n != b.n) {
    return {{0, "header: n (" + std::to_string(a.n) + " vs " +
                    std::to_string(b.n) + ")"}};
  }
  if (a.spec != b.spec) return {{0, "header: graph spec"}};
  if (a.max_rounds != b.max_rounds) return {{0, "header: max_rounds"}};
  if (a.congest_word_limit != b.congest_word_limit) {
    return {{0, "header: congest_word_limit"}};
  }
  if (a.congest_policy != b.congest_policy) {
    return {{0, "header: congest_policy"}};
  }
  return std::nullopt;
}

std::optional<TranscriptDivergence> round_diff(const TranscriptRound& x,
                                               const TranscriptRound& y) {
  const int r = x.round;
  if (x.active != y.active) {
    return {{r, "active count (" + std::to_string(x.active) + " vs " +
                    std::to_string(y.active) + ")"}};
  }
  const std::size_t m = std::min(x.messages.size(), y.messages.size());
  for (std::size_t i = 0; i < m; ++i) {
    const TranscriptMessage& p = x.messages[i];
    const TranscriptMessage& q = y.messages[i];
    if (p != q) {
      std::string what = "message " + std::to_string(i) + " (" +
                         std::to_string(p.from) + " -> " +
                         std::to_string(p.to) + " vs " +
                         std::to_string(q.from) + " -> " +
                         std::to_string(q.to) + "): ";
      if (p.from != q.from || p.to != q.to) {
        what += "endpoints";
      } else if (p.channel != q.channel) {
        what += "channel";
      } else if (p.words.size() != q.words.size()) {
        what += "width (" + std::to_string(p.words.size()) + " vs " +
                std::to_string(q.words.size()) + ")";
      } else if (p.suppressed != q.suppressed) {
        what += "suppressed flag";
      } else {
        what += "payload";
      }
      return {{r, what}};
    }
  }
  if (x.messages.size() != y.messages.size()) {
    return {{r, "message count (" + std::to_string(x.messages.size()) +
                    " vs " + std::to_string(y.messages.size()) + ")"}};
  }
  const std::size_t k = std::min(x.terminations.size(), y.terminations.size());
  for (std::size_t i = 0; i < k; ++i) {
    const TranscriptTermination& p = x.terminations[i];
    const TranscriptTermination& q = y.terminations[i];
    if (p != q) {
      std::string what = "termination of node " + std::to_string(p.node);
      if (p.node != q.node) {
        what = "terminated node (" + std::to_string(p.node) + " vs " +
               std::to_string(q.node) + ")";
      } else if (p.output != q.output) {
        what += ": output (" + std::to_string(p.output) + " vs " +
                std::to_string(q.output) + ")";
      } else {
        what += ": edge outputs";
      }
      return {{r, what}};
    }
  }
  if (x.terminations.size() != y.terminations.size()) {
    return {{r, "termination count (" +
                    std::to_string(x.terminations.size()) + " vs " +
                    std::to_string(y.terminations.size()) + ")"}};
  }
  return std::nullopt;
}

}  // namespace

std::optional<TranscriptDivergence> diff_transcripts(const Transcript& a,
                                                     const Transcript& b) {
  if (auto d = header_diff(a, b)) return d;
  const std::size_t rounds = std::min(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < rounds; ++i) {
    if (auto d = round_diff(a.rounds[i], b.rounds[i])) return d;
  }
  if (a.rounds.size() != b.rounds.size()) {
    return {{static_cast<int>(rounds) + 1,
             "round count (" + std::to_string(a.rounds.size()) + " vs " +
                 std::to_string(b.rounds.size()) + ")"}};
  }
  if (a.summary != b.summary) {
    return {{a.summary.rounds, "summary (completion or message totals)"}};
  }
  return std::nullopt;
}

}  // namespace dgap
