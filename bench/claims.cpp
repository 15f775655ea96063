// dgap_claims — every experiment of EXPERIMENTS.md as one gated table.
//
// Each claim (E1–E17) re-runs its instances, seeds, providers and
// algorithms and prints one markdown table. A row pairs a measure (η1, η2,
// η_t, μ1, …) with a measured quantity x — rounds, or a measure itself —
// and the bound the paper proves for it, as lo ≤ x ≤ hi. A run checked
// against two bounds is two rows. Ablation and trend rows print "—" as the
// bound and are gated on validity only. E13 holds the CONGEST accounting:
// message widths, the enforced-bandwidth sweep and the message-reduction
// compile pass; E16 the warm-started epoch streams and their result cache.
//
// The binary takes no arguments. It exits 1, naming the rows, if any run's
// output fails its problem's checker (or a row's own validity rule: equal
// outputs and totals across a compile or a budget, equal checksums across
// worker counts, a warm start's η1 below the neutral one's) or any gated x
// lies outside its bound.
#include "bench_util.hpp"

#include <climits>
#include <exception>
#include <optional>

#include "coloring/checkers.hpp"
#include "coloring/linial.hpp"
#include "common/rng.hpp"
#include "edgecoloring/checkers.hpp"
#include "graph/exact.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "graph/spec.hpp"
#include "matching/algorithms.hpp"
#include "matching/checkers.hpp"
#include "mis/algorithms.hpp"
#include "mis/checkers.hpp"
#include "mis/congest_global.hpp"
#include "mis/gather.hpp"
#include "predict/error_measures.hpp"
#include "predict/generators.hpp"
#include "predict/provider.hpp"
#include "random/luby.hpp"
#include "sim/batch.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "templates/epoch_problems.hpp"
#include "templates/mis_with_predictions.hpp"
#include "templates/problems_with_predictions.hpp"
#include "templates/templates.hpp"
#include "tree/gps.hpp"
#include "verify/local_verifier.hpp"

namespace {

using namespace dgap;
using namespace dgap::benchutil;

// Rows and the gate.

struct Bound {
  std::optional<long> lo, hi;  // neither set: a report-only row
};
Bound at_most(long hi) { return {std::nullopt, hi}; }
Bound between(long lo, long hi) { return {lo, hi}; }
Bound exactly(long v) { return {v, v}; }
const Bound kReport{};

/// The text cells of a row; x, its bound and its validity come separately.
struct Row {
  std::string instance;
  std::string param;      // the swept parameter: flips, churn, provider, …
  std::string algorithm;  // "—" when x is a measure computed without a run
  std::string measure;    // what the bound is a function of, e.g. "η1 = 5"
  std::string quantity = "rounds";  // what x is: rounds, η_bw, mean, …
};

std::string m(const char* name, long value) {
  return std::string(name) + " = " + std::to_string(value);
}

/// The arguments of a Linial-based reference cap.
std::string delta_d(const Graph& g) {
  return m("Δ", g.max_degree()) + ", " + m("d", g.id_bound());
}

class Claims {
 public:
  void begin(const char* id, const char* ref, const char* statement) {
    id_ = id;
    banner((std::string(id) + " · " + ref).c_str(), statement);
    table_.print_header();
  }

  /// Print one row and remember it if it fails. `valid` is unset when no
  /// run is behind the row.
  void add(Row row, double x, Bound b, std::optional<bool> valid,
           int decimals = 0) {
    ++rows_;
    char xs[32];
    std::snprintf(xs, sizeof(xs), "%.*f", decimals, x);
    std::string bound = "—", slack = "—";
    bool in_bound = true;
    if (b.lo || b.hi) {
      ++gated_;
      const long v = static_cast<long>(x);
      const long s = std::min(b.lo ? v - *b.lo : LONG_MAX,
                              b.hi ? *b.hi - v : LONG_MAX);
      in_bound = s >= 0;
      slack = std::to_string(s);
      bound = b.lo == b.hi ? "x = " + std::to_string(*b.lo)
                           : (b.lo ? std::to_string(*b.lo) + " ≤ x" : "x") +
                                 (b.hi ? " ≤ " + std::to_string(*b.hi) : "");
    }
    const std::vector<std::string> cells{
        row.instance, row.param, row.algorithm, row.measure, row.quantity, xs,
        bound,        slack,     valid ? (*valid ? "yes" : "NO") : "—"};
    table_.print_row(cells);
    if (!in_bound || !valid.value_or(true)) {
      std::string line = id_;
      for (const std::string& cell : cells) line += " | " + cell;
      failures_.push_back(std::move(line));
    }
  }

  /// A run's row: x is its rounds.
  void run(Row row, const RunResult& r, bool valid, Bound b) {
    add(std::move(row), r.rounds, b, valid);
  }

  /// A measure computed without a run of its own.
  void value(Row row, double x, Bound b) {
    add(std::move(row), x, b, std::nullopt);
  }

  /// A claim that threw: the rest of its rows are lost, so it fails.
  void fail(const char* what) {
    failures_.push_back(std::string(id_) + " | exception: " + what);
  }

  int finish() const {
    std::printf("\n%d rows, %d gated: ", rows_, gated_);
    if (failures_.empty()) {
      std::printf("every run valid, every gated row within its bound\n");
      return 0;
    }
    std::printf("%zu FAIL\n", failures_.size());
    for (const std::string& f : failures_) std::printf("FAIL %s\n", f.c_str());
    return 1;
  }

 private:
  Table table_{{"instance", "param", "algorithm", "measure", "quantity", "x",
                "bound", "slack", "valid"}};
  const char* id_ = "";
  int rows_ = 0;
  int gated_ = 0;
  std::vector<std::string> failures_;
};

// A run is valid iff it completed and its problem's checker accepts it.
bool mis_ok(const Graph& g, const RunResult& r) {
  return r.completed && is_valid_mis(g, r.outputs);
}
bool all_mis_ok(const Graph& g, std::span<const RunResult> runs) {
  return std::all_of(runs.begin(), runs.end(),
                     [&](const RunResult& r) { return mis_ok(g, r); });
}
bool matching_ok(const Graph& g, const RunResult& r) {
  return r.completed && is_valid_maximal_matching(g, r.outputs);
}
bool coloring_ok(const Graph& g, const RunResult& r) {
  return r.completed && is_valid_coloring(g, r.outputs, g.max_degree() + 1);
}
bool edge_coloring_ok(const Graph& g, const RunResult& r) {
  return r.completed && is_valid_edge_coloring(g, r.edge_outputs);
}

std::string flips(int f) { return "flips=" + fmt(f); }

/// A line whose identifiers increase along it: the worst case for
/// measure-uniform algorithms (Lemma 5 / Thm 6).
Graph sorted_line(NodeId n) {
  Graph g = make_line(n);
  sorted_ids(g);
  return g;
}

Graph shuffled(Graph g, Rng& rng) {
  randomize_ids(g, rng);
  return g;
}
RootedTree shuffled(RootedTree t, Rng& rng) {
  randomize_ids(t.graph, rng);
  return t;
}

/// A batch job whose MIS predictions the runner materializes from `src`.
BatchJob provider_job(const Graph& g, ProgramFactory f, ProviderPtr src,
                      std::uint64_t seed) {
  BatchJob job = make_job(g, std::move(f));
  job.provider = std::move(src);
  job.provider_kind = ProblemKind::kMis;
  job.provider_seed = seed;
  return job;
}

// The MIS inequalities, shared by each claim's own sweep and by the small
// seeded instances below.

// Obs. 7: Simple(Init, Greedy) takes at most η1 + 3 and η2 + 4 rounds.
void obs7(Claims& c, const std::string& inst, const std::string& param,
          const Graph& g, const Predictions& pred, bool with_eta2) {
  const RunResult r = run_with_predictions(g, pred, mis_simple_greedy());
  const bool ok = mis_ok(g, r);
  const int e1 = eta1_mis(g, pred);
  c.run({inst, param, "mis_simple_greedy", m("η1", e1)}, r, ok,
        at_most(e1 + 3));
  if (with_eta2) {
    const int e2 = eta2_mis(g, pred);
    c.run({inst, param, "mis_simple_greedy", m("η2", e2)}, r, ok,
          at_most(e2 + 4));
  }
}

// Lemma 8: a Consecutive run is 2η1-degrading (2η1 + 5) and capped by its
// reference R.
void lemma8(Claims& c, const std::string& inst, const std::string& param,
            const char* algorithm, const Graph& g, int e1, const RunResult& r,
            const std::string& cap_args, long cap) {
  const bool ok = mis_ok(g, r);
  c.run({inst, param, algorithm, m("η1", e1)}, r, ok, at_most(2 * e1 + 5));
  c.run({inst, param, algorithm, cap_args}, r, ok, at_most(cap));
}

// The gather reference's Consecutive cap: 3 + (r + 1) + 1 + r.
long gather_cap(const Graph& g) {
  const int r = mis_gather_total_rounds(g.num_nodes());
  return kMisInitRounds + (r + kMisCleanupRounds) + kMisCleanupRounds + r;
}

// Σ r_i of the doubling gather phases (Cor. 10's reference).
int reference_total(NodeId n) {
  int total = 0;
  int i = 1;
  while ((1 << i) < std::max<NodeId>(n - 1, 1)) ++i;
  for (int k = 1; k <= i; ++k) total += 1 << k;
  return total;
}

// Lemma 9: an Interleaved run takes at most 2·max(η1, 2) + 7 rounds and at
// most 3 + 2Σr_i + 2.
void lemma9(Claims& c, const std::string& inst, const std::string& param,
            const Graph& g, const Predictions& pred) {
  const RunResult r = run_with_predictions(g, pred, mis_interleaved_gather());
  const bool ok = mis_ok(g, r);
  const int e1 = eta1_mis(g, pred);
  const NodeId n = g.num_nodes();
  c.run({inst, param, "mis_interleaved_gather", m("η1", e1)}, r, ok,
        at_most(2 * std::max(e1, 2) + 7));
  c.run({inst, param, "mis_interleaved_gather", m("n", n)}, r, ok,
        at_most(kMisInitRounds + 2 * reference_total(n) + 2));
}

// Lemma 11 / Cor. 12: a Parallel run takes at most η2 + 4 rounds and at most
// the Linial reference's cap 3 + r1 + 1 + (Δ + 2) + 1. Where η2 is
// computed, the chain η2 ≤ η1 is a row too.
void cor12(Claims& c, const std::string& inst, const std::string& param,
           const Graph& g, const Predictions& pred, bool with_eta2) {
  const RunResult r = run_with_predictions(g, pred, mis_parallel_linial());
  const bool ok = mis_ok(g, r);
  if (with_eta2) {
    const int e1 = eta1_mis(g, pred);
    const int e2 = eta2_mis(g, pred);
    c.value({inst, param, "—", m("η1", e1), "η2"}, e2, at_most(e1));
    c.run({inst, param, "mis_parallel_linial", m("η2", e2)}, r, ok,
          at_most(e2 + 4));
  }
  const int r1 = linial_total_rounds(g.id_bound(), g.max_degree());
  c.run({inst, param, "mis_parallel_linial", delta_d(g)}, r, ok,
        at_most(kMisInitRounds + r1 + 1 + (g.max_degree() + 2) + 1));
}

// Thm 6: Greedy MIS needs at least (n − 5)/2 rounds on a sorted line (and
// at most n + 1).
void thm6(Claims& c, const std::string& inst, const std::string& param,
          const Graph& g, const RunResult& r) {
  const NodeId n = g.num_nodes();
  c.run({inst, param, "greedy_mis", m("n", n)}, r, mis_ok(g, r),
        between((n - 5) / 2, n + 1));
}

// Fourteen small seeded instances, each checked by Obs. 7, Lemma 8,
// Lemma 9 and Cor. 12. Each claim seeds case (family, size, flips) with
// size · salt + flips, so the four claims see different graphs.
struct SweepCase {
  const char* family;
  int size;
  int flips;
};
constexpr SweepCase kSweep[] = {
    {"line", 12, 0}, {"line", 12, 2},  {"line", 24, 6},  {"ring", 12, 3},
    {"ring", 18, 9}, {"grid", 4, 2},   {"grid", 5, 8},   {"gnp", 15, 0},
    {"gnp", 15, 4},  {"gnp", 22, 11},  {"tree", 16, 3},  {"tree", 25, 12},
    {"wheel", 6, 4}, {"wheel", 9, 9}};

struct SweepInstance {
  std::string name;
  std::string param;
  Graph g;
  Predictions pred;
};

std::vector<SweepInstance> sweep_instances(int salt) {
  std::vector<SweepInstance> out;
  for (const SweepCase& sc : kSweep) {
    const int seed = sc.size * salt + sc.flips;
    Rng rng(static_cast<std::uint64_t>(seed));
    const std::string f = sc.family;
    Graph g;
    std::string name = f + "_" + fmt(sc.size);
    if (f == "line") {
      g = make_line(sc.size);
    } else if (f == "ring") {
      g = make_ring(sc.size);
    } else if (f == "grid") {
      g = make_grid(sc.size, sc.size);
      name += "x" + fmt(sc.size);
    } else if (f == "gnp") {
      g = make_gnp(sc.size, 0.2, rng);
    } else if (f == "tree") {
      g = make_random_tree(sc.size, rng);
    } else {
      g = make_wheel_fk(sc.size);
      name = "wheel_F" + fmt(sc.size);
    }
    randomize_ids(g, rng);
    auto pred = flip_bits(g, mis_correct_prediction(g, rng), sc.flips, rng);
    out.push_back({name, flips(sc.flips) + ", seed=" + fmt(seed), std::move(g),
                   std::move(pred)});
  }
  return out;
}

// The claims, in EXPERIMENTS.md order.

void e1_e2(Claims& c) {
  c.begin("E1/E2", "Lemmas 1–2, Thm 6",
          "Greedy MIS takes at most μ1 and μ2 + 1 rounds (μ2 where n ≤ 150); "
          "on sorted lines it needs at least (n − 5)/2 (Lemma 5 / Thm 6).");
  Rng rng(42);
  std::vector<std::pair<std::string, Graph>> instances;
  auto add = [&](std::string name, Graph g) {
    instances.emplace_back(std::move(name), shuffled(std::move(g), rng));
  };
  auto add_sorted = [&](NodeId n) {
    instances.emplace_back("sorted_line_" + fmt(n), sorted_line(n));
  };
  add("line_64", make_line(64));
  add("line_256", make_line(256));
  add_sorted(64);
  add_sorted(256);
  add("ring_128", make_ring(128));
  add("clique_64", make_clique(64));
  add("star_128", make_star(128));
  add("grid_12x12", make_grid(12, 12));
  add("wheel_F24", make_wheel_fk(24));
  add("gnp_100_p05", make_gnp(100, 0.05, rng));
  add("gnp_100_p20", make_gnp(100, 0.20, rng));
  add("tree_100", make_random_tree(100, rng));
  for (NodeId n : {10, 25, 50, 101, 200}) add_sorted(n);

  for (const auto& [name, g] : instances) {
    const RunResult r = run_algorithm(g, greedy_mis_algorithm());
    const bool ok = mis_ok(g, r);
    const auto comps = connected_components(g);
    int mu1 = 0;
    for (const auto& comp : comps) {
      mu1 = std::max(mu1, static_cast<int>(comp.size()));
    }
    c.run({name, "—", "greedy_mis", m("μ1", mu1)}, r, ok, at_most(mu1));
    if (g.num_nodes() <= 150) {
      const int mu2 = mu2_max(g, comps);
      c.run({name, "—", "greedy_mis", m("μ2", mu2)}, r, ok, at_most(mu2 + 1));
    }
    if (name.starts_with("sorted_line")) thm6(c, name, "—", g, r);
  }
}

void e3(Claims& c) {
  c.begin("E3", "Observation 7",
          "Simple Template (Init + Greedy MIS): consistency 3 at η = 0; "
          "rounds ≤ η1 + 3 and ≤ η2 + 4 as the error grows.");
  Rng rng(7);
  auto sweep = [&](const std::string& name, const Graph& g) {
    auto base = mis_correct_prediction(g, rng);
    for (int f : {0, 1, 2, 4, 8, 16, 32}) {
      if (f > g.num_nodes()) break;
      auto pred = flip_bits(g, base, f, rng);
      obs7(c, name, flips(f), g, pred, g.num_nodes() <= 128);
    }
  };
  sweep("line_96", shuffled(make_line(96), rng));
  sweep("grid_10x10", shuffled(make_grid(10, 10), rng));
  sweep("gnp_90", make_gnp(90, 0.08, rng));
  sweep("tree_100", shuffled(make_random_tree(100, rng), rng));
  for (const auto& [name, param, g, pred] : sweep_instances(131)) {
    obs7(c, name, param, g, pred, g.num_nodes() <= 40);
  }
}

void e4(Claims& c) {
  c.begin("E4", "Lemma 8",
          "Consecutive Template: rounds ≤ 2η1 + 5 (2f(η)-degrading) and ≤ the "
          "reference R's cap (robust). Small errors finish in U; large ones "
          "hit the cap.");
  Rng rng(21);
  // The grid's runs are independent, so the whole sweep is submitted to
  // one batch (two jobs per row) and checked from the ordered results.
  BatchRunner runner({default_batch_workers()});
  struct Setting {
    std::size_t graph;
    int flips;
    Predictions pred;
  };
  std::vector<Setting> settings;
  std::vector<Graph> graphs;
  graphs.reserve(2);
  for (NodeId n : {64, 128}) {
    const Graph& g = graphs.emplace_back(sorted_line(n));
    auto base = mis_correct_prediction(g, rng);
    for (int f : {0, 2, 8, 32, n}) {
      auto pred = f == n ? all_same(g, 1) : flip_bits(g, base, f, rng);
      runner.add(g, mis_consecutive_gather(), pred);
      runner.add(g, mis_consecutive_linial(), pred);
      settings.push_back({graphs.size() - 1, f, std::move(pred)});
    }
  }
  auto results = take_results(runner.run_all());
  for (std::size_t i = 0; i < settings.size(); ++i) {
    const Setting& s = settings[i];
    const Graph& g = graphs[s.graph];
    const std::string inst = "sorted_line_" + fmt(g.num_nodes());
    const int e1 = eta1_mis(g, s.pred);
    const long linial_cap =
        kMisInitRounds +
        2 * (linial_mis_total_rounds(g.id_bound(), g.max_degree()) +
             kMisCleanupRounds) +
        kMisCleanupRounds;
    lemma8(c, inst, flips(s.flips), "mis_consecutive_gather", g, e1,
           results[2 * i], m("n", g.num_nodes()), gather_cap(g));
    lemma8(c, inst, flips(s.flips), "mis_consecutive_linial", g, e1,
           results[2 * i + 1], delta_d(g), linial_cap);
  }
  for (const auto& [name, param, g, pred] : sweep_instances(733)) {
    lemma8(c, name, param, "mis_consecutive_gather", g, eta1_mis(g, pred),
           run_with_predictions(g, pred, mis_consecutive_gather()),
           m("n", g.num_nodes()), gather_cap(g));
  }
}

void e5(Claims& c) {
  c.begin("E5", "Lemma 9 / Corollary 10",
          "Interleaved Template with the doubling gather reference: rounds ≤ "
          "2·max(η1, 2) + 7 and ≤ 3 + 2Σr_i + 2.");
  Rng rng(31);
  for (NodeId n : {60, 120}) {
    const Graph g = sorted_line(n);
    auto base = mis_correct_prediction(g, rng);
    for (int f : {0, 1, 4, 16, n}) {
      auto pred = f == n ? all_same(g, 0) : flip_bits(g, base, f, rng);
      lemma9(c, "sorted_line_" + fmt(n), flips(f), g, pred);
    }
  }
  const Graph grid = shuffled(make_grid(10, 10), rng);
  auto base = mis_correct_prediction(grid, rng);
  for (int f : {0, 4, 16, 64}) {
    lemma9(c, "grid_10x10", flips(f), grid, flip_bits(grid, base, f, rng));
  }
  for (const auto& [name, param, g, pred] : sweep_instances(937)) {
    lemma9(c, name, param, g, pred);
  }
}

void e6(Claims& c) {
  c.begin("E6", "Lemma 11 / Corollary 12",
          "Parallel Template (Greedy MIS ∥ Linial coloring → MIS): rounds ≤ "
          "η2 + 4, without the factor 2, and ≤ the reference cap, which does "
          "not grow with n on sorted lines, where Greedy MIS alone needs "
          "≥ (n − 5)/2.");
  Rng rng(17);
  auto sweep = [&](const std::string& name, const Graph& g) {
    auto base = mis_correct_prediction(g, rng);
    for (int f : {0, 1, 2, 4, 8, 16, 64}) {
      if (f > g.num_nodes()) break;
      cor12(c, name, flips(f), g, flip_bits(g, base, f, rng), true);
    }
  };
  sweep("sorted_line_100", sorted_line(100));
  sweep("grid_10x10", shuffled(make_grid(10, 10), rng));
  sweep("gnp_80", make_gnp(80, 0.06, rng));
  for (NodeId n : {128, 512, 2048}) {
    const Graph g = sorted_line(n);
    const std::string inst = "sorted_line_" + fmt(n);
    cor12(c, inst, "all=1", g, all_same(g, 1), false);
    thm6(c, inst, "—", g, run_algorithm(g, greedy_mis_algorithm()));
  }
  for (const auto& [name, param, g, pred] : sweep_instances(389)) {
    cor12(c, name, param, g, pred, g.num_nodes() <= 40);
  }
}

void e6b(Claims& c) {
  c.begin("E6b", "Corollary 12, reduction shape",
          "After Linial's O(log* d) steps, the reduction to Δ+1 colors "
          "(locally-iterative stage, then class tail) takes ≤ 5Δ+1 rounds, "
          "or ≤ 6Δ+2 when it re-examines every class as the line graph "
          "does, at any d; the stage never makes the cap exceed the class "
          "tail alone. Then Parallel Linial on all-ones predictions.");
  const std::pair<const char*, std::int64_t> ds[] = {
      {"d = 60", 60}, {"d = 256", 256}, {"d = 10^6", 1'000'000},
      {"d = 2^40", std::int64_t{1} << 40}};
  for (const auto& [inst, d] : ds) {
    for (const bool all : {false, true}) {
      for (const int delta : {1, 2, 3, 6, 11, 27, 64, 200}) {
        if (delta >= d) break;  // ids ≤ d leave room for at most d nodes
        const LinialSchedule s = linial_schedule(d, delta, all);
        const long steps = static_cast<long>(s.steps.size());
        const long floor = all ? 0 : delta + 1;
        const long class_tail_cap =
            steps + std::max<long>(s.final_colors - floor, 0) + 1;
        const char* variant = all ? "all classes" : "vertex";
        c.value({inst, variant, "—", m("Δ", delta), "reduction"},
                s.total_rounds - steps - 1,
                at_most(all ? 6 * delta + 2 : 5 * delta + 1));
        c.value({inst, variant, "—", m("Δ", delta) + ", class tail", "cap"},
                s.total_rounds, at_most(class_tail_cap));
      }
    }
  }
  auto rows = [&](const std::string& name, const Graph& g) {
    const auto pred = all_same(g, 1);
    const auto rp = run_with_predictions(g, pred, mis_parallel_linial());
    const std::string delta = m("Δ", g.max_degree());
    c.value({name, "all=1", "mis_parallel_linial", delta, "cap"},
            linial_total_rounds(g.id_bound(), g.max_degree()), kReport);
    c.run({name, "all=1", "mis_parallel_linial", delta}, rp, mis_ok(g, rp),
          kReport);
  };
  Rng rng(23);
  for (int target_delta : {4, 8, 16}) {
    rows("gnp_60",
         shuffled(make_gnp(60, target_delta / 60.0 * 1.1, rng), rng));
  }
  Rng rng2(3);
  rows("hypercube6", shuffled(make_hypercube(6), rng2));  // Δ = 6, n = 64
}

void e7(Claims& c) {
  c.begin("E7", "Figure 1",
          "Wheel F_k: the all-ones error component is F_k (diameter 4); the "
          "hub-only one is the rim (diameter ⌊k/2⌋). A better prediction "
          "gives a wider component, so diameter is not a valid error measure.");
  for (NodeId k : {8, 12, 16, 24, 32}) {
    Graph g = make_wheel_fk(k);
    std::vector<Value> x(static_cast<std::size_t>(2 * k + 1), 0);
    x[0] = 1;
    Predictions hub{x};
    auto comps = mis_error_components(g, hub);
    auto [rim, map] = g.induced(comps.at(0));
    const std::string inst = "wheel_F" + fmt(k);
    c.value({inst, "all=1", "—", m("η1", eta1_mis(g, all_same(g, 1))),
             "diam(F_k)"},
            diameter(g), exactly(4));
    c.value({inst, "hub=1", "—", m("η1", eta1_mis(g, hub)), "diam(rim)"},
            diameter(rim), exactly(k / 2));
  }
}

void e8(Claims& c) {
  c.begin("E8", "Figure 2 / Section 9.1",
          "4-striped grid: η1 = n while η_bw = 4; the black/white alternating "
          "U_bw solves it in O(1) rounds.");
  Rng rng(3);
  const std::vector<NodeId> sides{8, 12, 16, 24};
  // Two jobs per grid size, batched; rows come from the ordered results.
  BatchRunner runner({default_batch_workers()});
  std::vector<Graph> graphs;
  graphs.reserve(sides.size());
  std::vector<Predictions> preds;
  for (NodeId side : sides) {
    const Graph& g = graphs.emplace_back(shuffled(make_grid(side, side), rng));
    auto pred = grid_stripe_prediction(side, side);
    runner.add(g, mis_simple_bw(), pred);
    runner.add(g, mis_simple_greedy(), pred);
    preds.push_back(std::move(pred));
  }
  auto results = take_results(runner.run_all());
  for (std::size_t i = 0; i < sides.size(); ++i) {
    const Graph& g = graphs[i];
    const std::string inst = "grid_" + fmt(sides[i]) + "x" + fmt(sides[i]);
    const int e1 = eta1_mis(g, preds[i]);
    const int ebw = eta_bw_mis(g, preds[i]);
    c.value({inst, "stripes", "—", m("n", g.num_nodes()), "η1"}, e1,
            exactly(g.num_nodes()));
    c.value({inst, "stripes", "—", "—", "η_bw"}, ebw, exactly(4));
    c.run({inst, "stripes", "mis_simple_bw", m("η_bw", ebw)}, results[2 * i],
          mis_ok(g, results[2 * i]), kReport);
    c.run({inst, "stripes", "mis_simple_greedy", m("η1", e1)},
          results[2 * i + 1], mis_ok(g, results[2 * i + 1]), kReport);
  }
}

void e7b(Claims& c) {
  c.begin("E7b", "Section 5",
          "η2 ≤ η1, with large gaps on cliques and stars; η_H sums over "
          "components while η1 stays local.");
  auto rows = [&](const std::string& inst, const Graph& g,
                  const Predictions& pred) {
    const int e1 = eta1_mis(g, pred);
    c.value({inst, "—", "—", m("η1", e1), "η2"}, eta2_mis(g, pred),
            at_most(e1));
    c.value({inst, "—", "—", "—", "η_bw"}, eta_bw_mis(g, pred), kReport);
    c.value({inst, "—", "—", "—", "η_H"}, eta_hamming_mis(g, pred), kReport);
    c.value({inst, "—", "—", "—", "η_sum"}, eta_sum_mis(g, pred), kReport);
  };
  const Graph clique = make_clique(12);
  rows("clique_12_all1", clique, all_same(clique, 1));
  const Graph star = make_star(12);
  rows("star_12_all1", star, all_same(star, 1));
  Graph triangles = make_clique(3);
  for (int i = 1; i < 8; ++i) {
    triangles = disjoint_union(triangles, make_clique(3));
  }
  rows("8_triangles_all1", triangles, all_same(triangles, 1));
  Rng rng(5);
  const Graph line = make_line(20);
  rows("line_20_3flips", line,
       flip_bits(line, mis_correct_prediction(line, rng), 3, rng));
}

// Cor. 15: Simple(TreeInit, Alg. 6) and the Parallel variant take at most
// ⌈η_t/2⌉ + 5 rounds; the Parallel one also at most the GPS cap.
void cor15(Claims& c, const std::string& inst, const std::string& param,
           const RootedTree& t, const Predictions& pred) {
  const Graph& g = t.graph;
  const auto simple = run_with_predictions(g, pred, tree_mis_simple(t));
  const auto parallel = run_with_predictions(g, pred, tree_mis_parallel(t));
  const int et = eta_t_mis(t, pred);
  c.run({inst, param, "tree_mis_simple", m("η_t", et)}, simple,
        mis_ok(g, simple), at_most((et + 1) / 2 + 5));
  c.run({inst, param, "tree_mis_parallel", m("η_t", et)}, parallel,
        mis_ok(g, parallel), at_most((et + 1) / 2 + 5));
  c.run({inst, param, "tree_mis_parallel", m("d", g.id_bound())}, parallel,
        mis_ok(g, parallel),
        at_most(4 + gps_total_rounds(g.id_bound()) + 1 + 2 + 1));
}

void e9(Claims& c) {
  c.begin("E9", "Section 9.2 / Corollary 15",
          "Rooted trees: η_t ≤ η_bw ≤ η1; Simple(TreeInit, Alg. 6) ≤ ⌈η_t/2⌉ "
          "+ 5; Parallel adds the GPS O(log* d) cap.");
  Rng rng(13);
  auto sweep = [&](const std::string& name, const RootedTree& t) {
    const Graph& g = t.graph;
    auto base = mis_correct_prediction(g, rng);
    for (int f : {0, 2, 8, 32, static_cast<int>(g.num_nodes())}) {
      if (f > g.num_nodes()) break;
      auto pred = f == g.num_nodes() ? all_same(g, 0)
                                     : flip_bits(g, base, f, rng);
      const int ebw = eta_bw_mis(g, pred);
      c.value({name, flips(f), "—", m("η_bw", ebw), "η_t"},
              eta_t_mis(t, pred), at_most(ebw));
      const int e1 = eta1_mis(g, pred);
      c.value({name, flips(f), "—", m("η1", e1), "η_bw"}, ebw, at_most(e1));
      cor15(c, name, flips(f), t, pred);
    }
  };
  sweep("dline_120", make_rooted_line(120));
  sweep("binary_h7", shuffled(make_rooted_binary_tree(7), rng));
  sweep("random_150", shuffled(make_rooted_random_tree(150, rng), rng));
  sweep("4ary_4lvl", shuffled(make_rooted_kary_tree(4, 4), rng));
}

void e9b(Claims& c) {
  c.begin("E9b", "Section 9.2 example",
          "Directed line, white every third node: the base algorithm decides "
          "nothing (η1 = n), but η_t = 2.");
  for (NodeId k : {10, 40, 100}) {
    RootedTree t = make_rooted_line(3 * k);
    std::vector<Value> x(static_cast<std::size_t>(3 * k), 1);
    for (NodeId v = 0; v < 3 * k; v += 3) x[v] = 0;
    Predictions pred{x};
    const std::string inst = "dline_" + fmt(3 * k);
    c.value({inst, "white=v%3", "—", m("η1", eta1_mis(t.graph, pred)), "η_t"},
            eta_t_mis(t, pred), exactly(2));
    cor15(c, inst, "white=v%3", t, pred);
  }
}

void e10a(Claims& c) {
  c.begin("E10a", "Section 8.1",
          "Maximal Matching: Init (2 rounds) + the measure-uniform algorithm "
          "(≤ max(3⌊s/2⌋, 1)), so rounds ≤ 2 + max(3⌊η1/2⌋, 1).");
  Rng rng(3);
  for (NodeId n : {60, 120}) {
    const Graph g = shuffled(make_line(n), rng);
    auto base = matching_correct_prediction(g, rng);
    for (int breaks : {0, 1, 4, 16, n / 2}) {
      auto pred = break_matches(g, base, breaks, rng);
      auto r = run_with_predictions(g, pred, matching_simple_greedy());
      const int e1 = eta1_matching(g, pred);
      c.run({"line_" + fmt(n), "breaks=" + fmt(breaks), "init+greedy_matching",
             m("η1", e1)},
            r, matching_ok(g, r), at_most(2 + std::max(3 * (e1 / 2), 1)));
    }
  }
}

void e10b(Claims& c) {
  c.begin("E10b", "Section 8.2",
          "(Δ+1)-Vertex Coloring: Init + the local-max measure-uniform "
          "algorithm, no clean-up: rounds ≤ η1 + 2.");
  Rng rng(5);
  for (auto [name, graph] : std::vector<std::pair<std::string, Graph>>{
           {"grid_10x10", make_grid(10, 10)},
           {"ring_100", make_ring(100)},
           {"gnp_80", make_gnp(80, 0.08, rng)}}) {
    randomize_ids(graph, rng);
    auto base = coloring_correct_prediction(graph, rng);
    for (int scrambles : {0, 2, 8, 32}) {
      auto pred = scramble_colors(graph, base, scrambles, rng);
      auto r = run_with_predictions(graph, pred, coloring_simple_greedy());
      const int e1 = eta1_coloring(graph, pred);
      c.run({name, "scrambles=" + fmt(scrambles), "init+greedy_coloring",
             m("η1", e1)},
            r, coloring_ok(graph, r), at_most(e1 + 2));
    }
  }
}

void e10c(Claims& c) {
  c.begin("E10c", "Section 8.3",
          "(2Δ−1)-Edge Coloring: the base algorithm (≤ 2 rounds) + the "
          "2-hop-max measure-uniform algorithm (≤ 2s + 1), so rounds ≤ 2η1 + "
          "3.");
  Rng rng(7);
  for (auto [name, graph] : std::vector<std::pair<std::string, Graph>>{
           {"line_80", make_line(80)},
           {"ring_60", make_ring(60)},
           {"grid_8x8", make_grid(8, 8)}}) {
    randomize_ids(graph, rng);
    auto base = edge_coloring_correct_prediction(graph, rng);
    for (int scrambles : {0, 1, 4, 16}) {
      auto pred = scramble_edge_colors(graph, base, scrambles, rng);
      auto r =
          run_with_predictions(graph, pred, edge_coloring_simple_greedy());
      const int e1 = eta1_edge_coloring(graph, pred);
      c.run({name, "scrambles=" + fmt(scrambles),
             "base+greedy_edge_coloring", m("η1", e1)},
            r, edge_coloring_ok(graph, r), at_most(2 * e1 + 3));
    }
  }
}

void e10d(Claims& c) {
  c.begin("E10d", "Section 8 × Section 7",
          "The other problems × templates on sorted lines with all-wrong "
          "predictions: Simple is uncapped; the others are capped by a "
          "reference bound that depends on Δ and d = n.");
  for (NodeId n : {120, 240}) {
    const Graph g = sorted_line(n);
    const std::string inst = "sorted_line_" + fmt(n);
    using Algorithms = std::vector<std::pair<const char*, ProgramFactory>>;
    auto run = [&](const Predictions& pred,
                   bool (*ok)(const Graph&, const RunResult&),
                   const Algorithms& algorithms) {
      for (const auto& [name, factory] : algorithms) {
        const auto r = run_with_predictions(g, pred, factory);
        c.run({inst, "all wrong", name, "—"}, r, ok(g, r), kReport);
      }
    };
    run(all_same(g, kNoNode), matching_ok,
        {{"matching_simple_greedy", matching_simple_greedy()},
         {"matching_consecutive_linegraph", matching_consecutive_linegraph()},
         {"matching_parallel_linegraph", matching_parallel_linegraph()},
         {"matching_interleaved_linegraph", matching_interleaved_linegraph()}});
    run(all_same(g, 99), coloring_ok,  // illegal colors everywhere
        {{"coloring_simple_greedy", coloring_simple_greedy()},
         {"coloring_consecutive_linial", coloring_consecutive_linial()},
         {"coloring_parallel_linial", coloring_parallel_linial()},
         {"coloring_interleaved_linial", coloring_interleaved_linial()}});
    std::vector<std::vector<Value>> colors(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) colors[v].assign(g.neighbors(v).size(), 99);
    run(Predictions::for_edges(g, colors), edge_coloring_ok,
        {{"edge_coloring_simple_greedy", edge_coloring_simple_greedy()},
         {"edge_coloring_consecutive_linegraph",
          edge_coloring_consecutive_linegraph()},
         {"edge_coloring_parallel_linegraph",
          edge_coloring_parallel_linegraph()},
         {"edge_coloring_interleaved_linegraph",
          edge_coloring_interleaved_linegraph()}});
  }
}

void e11(Claims& c) {
  c.begin("E11", "Section 10",
          "Luby's MIS over 15 seeds on m disjoint lines: the slowest "
          "component's round grows with m while the mean component's stays "
          "flat, so a max-based measure cannot bound a randomized reference.");
  constexpr int kTrials = 15;
  for (int comp_size : {6, 10}) {
    for (int copies : {1, 10, 100, 400}) {
      Graph g = make_line(comp_size);
      for (int i = 1; i < copies; ++i) {
        g = disjoint_union(g, make_line(comp_size));
      }
      const auto comps = connected_components(g);
      std::vector<RunResult> runs;
      double comp_mean = 0;
      for (int t = 0; t < kTrials; ++t) {
        runs.push_back(
            run_algorithm(g, luby_mis_algorithm(1000 + 7 * copies + t)));
        for (int round : completion_round_per_component(comps, runs.back())) {
          comp_mean += round;
        }
      }
      comp_mean /= static_cast<double>(kTrials) *
                   static_cast<double>(comps.size());
      const std::string inst = "line_" + fmt(comp_size);
      const std::string param = "m=" + fmt(copies);
      const bool ok = all_mis_ok(g, runs);
      c.add({inst, param, "luby_mis", "—", "mean rounds"}, mean_rounds(runs),
            kReport, ok, 2);
      c.add({inst, param, "luby_mis", "—", "max rounds"}, max_rounds(runs),
            kReport, ok);
      c.add({inst, param, "luby_mis", "—", "component mean"}, comp_mean,
            kReport, ok, 2);
    }
  }
}

void e11b(Claims& c) {
  c.begin("E11b", "Section 10, reference scaling",
          "Luby over 10 seeds on one sorted line takes O(log n) rounds; "
          "Greedy MIS takes Θ(n).");
  for (NodeId n : {64, 256, 1024}) {
    const Graph g = sorted_line(n);
    const std::string inst = "sorted_line_" + fmt(n);
    std::vector<RunResult> runs;
    for (int t = 0; t < 10; ++t) {
      runs.push_back(run_algorithm(g, luby_mis_algorithm(77 + t)));
    }
    const bool ok = all_mis_ok(g, runs);
    c.add({inst, "—", "luby_mis", "—", "mean rounds"}, mean_rounds(runs),
          kReport, ok, 2);
    c.add({inst, "—", "luby_mis", "—", "max rounds"}, max_rounds(runs),
          kReport, ok);
    auto greedy = run_algorithm(g, greedy_mis_algorithm());
    c.run({inst, "—", "greedy_mis", "—"}, greedy, mis_ok(g, greedy), kReport);
  }
}

void e12(Claims& c) {
  c.begin("E12", "Section 1.1 motivation",
          "A stale MIS reused as predictions after edge churn (Parallel "
          "template): low churn keeps rounds near consistency; scratch runs "
          "get useless predictions.");
  Rng rng(2026);
  auto sweep = [&](const std::string& name, const Graph& original) {
    for (int churn : {0, 1, 2, 4, 8, 16}) {
      Graph updated = perturb_edges(original, churn, churn, rng);
      auto pred = stale_mis_prediction(original, updated, rng);
      auto stale = run_with_predictions(updated, pred, mis_parallel_linial());
      auto scratch = run_with_predictions(updated, all_same(updated, 0),
                                          mis_parallel_linial());
      const std::string param = "churn=" + fmt(churn);
      c.run({name, param + ", stale", "mis_parallel_linial",
             m("η1", eta1_mis(updated, pred))},
            stale, mis_ok(updated, stale), kReport);
      c.run({name, param + ", scratch", "mis_parallel_linial", "—"}, scratch,
            mis_ok(updated, scratch), kReport);
    }
  };
  sweep("rand_150", make_random_connected(150, 60, rng));
  sweep("grid_12x12", shuffled(make_grid(12, 12), rng));
  sweep("gnp_120", make_gnp(120, 0.04, rng));
}

// The CONGEST universal reference's exact schedule, written out rather than
// taken from congest_global_total_rounds so that a schedule bug cannot move
// its own bound.
long congest_global_rounds(NodeId n) { return long{n} * n + 3L * n + 3; }

void e13a(Claims& c) {
  c.begin("E13a", "Section 2, LOCAL vs CONGEST",
          "The widest message each algorithm sends, in words (one word = one "
          "identifier or color). Greedy MIS, Linial, GPS, the Simple and "
          "Parallel templates and the CONGEST universal reference stay within "
          "2 words, O(log n) bits; the gather reference is a LOCAL algorithm. "
          "The CONGEST reference takes exactly n² + 3n + 3 rounds.");
  Rng rng(4);
  const Graph g = make_random_connected(100, 50, rng);
  const auto pred = flip_bits(g, mis_correct_prediction(g, rng), 10, rng);
  const RootedTree t = shuffled(make_rooted_random_tree(100, rng), rng);
  Rng rng24(5);
  const Graph g24 = make_random_connected(24, 12, rng24);
  // One run, four rows: rounds, max width, messages and words.
  auto rows = [&](const std::string& inst, const std::string& param,
                  const char* algorithm, const RunResult& r, bool ok,
                  Bound width, const std::string& measure = "—",
                  Bound rounds = kReport) {
    c.run({inst, param, algorithm, measure}, r, ok, rounds);
    c.add({inst, param, algorithm, "—", "max width"}, r.max_message_words,
          width, ok);
    c.add({inst, param, algorithm, "—", "messages"}, r.total_messages,
          kReport, ok);
    c.add({inst, param, algorithm, "—", "words"}, r.total_words, kReport, ok);
  };
  const auto greedy = run_algorithm(g, greedy_mis_algorithm());
  rows("rand_100", "—", "greedy_mis", greedy, mis_ok(g, greedy), at_most(2));
  const auto linial = run_algorithm(g, linial_coloring_algorithm());
  rows("rand_100", "—", "linial_coloring", linial, coloring_ok(g, linial),
       at_most(2));
  const auto simple = run_with_predictions(g, pred, mis_simple_greedy());
  rows("rand_100", flips(10), "mis_simple_greedy", simple, mis_ok(g, simple),
       at_most(2));
  const auto parallel = run_with_predictions(g, pred, mis_parallel_linial());
  rows("rand_100", flips(10), "mis_parallel_linial", parallel,
       mis_ok(g, parallel), at_most(2));
  const auto gather = run_algorithm(g, mis_gather_algorithm());
  rows("rand_100", "—", "mis_gather", gather, mis_ok(g, gather), kReport);
  const auto global = run_algorithm(g24, congest_global_mis_algorithm());
  rows("rand_24", "—", "congest_global_mis", global, mis_ok(g24, global),
       at_most(2), m("n", g24.num_nodes()),
       exactly(congest_global_rounds(g24.num_nodes())));
  const auto interleaved =
      run_with_predictions(g, pred, mis_interleaved_gather());
  rows("rand_100", flips(10), "mis_interleaved_gather", interleaved,
       mis_ok(g, interleaved), kReport);
  const auto gps = run_algorithm(t.graph, gps_coloring_algorithm(t));
  rows("tree_100", "—", "gps_tree_coloring", gps,
       gps.completed && is_valid_coloring(t.graph, gps.outputs, 3),
       at_most(2));
}

/// A three-node relay line: the head streams kMessages 4-word messages,
/// one per round, the middle forwards each the round after it arrives, and
/// the tail terminates once it has them all. Under a B-word budget each
/// hop moves at most B words per round, so the completion round grows like
/// 2 · ⌈4 · kMessages / B⌉ as B shrinks.
class StreamRelayProgram final : public NodeProgram {
 public:
  static constexpr int kMessages = 16;

  void on_send(NodeContext& ctx) override {
    if (ctx.index() == 0 && ctx.round() <= kMessages) {
      const Value r = ctx.round();
      ctx.send(1, {r, r * 10, r * 100, r * 1000});
    } else if (ctx.index() == 1) {
      for (const auto& payload : to_forward_) ctx.send(2, payload);
      forwarded_ += static_cast<int>(to_forward_.size());
      to_forward_.clear();
    }
  }

  void on_receive(NodeContext& ctx) override {
    for (const Message& msg : ctx.inbox()) {
      ++received_;
      if (ctx.index() == 1) {
        to_forward_.emplace_back(msg.words.begin(), msg.words.end());
      }
    }
    const bool done = (ctx.index() == 0 && ctx.round() >= kMessages) ||
                      (ctx.index() == 1 && forwarded_ >= kMessages) ||
                      (ctx.index() == 2 && received_ >= kMessages);
    if (done) {
      ctx.set_output(received_);
      ctx.terminate();
    }
  }

 private:
  std::vector<std::vector<Value>> to_forward_;
  int received_ = 0;
  int forwarded_ = 0;
};

void e13b(Claims& c) {
  c.begin("E13b", "Section 2, enforced CONGEST bandwidth",
          "A budget of B words per directed edge per round, with excess words "
          "deferred in FIFO order: more bandwidth never costs rounds. Each "
          "budget's rounds are at least the next larger budget's, and the "
          "largest budget runs in the unenforced (nominal) rounds.");
  // The budget rows of one workload, ascending. An enforced run is valid
  // iff it completes with the unenforced run's outputs.
  auto sweep = [&](const std::string& inst, const char* algorithm,
                   const Graph& g, const ProgramFactory& factory,
                   const RunResult& nominal,
                   std::initializer_list<int> budgets) {
    std::vector<std::pair<int, RunResult>> runs;
    for (int budget : budgets) {
      EngineOptions opt;
      opt.congest_policy = CongestPolicy::kDefer;
      opt.congest_word_limit = budget;
      runs.emplace_back(budget, run_algorithm(g, factory, opt));
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& [budget, r] = runs[i];
      const std::string param = "B=" + fmt(budget);
      const bool ok = r.completed && r.outputs == nominal.outputs;
      if (i + 1 < runs.size()) {
        const auto& [next_budget, next] = runs[i + 1];
        c.run({inst, param, algorithm,
               "rounds(B=" + fmt(next_budget) + ") = " + fmt(next.rounds)},
              r, ok, Bound{next.rounds, std::nullopt});
      } else {
        c.run({inst, param, algorithm, m("nominal", nominal.rounds)}, r, ok,
              exactly(nominal.rounds));
      }
      c.add({inst, param, algorithm, "—", "deferred words"}, r.deferred_words,
            kReport, ok);
      c.add({inst, param, algorithm, "—", "backlog peak"},
            r.link_backlog_peak_words, kReport, ok);
      c.add({inst, param, algorithm, "—", "backlog rounds"},
            r.rounds_with_backlog, kReport, ok);
    }
  };
  Rng rng(6);
  const Graph g16 = shuffled(make_random_connected(16, 10, rng), rng);
  const auto global = run_algorithm(g16, congest_global_mis_algorithm());
  c.run({"rand_16", "unenforced", "congest_global_mis",
         m("n", g16.num_nodes())},
        global, mis_ok(g16, global),
        exactly(congest_global_rounds(g16.num_nodes())));
  sweep("rand_16", "congest_global_mis", g16, congest_global_mis_algorithm(),
        global, {1, 2, 4, 8});
  const Graph line = make_line(3);
  const ProgramFactory relay = [](NodeId) {
    return std::make_unique<StreamRelayProgram>();
  };
  const auto streamed = run_algorithm(line, relay);
  c.run({"line_3", "unenforced", "stream_relay", "—"}, streamed,
        streamed.completed &&
            streamed.outputs.back() == StreamRelayProgram::kMessages,
        kReport);
  sweep("line_3", "stream_relay", line, relay, streamed,
        {1, 2, 4, 8, 16, 32, 64});
}

void e13c(Claims& c) {
  c.begin("E13c", "message reduction, PAPERS.md \"a Free Lunch\"",
          "The compile pass (sim/compile.hpp) suppresses exact re-sends "
          "(cache) and declared defaults (defaults), and the receiver "
          "synthesizes them. A row is valid iff rounds, outputs and the "
          "nominal totals equal the uncompiled run's and sent + suppressed "
          "equals nominal. Words sent ≤ nominal words, and flood-min's "
          "repeated broadcasts lose over 30%.");
  Rng rng(21);
  const Graph rand64 = make_random_connected(64, 48, rng);
  const Graph grid = shuffled(make_grid(8, 8), rng);
  const Graph rand100 = make_random_connected(100, 50, rng);
  Rng rng24(5);
  const Graph rand24 = make_random_connected(24, 12, rng24);
  const Predictions mis_pred =
      flip_bits(rand100, mis_correct_prediction(rand100, rng), 10, rng);
  // Everyone predicted unmatched: the initialization's declared default
  // dominates, the worst prediction and the best case for defaults.
  const Predictions unmatched(std::vector<Value>(
      static_cast<std::size_t>(rand100.num_nodes()), kNoNode));
  const CompileOptions cache{.cache_resends = true};
  const CompileOptions cache_defaults{.cache_resends = true,
                                      .decode_defaults = true};

  auto row = [&](const std::string& inst, const Graph& g, const char* algorithm,
                 ProgramFactory factory, const Predictions& pred,
                 const CompileOptions& compile, int max_percent) {
    const auto run = [&](const CompileOptions& co) {
      EngineOptions opt;
      opt.compile = co;
      return run_with_predictions(g, pred, factory, opt);
    };
    const RunResult base = run(CompileOptions{});
    const RunResult r = run(compile);
    const bool ok =
        base.completed && r.rounds == base.rounds &&
        r.outputs == base.outputs && r.edge_outputs == base.edge_outputs &&
        r.total_words == base.total_words &&
        r.total_messages == base.total_messages &&
        r.words_sent + r.words_suppressed == base.total_words &&
        r.messages_sent + r.messages_suppressed == base.total_messages &&
        base.words_suppressed == 0 && base.messages_suppressed == 0;
    const std::string param =
        compile.decode_defaults ? "cache+defaults" : "cache";
    c.run({inst, param, algorithm, "—"}, r, ok, kReport);
    c.add({inst, param, algorithm, m("nominal", base.total_words),
           "words sent"},
          r.words_sent, at_most(base.total_words * max_percent / 100), ok);
  };
  row("rand_64", rand64, "flood_min", flood_min_algorithm(),
      empty_predictions(), cache, 70);
  row("grid_8x8", grid, "flood_min", flood_min_algorithm(),
      empty_predictions(), cache, 70);
  row("rand_100", rand100, "luby_mis", luby_mis_algorithm(7),
      empty_predictions(), cache, 100);
  row("rand_100", rand100, "greedy_mis", greedy_mis_algorithm(),
      empty_predictions(), cache, 100);
  row("rand_100", rand100, "greedy_matching", greedy_matching_algorithm(),
      empty_predictions(), cache, 100);
  row("rand_24", rand24, "congest_global_mis", congest_global_mis_algorithm(),
      empty_predictions(), cache, 100);
  row("rand_100", rand100, "mis_simple_greedy", mis_simple_greedy(), mis_pred,
      cache_defaults, 100);
  row("rand_100", rand100, "matching_simple_greedy", matching_simple_greedy(),
      unmatched, cache_defaults, 100);
}

void e14(Claims& c) {
  c.begin("E14", "Section 10 open problem",
          "Consecutive template whose U budget is λ times the Linial "
          "reference bound: good predictions favour large λ, bad ones small "
          "λ.");
  // The (n, provider, λ) grid is one batch: four jobs per setting, each
  // carrying its provider so the runner materializes predictions itself.
  constexpr std::uint64_t kSeed = 99;
  const std::vector<std::pair<int, int>> lambdas{
      {0, 1}, {1, 4}, {1, 2}, {1, 1}};
  BatchRunner runner({default_batch_workers()});
  struct Setting {
    std::size_t graph;
    ProviderPtr provider;
    Predictions pred;  // materialized once per setting, for η1
  };
  std::vector<Setting> settings;
  std::vector<Graph> graphs;
  graphs.reserve(2);
  for (NodeId n : {80, 160}) {
    const Graph& g = graphs.emplace_back(sorted_line(n));
    for (ProviderPtr src :
         {exact_provider(), perturbed_provider(2), perturbed_provider(8),
          perturbed_provider(24), constant_provider(1)}) {
      auto pred = provide_with_seed(*src, g, ProblemKind::kMis, kSeed);
      for (auto [num, den] : lambdas) {
        runner.add(provider_job(g, mis_consecutive_linial_lambda(num, den),
                                src, kSeed));
      }
      settings.push_back({graphs.size() - 1, std::move(src), std::move(pred)});
    }
  }
  auto results = take_results(runner.run_all());
  for (std::size_t i = 0; i < settings.size(); ++i) {
    const Setting& s = settings[i];
    const Graph& g = graphs[s.graph];
    const std::string measure = m("η1", eta1_mis(g, s.pred));
    for (std::size_t k = 0; k < lambdas.size(); ++k) {
      const RunResult& r = results[i * lambdas.size() + k];
      const auto [num, den] = lambdas[k];
      const std::string lambda =
          den == 1 ? fmt(num) : fmt(num) + "/" + fmt(den);
      c.run({"sorted_line_" + fmt(g.num_nodes()),
             s.provider->name() + ", λ=" + lambda,
             "mis_consecutive_linial_lambda", measure},
            r, mis_ok(g, r), kReport);
    }
  }
}

void e15a(Claims& c) {
  c.begin("E15a", "initialization ablation",
          "Simple Template with the MIS Base vs the MIS Initialization "
          "Algorithm as B: the initialization's identifier tie-break decides "
          "adjacent 1-predictions up front.");
  Rng rng(5);
  auto base_b = simple_template(make_mis_base(), make_greedy_mis());
  auto init_b = simple_template(make_mis_init(), make_greedy_mis());
  // Base/init pairs across the (graph, provider) grid, as one batch.
  BatchRunner runner({default_batch_workers()});
  struct Setting {
    std::string graph_name;
    std::string provider;
    std::size_t graph;
  };
  std::vector<Setting> settings;
  std::vector<Graph> graphs;
  graphs.reserve(3);
  for (auto [name, graph] : std::vector<std::pair<std::string, Graph>>{
           {"ring_60", make_ring(60)},
           {"grid_8x8", make_grid(8, 8)},
           {"gnp_60", make_gnp(60, 0.08, rng)}}) {
    const Graph& g = graphs.emplace_back(shuffled(std::move(graph), rng));
    for (ProviderPtr src :
         {exact_provider(), perturbed_provider(8), constant_provider(1)}) {
      runner.add(provider_job(g, base_b, src, 5));
      runner.add(provider_job(g, init_b, src, 5));
      settings.push_back({name, src->name(), graphs.size() - 1});
    }
  }
  auto results = take_results(runner.run_all());
  for (std::size_t i = 0; i < settings.size(); ++i) {
    const Setting& s = settings[i];
    const Graph& g = graphs[s.graph];
    c.run({s.graph_name, s.provider, "simple(base, greedy)", "—"},
          results[2 * i], mis_ok(g, results[2 * i]), kReport);
    c.run({s.graph_name, s.provider, "simple(init, greedy)", "—"},
          results[2 * i + 1], mis_ok(g, results[2 * i + 1]), kReport);
  }
}

void e15b(Claims& c) {
  c.begin("E15b", "template comparison",
          "The four templates on one instance: Simple is uncapped; "
          "Consecutive and Interleaved pay a factor ~2 in the degradation; "
          "Parallel does not.");
  const Graph g = sorted_line(120);
  constexpr std::uint64_t kSeed = 11;
  const std::vector<ProviderPtr> sources{
      exact_provider(),       perturbed_provider(1),  perturbed_provider(4),
      perturbed_provider(12), perturbed_provider(32), constant_provider(1)};
  const std::vector<std::pair<const char*, ProgramFactory (*)()>> templates{
      {"mis_simple_greedy", &mis_simple_greedy},
      {"mis_consecutive_linial", &mis_consecutive_linial},
      {"mis_interleaved_gather", &mis_interleaved_gather},
      {"mis_parallel_linial", &mis_parallel_linial}};
  // Four templates per error level — 24 independent engines, one batch.
  BatchRunner runner({default_batch_workers()});
  std::vector<Predictions> preds;
  for (const ProviderPtr& src : sources) {
    preds.push_back(provide_with_seed(*src, g, ProblemKind::kMis, kSeed));
    for (const auto& t : templates) {
      runner.add(provider_job(g, t.second(), src, kSeed));
    }
  }
  auto results = take_results(runner.run_all());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const std::string measure = m("η1", eta1_mis(g, preds[i]));
    for (std::size_t k = 0; k < templates.size(); ++k) {
      const RunResult& r = results[templates.size() * i + k];
      c.run({"sorted_line_120", sources[i]->name(), templates[k].first,
             measure},
            r, mis_ok(g, r), kReport);
    }
  }
}

void e15c(Claims& c) {
  c.begin("E15c", "Simple Template with randomized R, Section 10",
          "Simple(Init, Luby) over 12 seeds: one error component vs many with "
          "the same η1; the mean sees the component count.");
  const std::size_t kTrials = 12;
  // All trials for all instances are one batch; each instance's slice of
  // the ordered results feeds the span-based aggregates.
  BatchRunner runner({default_batch_workers()});
  struct Instance {
    std::string name;
    std::size_t graph;
    Predictions pred;
  };
  std::vector<Instance> instances;
  std::vector<Graph> graphs;
  graphs.reserve(3);
  auto add_instance = [&](std::string name, Graph graph) {
    Graph& g = graphs.emplace_back(std::move(graph));
    auto pred =
        provide_with_seed(*neutral_provider(), g, ProblemKind::kMis, 0);
    for (std::size_t t = 0; t < kTrials; ++t) {
      runner.add(g, mis_simple_luby(977 + 13 * static_cast<int>(t)), pred);
    }
    instances.push_back({std::move(name), graphs.size() - 1, std::move(pred)});
  };
  add_instance("one_8line", make_line(8));
  for (int copies : {20, 200}) {
    Graph g = make_line(8);
    for (int i = 1; i < copies; ++i) g = disjoint_union(g, make_line(8));
    add_instance(fmt(copies) + "x_8lines", std::move(g));
  }
  auto results = take_results(runner.run_all());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Graph& g = graphs[instances[i].graph];
    const auto slice = std::span(results).subspan(i * kTrials, kTrials);
    const bool ok = all_mis_ok(g, slice);
    const std::string measure = m("η1", eta1_mis(g, instances[i].pred));
    c.add({instances[i].name, "neutral", "mis_simple_luby", measure,
           "mean rounds"},
          mean_rounds(slice), kReport, ok, 2);
    c.add({instances[i].name, "neutral", "mis_simple_luby", measure,
           "max rounds"},
          max_rounds(slice), kReport, ok);
  }
}

void e15d(Claims& c) {
  c.begin("E15d", "consistency vs verification, Section 1.2",
          "The local verifiers take 1 round, and every algorithm with "
          "predictions takes at most 3 at η = 0.");
  Rng rng(21);
  const Graph g = shuffled(make_grid(8, 8), rng);
  // The MIS claim is a sequential MIS; one exact_provider serves the other
  // three problems. The verifiers check each claim serially, and the four
  // algorithm runs are one batch.
  const std::vector<bool> in = sequential_mis(g);
  const Predictions mis{std::vector<Value>(in.begin(), in.end())};
  constexpr std::uint64_t kSeed = 21;
  const ProviderPtr exact = exact_provider();
  const auto matching =
      provide_with_seed(*exact, g, ProblemKind::kMatching, kSeed);
  const auto colors =
      provide_with_seed(*exact, g, ProblemKind::kColoring, kSeed);
  const auto edge_colors =
      provide_with_seed(*exact, g, ProblemKind::kEdgeColoring, kSeed);
  auto verified = [&](const char* problem, const char* verifier,
                      const VerificationResult& v) {
    c.add({"grid_8x8", problem, verifier, "—", "rounds"}, v.rounds,
          exactly(1), v.accepted);
  };
  verified("MIS", "verify_mis_locally",
           verify_mis_locally(g, mis.node_values()));
  verified("MaximalMatching", "verify_matching_locally",
           verify_matching_locally(g, matching.node_values()));
  verified("(D+1)-VertexCol", "verify_coloring_locally",
           verify_coloring_locally(g, colors.node_values(),
                                   g.max_degree() + 1));
  verified("(2D-1)-EdgeCol", "verify_edge_coloring_locally",
           verify_edge_coloring_locally(g, edge_colors.edge_values()));
  BatchRunner runner({default_batch_workers()});
  runner.add(g, mis_parallel_linial(), mis);
  runner.add(g, matching_parallel_linegraph(), matching);
  runner.add(g, coloring_parallel_linial(), colors);
  runner.add(g, edge_coloring_consecutive_linegraph(), edge_colors);
  const auto r = take_results(runner.run_all());
  c.run({"grid_8x8", "MIS", "mis_parallel_linial", m("η1", eta1_mis(g, mis))},
        r[0], mis_ok(g, r[0]), at_most(3));
  c.run({"grid_8x8", "MaximalMatching", "matching_parallel_linegraph",
         m("η1", eta1_matching(g, matching))},
        r[1], matching_ok(g, r[1]), at_most(3));
  c.run({"grid_8x8", "(D+1)-VertexCol", "coloring_parallel_linial",
         m("η1", eta1_coloring(g, colors))},
        r[2], coloring_ok(g, r[2]), at_most(3));
  c.run({"grid_8x8", "(2D-1)-EdgeCol", "edge_coloring_consecutive_linegraph",
         m("η1", eta1_edge_coloring(g, edge_colors))},
        r[3], edge_coloring_ok(g, r[3]), at_most(3));
}

void e16(Claims& c) {
  c.begin("E16", "Section 1.1, serving epochs",
          "One G(64, 0.06) instance churns through 8 epochs, each solved "
          "warm-started from the previous epoch's output and from scratch "
          "(the control). Totals over the epochs: at 1% churn each warm "
          "rounds total is below the control's, and the warm predictions' η "
          "total (epochs 1–7) does not fall as churn rises. A row is valid "
          "iff the stream's checksum is the same at 1 and 2 workers; a "
          "repeated stream is served from the result cache.");
  constexpr double kRates[] = {0.01, 0.05, 0.12, 0.25};
  const auto stream = [](double rate, int workers) {
    EpochConfig config;
    config.base = GraphSpec::gnp(64, 0.06, 21);
    config.churn.seed = 4242;
    config.churn.edge_remove_frac = rate;
    config.churn.edge_add_frac = rate;
    config.churn.node_remove_frac = rate / 2;
    config.churn.node_add_frac = rate / 2;
    config.epochs = 8;
    config.workers = workers;
    return config;
  };
  for (const EpochProblem& problem :
       {epoch_mis(), epoch_matching(), epoch_coloring()}) {
    std::optional<long> prev_eta;
    std::string prev_rate;
    for (double rate : kRates) {
      const EpochReport report = EpochHarness(problem, stream(rate, 2)).run();
      const bool ok = epoch_report_checksum(report) ==
                      epoch_report_checksum(
                          EpochHarness(problem, stream(rate, 1)).run());
      long warm_rounds = 0, control_rounds = 0, eta = 0;
      long warm_messages = 0, control_messages = 0;
      for (const EpochRecord& e : report.epochs) {
        warm_rounds += e.warm.rounds;
        control_rounds += e.control.rounds;
        warm_messages += e.warm.total_messages;
        control_messages += e.control.total_messages;
        // Epoch 0 has no previous output: its η is the scratch one's.
        if (e.epoch > 0) eta += e.eta;
      }
      const std::string param = "churn=" + fmt(rate);
      c.add({"gnp_64", param, problem.name, m("control", control_rounds),
             "warm rounds"},
            warm_rounds,
            rate == kRates[0] ? at_most(control_rounds - 1) : kReport, ok);
      c.add({"gnp_64", param, problem.name, m("control", control_messages),
             "warm messages"},
            warm_messages, kReport, ok);
      c.add({"gnp_64", param, problem.name,
             prev_eta ? m(("η at " + prev_rate).c_str(), *prev_eta) : "—",
             "warm η"},
            eta, prev_eta ? Bound{*prev_eta, std::nullopt} : kReport, ok);
      prev_eta = eta;
      prev_rate = fmt(rate);
    }
  }
  // The same stream twice on one harness: the repeat runs nothing.
  const EpochProblem mis = epoch_mis();
  EpochHarness harness(mis, stream(0.05, 2));
  const EpochReport cold = harness.run();
  const EpochReport repeat = harness.run();
  const bool same =
      epoch_report_checksum(repeat) == epoch_report_checksum(cold);
  const std::string jobs = m("jobs", 2 * static_cast<long>(cold.epochs.size()));
  c.add({"gnp_64", "churn=0.05, repeat", mis.name, jobs, "cache hits"},
        repeat.cache_hits, kReport, same);
  c.add({"gnp_64", "churn=0.05, repeat", mis.name, jobs, "cache misses"},
        repeat.cache_misses, exactly(0), same);
}

void e17(Claims& c) {
  c.begin("E17", "Section 1.1, prediction providers",
          "One churn step per problem: a correct solution on a stale "
          "snapshot is the prior, and the exact, neutral and warm-start "
          "providers serve the current graph. Each Simple run stays within "
          "its problem's degradation bound at the η1 it was served.");
  const Graph g = GraphSpec::gnp(96, 0.05, 505).build();
  // The stale snapshot: the same node set with 12 edges removed and 12
  // added.
  Rng churn_rng(606);
  const Graph stale = perturb_edges(g, 12, 12, churn_rng);
  for (const EpochProblem& problem :
       {epoch_mis(), epoch_matching(), epoch_coloring()}) {
    const std::vector<Value> prior =
        provide_with_seed(*exact_provider(), stale, problem.kind, 707)
            .node_values();
    int neutral_eta = 0;  // the neutral row runs before warm_start's
    for (const ProviderPtr& src : {exact_provider(), neutral_provider(),
                                   warm_start_provider(stale, prior)}) {
      const Predictions pred = provide_with_seed(*src, g, problem.kind, 808);
      const int eta = problem.eta(g, pred);
      const RunResult r = run_with_predictions(g, pred, problem.factory());
      if (src->name() == "neutral") neutral_eta = eta;
      // A warm start is valid only if it helps: η1 below the neutral row's.
      const bool helps = src->name() != "warm_start" || eta < neutral_eta;
      c.run({"gnp_96", src->name(), problem.name, m("η1", eta)}, r,
            r.completed && problem.check(g, r).empty() && helps,
            at_most(problem.degradation_bound(eta, g)));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  Claims claims;
  for (void (*claim)(Claims&) :
       {e1_e2, e3, e4, e5, e6, e6b, e7, e8, e7b, e9, e9b, e10a, e10b, e10c,
        e10d, e11, e11b, e12, e13a, e13b, e13c, e14, e15a, e15b, e15c, e15d,
       e16, e17}) {
    try {
      claim(claims);
    } catch (const std::exception& e) {
      claims.fail(e.what());
    }
  }
  return claims.finish();
}
