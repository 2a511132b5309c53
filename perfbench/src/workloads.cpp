#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "dist/coordinator.h"
#include "dist/worker.h"
#include "layers.h"
#include "oracle/ground_truth.h"
#include "serve/session_host.h"
#include "sketch/library.h"
#include "sketch/parser.h"
#include "sketch/printer.h"
#include "solver/equivalence.h"
#include "solver/grid_finder.h"
#include "solver/z3_finder.h"
#include "synth/synthesizer.h"
#include "util/rng.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace compsynth;

namespace {

// The work of a run. Each workload learns a fixed panel of latent targets,
// drawn once from kPanelSeed: the same targets and synthesis seeds in every
// run, so every count repeats exactly across runs and seeds. --seed only
// shuffles the order in which the panel runs. Measured on a 4-vCPU VM, a
// run affords 3 to 20 distinct targets, and at that size a seed-drawn panel
// moves questions_per_objective by 8 % (grid_fine) to 29 % (z3_homenet)
// between seeds -- far beyond any bound a timing could be held to
// (perfbench/README.md, "Noise").
//
// The timed phase runs the panel several times over (passes), each pass
// the same work. The host slows the process in spells of ten seconds to
// minutes that make single-threaded code 1.3-1.6x slower
// (perfbench/README.md, "Noise"); interference only ever adds time, so
// objectives_per_s and wait_p50_ms come from the fastest pass, the one
// least disturbed. Tail percentiles pool the waits of every pass. A panel
// has max(floor, round(seconds * per_second)) objectives (sessions), a
// pure function of --seconds; the floors put at least ten pooled wait
// samples beyond the tail percentile each workload reports (p99 needs
// 1000, p90 100).
constexpr std::uint64_t kPanelSeed = 1;

/// The warm-up objective of every set-up: a fixed target learned for at
/// most this many iterations, enough to reach every code path of the timed
/// phase while keeping set-up short.
constexpr std::uint64_t kWarmUpSeed = 2;
constexpr int kWarmUpIterations = 4;

struct Size {
  double per_second;
  int floor;
  int smoke;    // objectives (sessions) in a smoke run
  int passes;   // timed passes over the panel
  bool rotate;  // single-threaded: move between vCPUs (CpuRotation)
};
constexpr Size kGridFineSize{0.4, 10, 2, 5, false};
constexpr Size kZ3HomenetSize{0.12, 3, 1, 4, true};
constexpr Size kServeSwanSize{0.68, 17, 3, 8, true};
constexpr Size kDistSwanSize{0.48, 12, 2, 5, false};

/// Times each set-up is repeated; setup_s is their median.
constexpr int kSetupRepeats = 9;

/// One latent target: the architect's hidden objective and the seed of the
/// synthesis run that learns it.
struct Target {
  sketch::HoleAssignment holes;
  std::uint64_t seed = 0;
  int max_iterations = synth::SynthesisConfig{}.max_iterations;
};

/// `n` targets drawn uniformly over the sketch's hole grid from `stream`.
std::vector<Target> draw_targets(const sketch::Sketch& sk, std::uint64_t stream,
                                 int n) {
  util::Rng rng(0x70657266ULL ^ (stream * 0x9e3779b97f4a7c15ULL));
  std::vector<Target> out;
  for (int i = 0; i < n; ++i) {
    Target t;
    for (const sketch::HoleSpec& h : sk.holes()) {
      t.holes.index.push_back(rng.uniform_int(0, h.count - 1));
    }
    t.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1LL << 40));
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<Target> warm_up(const sketch::Sketch& sk) {
  std::vector<Target> t = draw_targets(sk, kWarmUpSeed, 1);
  t[0].max_iterations = kWarmUpIterations;
  return t;
}

/// The run's targets: the workload's panel in the order --seed picks.
std::vector<Target> panel(const sketch::Sketch& sk, const Options& o, Size s) {
  const int n = o.smoke ? s.smoke
                        : std::max(s.floor, static_cast<int>(std::lround(
                                                o.seconds * s.per_second)));
  std::vector<Target> targets = draw_targets(sk, kPanelSeed, n);
  util::Rng rng(o.seed);
  for (std::size_t i = targets.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(targets[i - 1], targets[j]);
  }
  return targets;
}

synth::SynthesisConfig synth_config(std::uint64_t seed) {
  synth::SynthesisConfig cfg;
  cfg.seed = seed;
  cfg.keep_transcript = false;
  return cfg;
}

synth::SynthesisConfig synth_config(const Target& t) {
  synth::SynthesisConfig cfg = synth_config(t.seed);
  cfg.max_iterations = t.max_iterations;
  return cfg;
}

/// GridFinder configured exactly as synth::make_grid_synthesizer does.
solver::GridFinderConfig grid_config(std::uint64_t seed, int threads,
                                     solver::ShardSyncBackend* backend) {
  solver::GridFinderConfig gc;
  gc.base = synth_config(seed).finder;
  gc.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  gc.threads = threads;
  gc.shard_backend = backend;
  return gc;
}

/// Moves a single-threaded workload to another vCPU before each set-up and
/// each pass. On a shared VM one vCPU at a time runs 1.3-1.6x slower for
/// tens of seconds (a busy neighbour on its physical core), while the
/// others run at full speed (perfbench/README.md, "Noise"). Spread over the
/// vCPUs, the fastest pass and the median set-up come from undisturbed
/// ones. Inert for
/// multi-threaded workloads, whose threads must not share one vCPU. Only
/// vCPUs the process may already use are chosen; restore() (or the
/// destructor) gives the process its CPU set back.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    if (!enabled || sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Runs the calling thread on the `step`-th allowed vCPU, round robin.
  void move_to(int step) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[static_cast<std::size_t>(step) % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  void restore() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
};

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Nearest-rank percentile (q in (0, 1]) of unsorted samples, in the
/// samples' unit. 0 when there are none.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The finder a synthesis run of target `seed` uses. Sets `*grid` when the
/// finder is a GridFinder, so the traced run can time its syncs apart.
using MakeFinder = std::function<std::unique_ptr<solver::CandidateFinder>(
    std::uint64_t seed, solver::GridFinder** grid)>;

MakeFinder grid_finder_factory(const sketch::Sketch& sk, int threads,
                               solver::ShardSyncBackend* backend) {
  return [&sk, threads, backend](std::uint64_t seed, solver::GridFinder** grid) {
    auto f = std::make_unique<solver::GridFinder>(
        sk, grid_config(seed, threads, backend));
    *grid = f.get();
    return f;
  };
}

/// One timed pass of a workload over its target list.
struct Pass {
  double wall_s = 0;
  std::vector<double> waits;  // seconds
  long questions = 0;         // oracle comparisons
  long failed = 0;            // runs that did not converge
  std::vector<std::optional<sketch::HoleAssignment>> learned;
  std::vector<std::uint64_t> digests;
  SolverTally tally;
};

/// Learns the targets in turn, one synthesis run each, against the
/// ground-truth architect. `forward_rank` = false asks the initial ranking
/// as compare calls, the way a hosted session does.
Pass run_objectives(const sketch::Sketch& sk, const std::vector<Target>& targets,
                    const MakeFinder& make, SpanLog& log,
                    bool forward_rank = true) {
  Pass p;
  const double t0 = now_s();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    log.set_parent(static_cast<std::int64_t>(i));
    oracle::GroundTruthOracle truth(sk, targets[i].holes);
    TimedOracle user(truth, log, p.waits, forward_rank);
    solver::GridFinder* grid = nullptr;
    auto finder = make(targets[i].seed, &grid);
    synth::Synthesizer synth(
        sk, std::make_unique<TimedFinder>(std::move(finder), grid, log, p.tally),
        synth_config(targets[i]));
    user.begin_objective();
    const double r0 = log.enabled() ? now_s() : 0;
    const synth::SynthesisResult r = synth.run(user);
    log.add("synth.run", r0, log.enabled() ? now_s() : 0);
    p.digests.push_back(user.end_objective());
    p.questions += r.oracle_comparisons;
    if (r.status != synth::SynthesisStatus::kConverged || !r.objective) {
      ++p.failed;
    }
    p.learned.push_back(r.objective);
  }
  p.wall_s = now_s() - t0;
  return p;
}

/// Learned objectives that Z3 confirms ranking-equivalent to their targets.
long count_equivalent(
    const sketch::Sketch& sk, const std::vector<Target>& targets,
    const std::vector<std::optional<sketch::HoleAssignment>>& learned) {
  long n = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (learned[i] && solver::ranking_equivalent(sk, *learned[i],
                                                 targets[i].holes,
                                                 synth_config(1).finder)) {
      ++n;
    }
  }
  return n;
}

/// Every per-layer metric, in the order BENCHMARK.json lists them. Layers a
/// workload does not run read 0.
struct LayerTable {
  std::vector<Metric> rows;

  LayerTable() {
    const char* spans[] = {"solver.sync_full", "solver.sync_incr",
                           "solver.pair_search", "solver.z3_distinguish",
                           "oracle", "dist.sync_shards"};
    for (const char* s : spans) {
      add(std::string(s) + ".calls", "count");
      add(std::string(s) + ".busy_s", "s");
      add(std::string(s) + ".share", "ratio");
    }
    for (const char* s : {"solver.find_consistent", "solver.z3_consistent"}) {
      add(std::string(s) + ".calls", "count");
      add(std::string(s) + ".busy_s", "s");
    }
    add("solver.survivors_after_full", "count");
    add("solver.unknown", "count");
    add("synth.self_s", "s");
    for (const char* v : {"serve.create", "serve.next", "serve.answer"}) {
      add(std::string(v) + ".calls", "count");
      add(std::string(v) + ".busy_s", "s");
      add(std::string(v) + ".p50_ms", "ms");
    }
    add("serve.rehydrations_per_answer", "ratio");
    add("serve.swaps_per_answer", "ratio");
    add("serve.errors", "count");
    add("session.disk_bytes_per_session", "B");
    add("dist.sync_shards.cpu_share", "ratio");
    add("dist.fallbacks", "count");
    add("unattributed_share", "ratio");
    add("tracing_overhead", "ratio");
  }

  void add(const std::string& name, const char* unit) {
    rows.push_back({name, 0, unit});
  }
  void set(const std::string& name, double value) {
    for (Metric& m : rows) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    throw std::logic_error("unknown layer metric " + name);
  }
  /// calls / busy_s / share (share of `wall`) of every span named `name`.
  void set_span(const SpanLog& log, const std::string& name, double wall,
                bool with_share = true) {
    const double busy = log.busy(name);
    set(name + ".calls", static_cast<double>(log.calls(name)));
    set(name + ".busy_s", busy);
    if (with_share) set(name + ".share", wall > 0 ? busy / wall : 0);
  }
};

/// Layer metrics of an in-process pass (grid, Z3 or dist workloads).
void fill_synthesis_layers(LayerTable& t, const SpanLog& log, const Pass& p) {
  const double wall = p.wall_s;
  for (const char* s : {"solver.sync_full", "solver.sync_incr",
                        "solver.pair_search", "solver.z3_distinguish",
                        "oracle"}) {
    t.set_span(log, s, wall);
  }
  t.set_span(log, "solver.find_consistent", wall, false);
  t.set_span(log, "solver.z3_consistent", wall, false);
  t.set("solver.survivors_after_full",
        p.tally.full_syncs > 0
            ? p.tally.survivors_after_full / static_cast<double>(p.tally.full_syncs)
            : 0);
  t.set("solver.unknown", static_cast<double>(p.tally.unknown));
  double finder = 0;
  for (const char* s : {"solver.sync_full", "solver.sync_incr",
                        "solver.pair_search", "solver.find_consistent",
                        "solver.z3_distinguish", "solver.z3_consistent"}) {
    finder += log.busy(s);
  }
  const double runs = log.busy("synth.run");
  t.set("synth.self_s", runs - finder - log.busy("oracle"));
  t.set("unattributed_share", wall > 0 ? (wall - runs) / wall : 0);
}

/// What every workload reports once its passes are done.
struct Outcome {
  std::vector<double> setup_s;
  long objectives = 0;  // per pass
  long failed = 0;      // over all passes
  std::vector<double> pass_wall_s;
  std::vector<double> pass_p50_s;
  std::vector<std::vector<double>> pass_waits;  // seconds
  double tail_q = 0.99;
  long questions = 0;  // per pass
  long equivalent = 0;
  std::vector<std::uint64_t> digests;
  /// Peak RSS at the end of the timed passes, before the correctness checks
  /// and the traced pass can add to it.
  double peak_rss_mb = 0;

  /// Adds one timed pass.
  void add_pass(double wall_s, const std::vector<double>& waits) {
    pass_wall_s.push_back(wall_s);
    pass_p50_s.push_back(percentile(waits, 0.5));
    pass_waits.push_back(waits);
  }

  /// The pooled waits of the fastest passes that together put at least ten
  /// samples beyond the tail percentile (all passes if they cannot): like
  /// the rates, the tail comes from the passes the host disturbed least.
  std::vector<double> tail_waits() const {
    std::vector<std::size_t> order(pass_wall_s.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
      return pass_wall_s[a] < pass_wall_s[b];
    });
    const auto needed = static_cast<std::size_t>(std::lround(10 / (1 - tail_q)));
    std::vector<double> out;
    for (std::size_t k : order) {
      if (out.size() >= needed) break;
      out.insert(out.end(), pass_waits[k].begin(), pass_waits[k].end());
    }
    return out;
  }
};

void finish(RunReport& rep, const Outcome& o) {
  const long passes = static_cast<long>(o.pass_wall_s.size());
  rep.attempted = o.objectives * passes;
  rep.failed = o.failed;
  const double n = static_cast<double>(std::max<long>(o.objectives, 1));
  const std::vector<double> tail = o.tail_waits();
  rep.metrics = {
      {"setup_s", median(o.setup_s), "s"},
      {"objectives_per_s",
       n / *std::min_element(o.pass_wall_s.begin(), o.pass_wall_s.end()), "1/s"},
      {"wait_p50_ms",
       1e3 * *std::min_element(o.pass_p50_s.begin(), o.pass_p50_s.end()), "ms"},
      {"wait_tail_ms", 1e3 * percentile(tail, o.tail_q), "ms"},
      {"questions_per_objective", static_cast<double>(o.questions) / n, "count"},
      {"equivalent_share", static_cast<double>(o.equivalent) / n, "ratio"},
      {"peak_rss_mb", o.peak_rss_mb, "MiB"},
  };
  rep.samples = {{"setup_s", static_cast<long>(o.setup_s.size())},
                 {"passes", passes},
                 {"objectives_per_pass", o.objectives},
                 {"waits_per_pass",
                  passes > 0 ? static_cast<long>(o.pass_waits[0].size()) : 0},
                 {"wait_tail_ms", static_cast<long>(tail.size())},
                 {"wait_tail_percentile", std::lround(100 * o.tail_q)}};
  rep.counts.insert(rep.counts.begin(),
                    {{"objectives", o.objectives},
                     {"questions", o.questions},
                     {"equivalent", o.equivalent},
                     {"failed", o.failed}});
  for (std::uint64_t d : o.digests) rep.digests.push_back(hex64(d));
  for (long k = 0; k < passes; ++k) {
    const std::string pass = "pass" + std::to_string(k);
    rep.phases.push_back({pass, o.pass_wall_s[k]});
    rep.phases.push_back({pass + "_wait_p50", o.pass_p50_s[k]});
  }
}

void fail(RunReport& rep, const std::string& why) {
  rep.correct = false;
  rep.problems.push_back(why);
}

std::string span_path(const Options& o) {
  return (fs::path(o.state_dir) /
          ("spans-" + o.workload + "-" + std::to_string(o.seed) + ".jsonl"))
      .string();
}

// ---------------------------------------------------------------------------
// In-process synthesis workloads: grid_fine, z3_homenet, dist_swan.

/// Everything a synthesis workload builds in set-up. `make` may refer to
/// objects the set-up owns (workers, coordinator); they live as long as the
/// Rig does.
struct Rig {
  MakeFinder make;
  std::vector<std::unique_ptr<dist::Worker>> workers;
  std::unique_ptr<dist::ShardCoordinator> coordinator;
  std::unique_ptr<TimedShardBackend> backend;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    for (auto& w : workers) {
      w->stop();
      w->wait();
    }
  }
};

/// Runs a synthesis workload: set-up, timed passes, correctness checks
/// and, when tracing, the traced pass. `reference`, when set, builds the
/// finders of a local run that must ask the same questions. `proved`: the
/// back-end's unique-ranking verdict is a proof, so every learned objective
/// must be ranking-equivalent to its target.
RunReport run_synthesis(const Options& o, const sketch::Sketch& sk, Size size,
                        double tail_q,
                        const std::function<std::unique_ptr<Rig>()>& build,
                        const MakeFinder& reference, bool proved) {
  RunReport rep;
  Outcome out;
  out.tail_q = tail_q;
  SpanLog off(false);
  SpanLog traced(true);

  // Set-up, repeated: build the rig, draw the targets, learn one fixed
  // warm-up objective. The last rig serves the timed passes.
  std::unique_ptr<Rig> rig;
  std::vector<Target> targets;
  CpuRotation rotation(size.rotate);
  double t0 = 0;  // process start for the first repetition
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (r > 0) t0 = now_s();
    rotation.move_to(r);
    rig.reset();
    rig = build();
    targets = panel(sk, o, size);
    run_objectives(sk, warm_up(sk), rig->make, off);
    out.setup_s.push_back(now_s() - t0);
  }

  const double timed_t0 = now_s();
  const double cpu_t0 = process_cpu_s();
  Pass measured;
  for (int k = 0; k < size.passes; ++k) {
    rotation.move_to(k);
    Pass p = run_objectives(sk, targets, rig->make, off);
    out.add_pass(p.wall_s, p.waits);
    out.failed += p.failed;
    if (k == 0) {
      measured = std::move(p);
    } else if (p.digests != measured.digests || p.learned != measured.learned) {
      fail(rep, "two passes over the same targets asked different questions");
    }
  }
  rotation.restore();
  out.objectives = static_cast<long>(targets.size());
  out.questions = measured.questions;
  out.digests = measured.digests;

  // Correctness, outside the timed phase.
  const double checks_t0 = now_s();
  const double measured_cpu_s = process_cpu_s() - cpu_t0;
  out.peak_rss_mb = peak_rss_mib();
  out.equivalent = count_equivalent(sk, targets, measured.learned);
  if (out.failed != 0) fail(rep, "a synthesis run did not converge");
  if (proved && out.equivalent != out.objectives) {
    fail(rep, "a learned objective is not ranking-equivalent to its target");
  }
  if (reference) {
    const Pass ref = run_objectives(sk, targets, reference, off);
    if (ref.digests != measured.digests) {
      fail(rep, "question sequence differs from the local reference run");
    }
  }
  if (rig->backend) {
    out.failed += rig->backend->fallbacks();
    if (rig->backend->fallbacks() != 0) fail(rep, "distributed sync fell back");
    rep.counts.push_back({"dist.sync_shards.calls", rig->backend->calls()});
  }
  rep.phases = {{"setup", timed_t0},
                {"measured", checks_t0 - timed_t0},
                {"measured_cpu", measured_cpu_s},
                {"checks", now_s() - checks_t0}};

  if (o.trace) {
    const long calls_before = rig->backend ? rig->backend->calls() : 0;
    if (rig->backend) rig->backend->set_log(traced);
    const Pass tp = run_objectives(sk, targets, rig->make, traced);
    if (tp.digests != measured.digests) {
      fail(rep, "the traced pass asked different questions");
    }
    LayerTable t;
    fill_synthesis_layers(t, traced, tp);
    if (rig->backend) {
      t.set_span(traced, "dist.sync_shards", tp.wall_s);
      const double busy = traced.busy("dist.sync_shards");
      t.set("dist.sync_shards.cpu_share",
            busy > 0 ? rig->backend->cpu_s() / busy : 0);
      t.set("dist.fallbacks", static_cast<double>(rig->backend->fallbacks()));
      if (rig->backend->calls() - calls_before != traced.calls("solver.sync_full")) {
        fail(rep, "a full sync did not go through the coordinator");
      }
    }
    t.set("tracing_overhead", tp.wall_s / median(out.pass_wall_s) - 1);
    rep.phases.push_back({"traced", tp.wall_s});
    rep.layers = t.rows;
    rep.span_file = span_path(o);
    traced.write_jsonl(rep.span_file);
  }
  finish(rep, out);
  return rep;
}

RunReport grid_fine(const Options& o) {
  const sketch::Sketch sk = sketch::parse_sketch(
      read_file((fs::path(o.sketch_dir) / "swan_fine.sketch").string()));
  const auto build = [&sk] {
    auto rig = std::make_unique<Rig>();
    rig->make = grid_finder_factory(sk, 2, nullptr);
    return rig;
  };
  return run_synthesis(o, sk, kGridFineSize, 0.99, build, nullptr, false);
}

RunReport z3_homenet(const Options& o) {
  const sketch::Sketch& sk = sketch::homenet_sketch();
  const auto build = [&sk] {
    auto rig = std::make_unique<Rig>();
    rig->make = [&sk](std::uint64_t seed, solver::GridFinder**) {
      return std::make_unique<solver::Z3Finder>(sk, synth_config(seed).finder);
    };
    return rig;
  };
  return run_synthesis(o, sk, kZ3HomenetSize, 0.90, build, nullptr, true);
}

RunReport dist_swan(const Options& o) {
  const sketch::Sketch& sk = sketch::swan_sketch();
  const auto build = [&sk] {
    auto rig = std::make_unique<Rig>();
    dist::CoordinatorConfig cc;
    for (int i = 0; i < 2; ++i) {
      dist::WorkerConfig wc;
      wc.listen = "tcp:127.0.0.1:0";
      rig->workers.push_back(std::make_unique<dist::Worker>(wc));
      rig->workers.back()->start();
      cc.workers.push_back(rig->workers.back()->endpoint());
    }
    cc.sketch_text = sketch::print_sketch(sk);
    rig->coordinator = std::make_unique<dist::ShardCoordinator>(std::move(cc));
    rig->backend = std::make_unique<TimedShardBackend>(*rig->coordinator);
    rig->make = grid_finder_factory(sk, 1, rig->backend.get());
    return rig;
  };
  return run_synthesis(o, sk, kDistSwanSize, 0.99, build,
                       grid_finder_factory(sk, 1, nullptr), false);
}

// ---------------------------------------------------------------------------
// serve_swan: many sessions in one in-process SessionHost.

struct ServePass {
  double wall_s = 0;
  std::vector<double> waits;
  long answers = 0;
  long errors = 0;  // HostResult errors; each also fails its session
  long failed = 0;  // sessions that failed or ended other than converged
  std::vector<std::uint64_t> digests;
  std::vector<std::string> objectives;  // print_instantiated, "" if none
  serve::HostStats before;
  serve::HostStats after;
  double disk_bytes = 0;  // summed over the pass's session directories
};

serve::CreateParams session_params(const std::string& id, const Target& t) {
  serve::CreateParams p;
  p.id = id;
  p.sketch = "swan";
  p.backend = "grid";
  p.seed = t.seed;
  const synth::SynthesisConfig cfg = synth_config(t);
  p.initial = cfg.initial_scenarios;
  p.pairs = cfg.pairs_per_iteration;
  p.max_iters = cfg.max_iterations;
  return p;
}

/// Creates one session per target (ids `<prefix><i>`), then answers them
/// round robin from one thread, one outstanding question per session.
ServePass run_sessions(serve::SessionHost& host, const sketch::Sketch& sk,
                       const std::vector<Target>& targets,
                       const std::string& prefix, SpanLog& log) {
  ServePass p;
  const std::size_t n = targets.size();
  std::vector<std::unique_ptr<oracle::GroundTruthOracle>> truth;
  std::vector<Digest> digests(n);
  std::vector<serve::SessionView> views(n);
  std::vector<bool> live(n, false);
  p.objectives.assign(n, "");
  p.before = host.stats();

  const auto id_of = [&prefix](std::size_t i) { return prefix + std::to_string(i); };
  const auto call = [&](const char* name, const std::function<serve::HostResult()>& f) {
    const double t0 = log.enabled() ? now_s() : 0;
    const serve::HostResult r = f();
    log.add(name, t0, log.enabled() ? now_s() : 0);
    if (!r.ok) ++p.errors;
    return r.ok;
  };
  // After a next: record a finished session, or keep it live if waiting.
  const auto settle = [&](std::size_t i) {
    live[i] = false;
    switch (views[i].phase) {
      case serve::SessionPhase::kWaiting:
        live[i] = true;
        return;
      case serve::SessionPhase::kDone:
        p.objectives[i] = views[i].objective;
        if (views[i].status != "converged") ++p.failed;
        return;
      default:
        ++p.failed;
        return;
    }
  };

  const double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    log.set_parent(static_cast<std::int64_t>(i));
    truth.push_back(std::make_unique<oracle::GroundTruthOracle>(sk, targets[i].holes));
    const std::string id = id_of(i);
    if (!call("serve.create", [&] { return host.create(session_params(id, targets[i])); }) ||
        !call("serve.next", [&] { return host.next(id, 30000, &views[i]); })) {
      ++p.failed;
      continue;
    }
    settle(i);
  }
  for (bool any = true; any;) {
    any = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!live[i]) continue;
      any = true;
      log.set_parent(static_cast<std::int64_t>(i));
      const serve::PendingQuery& q = *views[i].pending;
      const oracle::Preference answer = truth[i]->compare(q.a, q.b);
      const long index = q.index;
      const std::string id = id_of(i);
      const double w0 = now_s();
      digest_question(digests[i], q.a, q.b, answer);
      const bool ok =
          call("serve.answer", [&] { return host.answer(id, index, answer); }) &&
          call("serve.next", [&] { return host.next(id, 30000, &views[i]); });
      p.waits.push_back(now_s() - w0);
      ++p.answers;
      if (!ok) {
        live[i] = false;
        ++p.failed;
        continue;
      }
      settle(i);
    }
  }
  p.wall_s = now_s() - t0;
  p.after = host.stats();
  for (const Digest& d : digests) p.digests.push_back(d.value());
  for (std::size_t i = 0; i < n; ++i) {
    const fs::path dir = fs::path(host.config().root) / id_of(i);
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (e.is_regular_file()) p.disk_bytes += static_cast<double>(e.file_size());
    }
  }
  return p;
}

/// A session's reference: the same synthesis run directly, asking the
/// initial ranking as compares the way the host does.
struct DirectRun {
  std::uint64_t digest = 0;
  std::string objective;
  std::optional<sketch::HoleAssignment> learned;
};

DirectRun direct_run(const sketch::Sketch& sk, const Target& t) {
  SpanLog off(false);
  std::vector<double> waits;
  oracle::GroundTruthOracle truth(sk, t.holes);
  TimedOracle user(truth, off, waits, /*forward_rank=*/false);
  synth::SynthesisConfig cfg = synth_config(t);
  cfg.grid_threads = 1;
  synth::Synthesizer s = synth::make_grid_synthesizer(sk, cfg);
  user.begin_objective();
  const synth::SynthesisResult r = s.run(user);
  DirectRun out;
  out.digest = user.end_objective();
  out.learned = r.objective;
  if (r.objective) out.objective = sketch::print_instantiated(sk, *r.objective);
  return out;
}

RunReport serve_swan(const Options& o) {
  RunReport rep;
  Outcome out;
  out.tail_q = 0.99;
  const sketch::Sketch& sk = sketch::swan_sketch();
  SpanLog off(false);
  SpanLog traced(true);
  const fs::path base = fs::path(o.state_dir) /
                        ("serve-" + std::to_string(getpid()));

  std::unique_ptr<serve::SessionHost> host;
  std::vector<Target> targets;
  CpuRotation rotation(kServeSwanSize.rotate);
  double t0 = 0;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (r > 0) t0 = now_s();
    rotation.move_to(r);
    host.reset();
    const fs::path root = base / ("host" + std::to_string(r));
    fs::create_directories(root);
    serve::HostConfig hc;
    hc.root = root.string();
    hc.max_active = 4;
    hc.grid_threads = 1;
    host = std::make_unique<serve::SessionHost>(hc);
    host->register_sketch(sk);
    targets = panel(sk, o, kServeSwanSize);
    const ServePass warm = run_sessions(*host, sk, warm_up(sk), "warm", off);
    if (warm.errors != 0) fail(rep, "the warm-up session failed");
    out.setup_s.push_back(now_s() - t0);
  }

  const double timed_t0 = now_s();
  const double cpu_t0 = process_cpu_s();
  ServePass m;
  for (int k = 0; k < kServeSwanSize.passes; ++k) {
    rotation.move_to(k);
    ServePass p = run_sessions(*host, sk, targets, "m" + std::to_string(k) + "-", off);
    out.add_pass(p.wall_s, p.waits);
    out.failed += p.failed;
    rep.counts.push_back({"serve.rehydrations." + std::to_string(k),
                          p.after.rehydrations - p.before.rehydrations});
    rep.counts.push_back({"serve.swaps." + std::to_string(k),
                          p.after.swaps - p.before.swaps});
    if (k == 0) {
      m = std::move(p);
    } else if (p.digests != m.digests || p.objectives != m.objectives) {
      fail(rep, "two passes over the same sessions asked different questions");
    }
  }
  rotation.restore();
  out.objectives = static_cast<long>(targets.size());
  out.questions = m.answers;
  out.digests = m.digests;
  if (out.failed != 0) fail(rep, "a session failed");

  // Correctness: each session must ask exactly what a direct run asks and
  // learn the same objective; Z3 judges the objective against the target.
  const double checks_t0 = now_s();
  const double measured_cpu_s = process_cpu_s() - cpu_t0;
  out.peak_rss_mb = peak_rss_mib();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const DirectRun d = direct_run(sk, targets[i]);
    if (d.digest != m.digests[i] || d.objective != m.objectives[i]) {
      fail(rep, "session " + std::to_string(i) + " differs from the direct run");
    }
    if (d.learned && solver::ranking_equivalent(sk, *d.learned, targets[i].holes,
                                                synth_config(1).finder)) {
      ++out.equivalent;
    }
  }

  rep.phases = {{"setup", timed_t0},
                {"measured", checks_t0 - timed_t0},
                {"measured_cpu", measured_cpu_s},
                {"checks", now_s() - checks_t0}};
  if (o.trace) {
    const ServePass tp = run_sessions(*host, sk, targets, "t-", traced);
    if (tp.digests != m.digests) fail(rep, "the traced pass asked different questions");
    LayerTable t;
    double busy = 0;
    for (const char* v : {"serve.create", "serve.next", "serve.answer"}) {
      t.set_span(traced, v, tp.wall_s, false);
      t.set(std::string(v) + ".p50_ms", 1e3 * median(traced.durations(v)));
      busy += traced.busy(v);
    }
    const double answers = static_cast<double>(std::max<long>(tp.answers, 1));
    t.set("serve.rehydrations_per_answer",
          static_cast<double>(tp.after.rehydrations - tp.before.rehydrations) / answers);
    t.set("serve.swaps_per_answer",
          static_cast<double>(tp.after.swaps - tp.before.swaps) / answers);
    t.set("serve.errors", static_cast<double>(tp.errors));
    t.set("session.disk_bytes_per_session",
          tp.disk_bytes / static_cast<double>(targets.size()));
    t.set("unattributed_share", (tp.wall_s - busy) / tp.wall_s);
    t.set("tracing_overhead", tp.wall_s / median(out.pass_wall_s) - 1);
    rep.phases.push_back({"traced", tp.wall_s});
    rep.layers = t.rows;
    rep.span_file = span_path(o);
    traced.write_jsonl(rep.span_file);
  }
  host.reset();
  fs::remove_all(base);
  finish(rep, out);
  return rep;
}

}  // namespace

RunReport run_workload(const Options& o) {
  fs::create_directories(o.state_dir);
  if (o.workload == "grid_fine") return grid_fine(o);
  if (o.workload == "z3_homenet") return z3_homenet(o);
  if (o.workload == "serve_swan") return serve_swan(o);
  if (o.workload == "dist_swan") return dist_swan(o);
  throw std::invalid_argument("unknown workload: " + o.workload);
}

double memory_probe_ns() {
  // One 64-byte line per slot, linked into a single random cycle (Sattolo's
  // algorithm over the line order), so every step of the walk is a
  // dependent load from a line the prefetchers cannot predict.
  struct alignas(64) Line {
    std::uint32_t next = 0;
  };
  constexpr std::uint32_t kLines = 1u << 20;  // 64 MiB
  constexpr long kSteps = 2'000'000;
  std::vector<std::uint32_t> order(kLines);
  for (std::uint32_t i = 0; i < kLines; ++i) order[i] = i;
  util::Rng rng(0x6d656dULL);
  for (std::uint32_t i = kLines - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<std::size_t>(rng.uniform_int(0, i - 1))]);
  }
  std::vector<Line> table(kLines);
  for (std::uint32_t i = 0; i < kLines; ++i) {
    table[order[i]].next = order[(i + 1) % kLines];
  }
  std::uint32_t at = order[0];
  const double t0 = now_s();
  for (long s = 0; s < kSteps; ++s) at = table[at].next;
  const double t1 = now_s();
  if (at >= kLines) throw std::logic_error("memory probe walked off the table");
  return 1e9 * (t1 - t0) / kSteps;
}

}  // namespace perfbench
