#include "layers.h"

#include <time.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

using compsynth::oracle::Preference;
using compsynth::oracle::RankingResponse;
using compsynth::pref::Scenario;

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double SpanLog::busy(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.end - s.start;
  }
  return total;
}

long SpanLog::calls(const std::string& name) const {
  long n = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ++n;
  }
  return n;
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.end - s.start);
  }
  return out;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%lld}\n",
                  s.name, s.start, s.end, static_cast<long long>(s.parent));
    out << line;
  }
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void digest_question(Digest& d, const Scenario& a, const Scenario& b,
                     Preference answer) {
  for (double m : a.metrics) d.real(m);
  for (double m : b.metrics) d.real(m);
  d.u64(static_cast<std::uint64_t>(answer));
}

TimedOracle::TimedOracle(compsynth::oracle::GroundTruthOracle& inner,
                         SpanLog& log, std::vector<double>& waits,
                         bool forward_rank)
    : inner_(inner), log_(log), waits_(waits), forward_rank_(forward_rank) {}

void TimedOracle::begin_objective() {
  digest_ = Digest();
  answered_at_.reset();
}

std::uint64_t TimedOracle::end_objective() {
  if (answered_at_) waits_.push_back(now_s() - *answered_at_);
  answered_at_.reset();
  return digest_.value();
}

double TimedOracle::enter() {
  const double t = now_s();
  if (answered_at_) waits_.push_back(t - *answered_at_);
  return t;
}

void TimedOracle::leave(double entered) {
  const double t = now_s();
  log_.add("oracle", entered, t);
  answered_at_ = t;
}

Preference TimedOracle::do_compare(const Scenario& a, const Scenario& b) {
  const double t = enter();
  const Preference p = inner_.compare(a, b);
  leave(t);
  digest_question(digest_, a, b, p);
  return p;
}

RankingResponse TimedOracle::do_rank(std::span<const Scenario> scenarios) {
  // Without forwarding, the base class asks the ranking as a chain of
  // compare calls, each of which is timed and digested on its own.
  if (!forward_rank_) return Oracle::do_rank(scenarios);
  const double t = enter();
  RankingResponse r = inner_.rank(scenarios);
  leave(t);
  for (const Scenario& s : scenarios) {
    for (double m : s.metrics) digest_.real(m);
  }
  for (const auto& p : r.preferences) {
    digest_.u64(p.better);
    digest_.u64(p.worse);
  }
  for (const auto& p : r.ties) {
    digest_.u64(p.a);
    digest_.u64(p.b);
  }
  return r;
}

TimedFinder::TimedFinder(
    std::unique_ptr<compsynth::solver::CandidateFinder> inner,
    compsynth::solver::GridFinder* grid, SpanLog& log, SolverTally& tally)
    : inner_(std::move(inner)), grid_(grid), log_(log), tally_(tally) {}

compsynth::solver::FinderResult TimedFinder::find_distinguishing(
    const compsynth::pref::PreferenceGraph& graph, int num_pairs) {
  compsynth::solver::FinderResult r;
  if (!log_.enabled()) {
    r = inner_->find_distinguishing(graph, num_pairs);
  } else if (grid_ != nullptr) {
    const double t0 = now_s();
    grid_->sync(graph);
    const double t1 = now_s();
    log_.add(synced_ ? "solver.sync_incr" : "solver.sync_full", t0, t1);
    if (!synced_) {
      ++tally_.full_syncs;
      tally_.survivors_after_full +=
          static_cast<double>(grid_->version_space_size());
    }
    synced_ = true;
    r = inner_->find_distinguishing(graph, num_pairs);
    log_.add("solver.pair_search", t1, now_s());
  } else {
    const double t0 = now_s();
    r = inner_->find_distinguishing(graph, num_pairs);
    log_.add("solver.z3_distinguish", t0, now_s());
  }
  if (r.status == compsynth::solver::FinderStatus::kUnknown) ++tally_.unknown;
  return r;
}

std::optional<compsynth::sketch::HoleAssignment> TimedFinder::find_consistent(
    const compsynth::pref::PreferenceGraph& graph) {
  const double t0 = log_.enabled() ? now_s() : 0;
  auto r = inner_->find_consistent(graph);
  log_.add(grid_ != nullptr ? "solver.find_consistent" : "solver.z3_consistent",
           t0, log_.enabled() ? now_s() : 0);
  return r;
}

void TimedFinder::set_run_context(const compsynth::obs::RunContext* ctx) {
  CandidateFinder::set_run_context(ctx);
  inner_->set_run_context(ctx);
}

std::optional<std::vector<std::string>> TimedShardBackend::sync_shards(
    const compsynth::pref::PreferenceGraph& graph,
    const std::vector<compsynth::solver::ShardRange>& ranges) {
  ++calls_;
  const bool traced = log_->enabled();
  const double t0 = traced ? now_s() : 0;
  const double c0 = traced ? process_cpu_s() : 0;
  auto r = inner_.sync_shards(graph, ranges);
  if (traced) {
    cpu_s_ += process_cpu_s() - c0;
    log_->add("dist.sync_shards", t0, now_s());
  }
  if (!r) ++fallbacks_;
  return r;
}

}  // namespace perfbench
