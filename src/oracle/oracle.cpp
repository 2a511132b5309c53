#include "oracle/oracle.h"

#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/run_context.h"

namespace compsynth::oracle {

const char* preference_name(Preference p) {
  switch (p) {
    case Preference::kFirst: return "first";
    case Preference::kSecond: return "second";
    case Preference::kTie: return "tie";
  }
  return "?";
}

namespace {

// Runs `attempt_fn` under the retry policy: OracleTimeout is surfaced as a
// "fault" event + oracle.timeouts, then retried with backoff ("retry" event
// + oracle.retries) until the policy's attempt budget is exhausted, at which
// point the timeout escapes to the synthesis loop.
template <typename F>
auto with_retry(const util::RetryPolicy& policy, const obs::RunContext* obs,
                const char* op, F&& attempt_fn) {
  for (int attempt = 1;; ++attempt) {
    try {
      return attempt_fn();
    } catch (const OracleTimeout&) {
      if (obs::active(obs)) {
        obs->count("oracle.timeouts");
        if (obs->tracing()) {
          obs::TraceEvent e("fault");
          e.str("site", "oracle").str("kind", "timeout").str("op", op)
              .integer("attempt", attempt);
          obs->emit(e);
        }
      }
      if (attempt >= policy.max_attempts) throw;
      const double backoff = policy.backoff_before(attempt + 1);
      if (obs::active(obs)) {
        obs->count("oracle.retries");
        if (obs->tracing()) {
          obs::TraceEvent e("retry");
          e.str("site", "oracle").str("op", op)
              .integer("attempt", attempt + 1)
              .num("backoff_s", backoff);
          obs->emit(e);
        }
      }
      util::sleep_seconds(backoff);
    }
  }
}

}  // namespace

Preference Oracle::compare(const pref::Scenario& a, const pref::Scenario& b) {
  ++comparisons_;
  const Preference answer =
      with_retry(retry_, obs_, "compare", [&] { return do_compare(a, b); });
  if (obs::active(obs_)) {
    obs_->count("oracle.comparisons");
    if (obs_->tracing()) {
      obs::TraceEvent e("oracle_query");
      e.str("kind", "compare")
          .integer("index", comparisons_)
          .str("answer", preference_name(answer));
      obs_->emit(e);
    }
  }
  return answer;
}

RankingResponse Oracle::rank(std::span<const pref::Scenario> scenarios) {
  if (!scenarios.empty()) ++rankings_;
  RankingResponse response =
      with_retry(retry_, obs_, "rank", [&] { return do_rank(scenarios); });
  if (!scenarios.empty() && obs::active(obs_)) {
    obs_->count("oracle.rankings");
    if (obs_->tracing()) {
      obs::TraceEvent e("oracle_query");
      e.str("kind", "rank")
          .integer("index", rankings_)
          .integer("batch", static_cast<long long>(scenarios.size()))
          .integer("preferences",
                   static_cast<long long>(response.preferences.size()))
          .integer("ties", static_cast<long long>(response.ties.size()));
      obs_->emit(e);
    }
  }
  return response;
}

RankingResponse Oracle::do_rank(std::span<const pref::Scenario> scenarios) {
  // Generic ranking via comparisons only. NOTE: noisy users make the
  // comparison relation inconsistent (not a strict weak order), so feeding
  // it to std::sort would be undefined behaviour. A hand-rolled insertion
  // ranking is safe under arbitrary (even contradictory) answers.
  std::vector<std::size_t> order;
  order.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    std::size_t pos = 0;
    while (pos < order.size() &&
           do_compare(scenarios[i], scenarios[order[pos]]) != Preference::kFirst) {
      ++pos;
    }
    order.insert(order.begin() + static_cast<std::ptrdiff_t>(pos), i);
  }

  // Report the adjacent relations of the chain; transitivity of the
  // synthesized objective makes the chain as informative as all O(n^2)
  // pairs.
  RankingResponse out;
  for (std::size_t k = 0; k + 1 < order.size(); ++k) {
    const std::size_t hi = order[k];
    const std::size_t lo = order[k + 1];
    switch (do_compare(scenarios[hi], scenarios[lo])) {
      case Preference::kFirst:
        out.preferences.push_back({hi, lo});
        break;
      case Preference::kSecond:
        // Inconsistent answers (noise) are recorded as given.
        out.preferences.push_back({lo, hi});
        break;
      case Preference::kTie:
        out.ties.push_back({hi, lo});
        break;
    }
  }
  return out;
}

void Oracle::save_state(std::ostream& out) const {
  out << "oracle " << comparisons_ << ' ' << rankings_ << '\n';
  do_save_state(out);
}

std::string Oracle::save_state() const {
  std::ostringstream os;
  save_state(os);
  return os.str();
}

void Oracle::restore_state(std::istream& in) {
  std::string tag;
  long comparisons = 0, rankings = 0;
  if (!(in >> tag >> comparisons >> rankings) || tag != "oracle") {
    throw std::invalid_argument("Oracle::restore_state: malformed header");
  }
  in.ignore();  // trailing newline before subclass state
  // Subclass restore runs first so a throw leaves the counters untouched.
  do_restore_state(in);
  comparisons_ = comparisons;
  rankings_ = rankings;
}

void Oracle::restore_state(const std::string& state) {
  std::istringstream is(state);
  restore_state(is);
}

void Oracle::do_save_state(std::ostream&) const {}
void Oracle::do_restore_state(std::istream&) {}

}  // namespace compsynth::oracle
