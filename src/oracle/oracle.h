// User models for comparative synthesis.
//
// The paper evaluates with "an oracle playing the role of an ideal user"
// (§4.3): it evaluates scenarios with the latent ground-truth objective and
// answers preference queries accordingly. This header defines the oracle
// interface; concrete oracles (ground truth, noisy, indifferent,
// interactive) live in the sibling headers.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "pref/scenario.h"
#include "util/fault.h"

namespace compsynth::obs {
struct RunContext;
}

namespace compsynth::oracle {

/// Thrown by a user model when an answer does not arrive in time (a remote
/// service stalls, an injected fault fires). Oracle::compare / rank catch it
/// and retry per the configured RetryPolicy before letting it escape.
class OracleTimeout : public util::TransientError {
 public:
  explicit OracleTimeout(const std::string& what) : TransientError(what) {}
};

/// Answer to a two-scenario comparison.
enum class Preference {
  kFirst,   // the first scenario is preferred
  kSecond,  // the second scenario is preferred
  kTie,     // indistinguishable / incomparable (partial ranking, §4.2)
};

/// "first" / "second" / "tie": the spelling in traces, answers.log and the
/// service protocol (serve::parse_preference reads it back).
const char* preference_name(Preference p);

/// A (partial) ranking over a scenario set, expressed as index pairs.
struct RankingResponse {
  struct RankedPair {
    std::size_t better = 0;
    std::size_t worse = 0;
  };
  struct TiePair {
    std::size_t a = 0;
    std::size_t b = 0;
  };
  std::vector<RankedPair> preferences;
  std::vector<TiePair> ties;
};

/// Abstract user. Non-virtual public API counts interactions (the paper's
/// cost metric for the human in the loop); subclasses implement do_compare /
/// do_rank.
class Oracle {
 public:
  virtual ~Oracle() = default;

  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  /// Compares two scenarios. Counts as one interaction.
  Preference compare(const pref::Scenario& a, const pref::Scenario& b);

  /// Ranks a set of scenarios (e.g. the initial random batch). Counts as one
  /// interaction regardless of set size — the user answers in one sitting.
  RankingResponse rank(std::span<const pref::Scenario> scenarios);

  long comparisons() const { return comparisons_; }
  long rankings() const { return rankings_; }

  /// Retry policy for transient failures: a do_compare / do_rank that throws
  /// OracleTimeout is retried (with backoff) up to max_attempts times; each
  /// fault and retry is surfaced as a "fault" / "retry" trace event and the
  /// oracle.timeouts / oracle.retries counters. After the last attempt the
  /// exception escapes to the caller. Defaults to 3 attempts.
  void set_retry_policy(util::RetryPolicy policy) { retry_ = policy; }
  const util::RetryPolicy& retry_policy() const { return retry_; }

  /// Observability: when set (non-owning; may be null), every compare/rank
  /// call emits an "oracle_query" trace event and bumps the oracle.*
  /// counters. The synthesizer wires this up for the duration of a run and
  /// clears it before returning.
  void set_run_context(const obs::RunContext* ctx) { obs_ = ctx; }

  /// Durable-session persistence (docs/PERSISTENCE.md): writes the
  /// interaction counters plus any subclass state (RNG streams of noisy /
  /// indifferent variants, nested inner oracles) so a resumed session's user
  /// model continues the identical answer stream. restore_state throws
  /// std::invalid_argument / SerializeError-style exceptions on malformed
  /// input and expects an oracle constructed with the same topology.
  void save_state(std::ostream& out) const;
  std::string save_state() const;
  void restore_state(std::istream& in);
  void restore_state(const std::string& state);

 protected:
  Oracle() = default;

  virtual Preference do_compare(const pref::Scenario& a,
                                const pref::Scenario& b) = 0;

  /// Default ranking: chain the scenarios via insertion using do_compare.
  /// Ground-truth oracles override this with an exact sort.
  virtual RankingResponse do_rank(std::span<const pref::Scenario> scenarios);

  /// Subclass hooks for save_state/restore_state: append/consume extra state
  /// (strictly in the same order). Stateless oracles keep the defaults.
  virtual void do_save_state(std::ostream& out) const;
  virtual void do_restore_state(std::istream& in);

 private:
  long comparisons_ = 0;
  long rankings_ = 0;
  util::RetryPolicy retry_;
  const obs::RunContext* obs_ = nullptr;
};

}  // namespace compsynth::oracle
