// Scenario-domain constraints: validation, containment semantics, and
// enforcement by both candidate finders and the synthesizer loop.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "oracle/ground_truth.h"
#include "sketch/eval.h"
#include "sketch/library.h"
#include "sketch/parser.h"
#include "sketch/typecheck.h"
#include "solver/equivalence.h"
#include "solver/grid_finder.h"
#include "solver/z3_finder.h"
#include "synth/synthesizer.h"

namespace compsynth::solver {
namespace {

using pref::Scenario;

// A frontier-ish region: pushing more throughput costs at least 3 ms per
// Gbps of base latency — low-latency high-throughput corners are unreal.
ScenarioDomain frontier_domain() {
  return ScenarioDomain{
      sketch::parse_expr("latency >= 3*throughput", sketch::swan_sketch())};
}

TEST(Domain, ValidationRejectsBadConstraints) {
  const auto& sk = sketch::swan_sketch();
  // Numeric (not boolean) constraint.
  EXPECT_THROW(validate_domain(sk, ScenarioDomain{sketch::parse_expr("latency", sk)}),
               sketch::TypeError);
  // References a hole.
  ScenarioDomain hole_ref{sketch::compare(sketch::CmpOp::kGe, sketch::hole(0),
                                          sketch::constant(1))};
  EXPECT_THROW(validate_domain(sk, hole_ref), sketch::TypeError);
  // Null constraint is fine.
  EXPECT_NO_THROW(validate_domain(sk, ScenarioDomain{}));
}

TEST(Domain, ContainmentChecksBoxAndConstraint) {
  const auto& sk = sketch::swan_sketch();
  const ScenarioDomain d = frontier_domain();
  EXPECT_TRUE(domain_contains(sk, d, std::vector<double>{2, 10}));   // 10 >= 6
  EXPECT_FALSE(domain_contains(sk, d, std::vector<double>{5, 10}));  // 10 < 15
  EXPECT_FALSE(domain_contains(sk, d, std::vector<double>{11, 100}));  // box
  EXPECT_TRUE(domain_contains(sk, ScenarioDomain{}, std::vector<double>{5, 10}));
}

TEST(Domain, Z3FinderScenariosRespectConstraint) {
  const auto& sk = sketch::swan_sketch();
  Z3Finder finder(sk, {}, {}, frontier_domain());
  pref::PreferenceGraph g;
  const FinderResult r = finder.find_distinguishing(g, 2);
  ASSERT_EQ(r.status, FinderStatus::kFound);
  for (const auto& p : r.pairs) {
    EXPECT_GE(p.preferred_by_a.metrics[1], 3 * p.preferred_by_a.metrics[0] - 1e-9);
    EXPECT_GE(p.preferred_by_b.metrics[1], 3 * p.preferred_by_b.metrics[0] - 1e-9);
  }
}

TEST(Domain, GridFinderScenariosRespectConstraint) {
  const auto& sk = sketch::swan_sketch();
  GridFinder finder(sk, {}, {}, frontier_domain());
  pref::PreferenceGraph g;
  const FinderResult r = finder.find_distinguishing(g, 2);
  ASSERT_EQ(r.status, FinderStatus::kFound);
  for (const auto& p : r.pairs) {
    EXPECT_GE(p.preferred_by_a.metrics[1], 3 * p.preferred_by_a.metrics[0] - 1e-9);
    EXPECT_GE(p.preferred_by_b.metrics[1], 3 * p.preferred_by_b.metrics[0] - 1e-9);
  }
}

// Oracle wrapper that records every scenario it was shown.
class RecordingOracle final : public oracle::Oracle {
 public:
  explicit RecordingOracle(oracle::GroundTruthOracle& inner) : inner_(inner) {}
  std::vector<Scenario> seen;

 protected:
  oracle::Preference do_compare(const Scenario& a, const Scenario& b) override {
    seen.push_back(a);
    seen.push_back(b);
    return inner_.compare(a, b);
  }

 private:
  oracle::GroundTruthOracle& inner_;
};

// The grid and the portfolio, whose proof queries must keep their
// witnesses in the domain too.
using Factory = synth::Synthesizer (*)(const sketch::Sketch&,
                                       synth::SynthesisConfig, Viability);
const std::pair<const char*, Factory> kGridFactories[] = {
    {"grid", &synth::make_grid_synthesizer},
    {"portfolio", &synth::make_portfolio_synthesizer}};

TEST(Domain, SynthesizerOnlyAsksAboutDomainScenarios) {
  const auto& sk = sketch::swan_sketch();
  synth::SynthesisConfig config;
  config.seed = 12;
  config.scenario_domain = frontier_domain();
  config.initial_scenarios = 0;  // focus on solver-proposed scenarios
  config.max_iterations = 40;
  for (const auto& [name, make] : kGridFactories) {
    synth::Synthesizer s = make(sk, config, {});
    oracle::GroundTruthOracle truth(sk, sketch::swan_target(),
                                    config.finder.tie_tolerance);
    RecordingOracle user(truth);
    s.run(user);
    ASSERT_GT(user.seen.size(), 0u) << name;
    for (const Scenario& sc : user.seen) {
      EXPECT_GE(sc.metrics[1], 3 * sc.metrics[0] - 1e-9)
          << name << ": " << pref::to_string(sc, sk);
    }
  }
}

TEST(Domain, ConstrainedSynthesisStillConverges) {
  // With fewer askable scenarios the ranking is pinned down over the domain
  // only — convergence is to domain-restricted equivalence.
  const auto& sk = sketch::swan_sketch();
  synth::SynthesisConfig config;
  config.seed = 13;
  config.scenario_domain = frontier_domain();
  const auto target = sketch::swan_target();
  for (const auto& [name, make] : kGridFactories) {
    synth::Synthesizer s = make(sk, config, {});
    oracle::GroundTruthOracle user(sk, target, config.finder.tie_tolerance);
    const synth::SynthesisResult r = s.run(user);
    ASSERT_EQ(r.status, synth::SynthesisStatus::kConverged) << name;
    ASSERT_TRUE(r.objective.has_value()) << name;
    // Within the domain, the learned objective agrees with the target on a
    // sample of scenario pairs.
    util::Rng rng(55);
    int checked = 0;
    while (checked < 200) {
      const Scenario s1{{rng.uniform_real(0, 10), rng.uniform_real(0, 200)}};
      const Scenario s2{{rng.uniform_real(0, 10), rng.uniform_real(0, 200)}};
      if (!domain_contains(sk, config.scenario_domain, s1.metrics) ||
          !domain_contains(sk, config.scenario_domain, s2.metrics)) {
        continue;
      }
      ++checked;
      const double t1 = sketch::eval(sk, target, s1.metrics);
      const double t2 = sketch::eval(sk, target, s2.metrics);
      const double l1 = sketch::eval(sk, *r.objective, s1.metrics);
      const double l2 = sketch::eval(sk, *r.objective, s2.metrics);
      if (t1 > t2 + 1e-3) {
        EXPECT_GE(l1, l2 - 4e-4) << name << ": " << pref::to_string(s1, sk)
                                 << " vs " << pref::to_string(s2, sk);
      } else if (t2 > t1 + 1e-3) {
        EXPECT_GE(l2, l1 - 4e-4) << name;
      }
    }
    // The portfolio proves its verdict over the domain: no scenario pair
    // in it separates the learned objective from the target.
    if (std::string(name) == "portfolio") {
      EXPECT_FALSE(find_ranking_difference(sk, {&*r.objective, 1}, {&target, 1},
                                           config.finder,
                                           config.scenario_domain));
    }
  }
}

TEST(Domain, UnsatisfiableDomainDegradesGracefully) {
  const auto& sk = sketch::swan_sketch();
  synth::SynthesisConfig config;
  config.seed = 14;
  config.max_iterations = 5;
  config.scenario_domain =
      ScenarioDomain{sketch::parse_expr("throughput > 11", sk)};  // empty region
  synth::Synthesizer s = synth::make_grid_synthesizer(sk, config);
  oracle::GroundTruthOracle user(sk, sketch::swan_target(),
                                 config.finder.tie_tolerance);
  const synth::SynthesisResult r = s.run(user);
  // No scenario can ever be asked: the loop must terminate, not hang.
  EXPECT_TRUE(r.status == synth::SynthesisStatus::kConverged ||
              r.status == synth::SynthesisStatus::kIterationLimit);
  EXPECT_EQ(r.oracle_comparisons, 0);
}

}  // namespace
}  // namespace compsynth::solver
