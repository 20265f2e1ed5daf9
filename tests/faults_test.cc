// The fault-injection subsystem: EnvironmentModel normalization, zealot
// geometry and planting, the source-flip schedule with per-flip recovery
// segments, degraded classification, churn, the quorum-based stop rule, and
// the exact NoisyObservationProtocol wrapper.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/init.h"
#include "engine/agent.h"
#include "engine/aggregate.h"
#include "faults/environment.h"
#include "faults/noisy_protocol.h"
#include "faults/session.h"
#include "protocols/minority.h"
#include "protocols/voter.h"
#include "random/binomial.h"

namespace bitspread {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// A degenerate rule that always adopts 1: convergence toward kOne is
// deterministic in one round, and recovery from a flip to kZero is
// impossible — ideal for exercising the flip/recovery bookkeeping without
// stochastic flakiness.
class AlwaysOne final : public MemorylessProtocol {
 public:
  AlwaysOne() noexcept : MemorylessProtocol(SampleSizePolicy::constant(3)) {}
  double g(Opinion, std::uint32_t, std::uint32_t,
           std::uint64_t) const noexcept override {
    return 1.0;
  }
  std::string name() const override { return "always-one"; }
};

TEST(EnvironmentModel, NormalizedClampsEveryChannel) {
  EnvironmentModel model;
  model.observation_noise = 0.9;  // BSC beyond 1/2 is relabeling, cap there.
  model.spontaneous_rate = -0.25;
  model.spontaneous_bias = 1.5;
  model.zealot_fraction = 2.0;
  model.churn_rate = -1.0;
  model.convergence_quorum = 3.0;
  const EnvironmentModel out = model.normalized();
  EXPECT_DOUBLE_EQ(out.observation_noise, 0.5);
  EXPECT_DOUBLE_EQ(out.spontaneous_rate, 0.0);
  EXPECT_DOUBLE_EQ(out.spontaneous_bias, 1.0);
  EXPECT_DOUBLE_EQ(out.zealot_fraction, 1.0);
  EXPECT_DOUBLE_EQ(out.churn_rate, 0.0);
  EXPECT_DOUBLE_EQ(out.convergence_quorum, 1.0);
}

TEST(EnvironmentModel, NormalizedReplacesNaNWithDefaults) {
  EnvironmentModel model;
  model.observation_noise = kNaN;
  model.spontaneous_rate = kNaN;
  model.spontaneous_bias = kNaN;
  model.zealot_fraction = kNaN;
  model.churn_rate = kNaN;
  model.convergence_quorum = kNaN;
  const EnvironmentModel out = model.normalized();
  EXPECT_DOUBLE_EQ(out.observation_noise, 0.0);
  EXPECT_DOUBLE_EQ(out.spontaneous_rate, 0.0);
  EXPECT_DOUBLE_EQ(out.spontaneous_bias, 0.5);
  EXPECT_DOUBLE_EQ(out.zealot_fraction, 0.0);
  EXPECT_DOUBLE_EQ(out.churn_rate, 0.0);
  EXPECT_DOUBLE_EQ(out.convergence_quorum, 1.0);
  EXPECT_FALSE(out.active());
}

TEST(EnvironmentModel, NormalizedSortsAndDedupesFlipSchedule) {
  EnvironmentModel model;
  model.source_flip_rounds = {30, 10, 30, 20, 10};
  const EnvironmentModel out = model.normalized();
  EXPECT_EQ(out.source_flip_rounds,
            (std::vector<std::uint64_t>{10, 20, 30}));
  EXPECT_TRUE(out.active());
}

TEST(EnvironmentModel, ZeroQuorumMeansFullQuorum) {
  EnvironmentModel model;
  model.convergence_quorum = 0.0;
  EXPECT_DOUBLE_EQ(model.normalized().convergence_quorum, 1.0);
}

TEST(EnvironmentModel, NoisyFractionIsTheBscPushforward) {
  EnvironmentModel model;
  model.observation_noise = 0.1;
  const EnvironmentModel out = model.normalized();
  EXPECT_DOUBLE_EQ(out.noisy_fraction(0.0), 0.1);
  EXPECT_DOUBLE_EQ(out.noisy_fraction(1.0), 0.9);
  EXPECT_DOUBLE_EQ(out.noisy_fraction(0.5), 0.5);
  EXPECT_NEAR(out.noisy_fraction(0.25), 0.25 + 0.1 * 0.5, 1e-15);
}

TEST(EnvironmentModel, ZealotCountIsFloorOfNonSourceFraction) {
  EnvironmentModel model;
  model.zealot_fraction = 0.1;
  const EnvironmentModel out = model.normalized();
  EXPECT_EQ(out.zealot_count(101, 1), 10u);  // floor(0.1 * 100)
  EXPECT_EQ(out.zealot_count(1, 1), 0u);
  EXPECT_EQ(out.zealot_count(5, 5), 0u);
}

TEST(EnvironmentModel, WrongConsensusEscapableOnlyUnderNoise) {
  EnvironmentModel quiet;
  quiet.zealot_fraction = 0.5;
  quiet.churn_rate = 0.3;
  EXPECT_FALSE(quiet.normalized().wrong_consensus_escapable());
  EnvironmentModel noisy;
  noisy.observation_noise = 0.01;
  EXPECT_TRUE(noisy.normalized().wrong_consensus_escapable());
  EnvironmentModel spontaneous;
  spontaneous.spontaneous_rate = 0.01;
  EXPECT_TRUE(spontaneous.normalized().wrong_consensus_escapable());
}

TEST(FaultSession, PlantingReservesZealotSlotsBothPolarities) {
  EnvironmentModel model;
  model.zealot_fraction = 0.25;
  {
    // correct = kOne: zealots hold kZero (the end-of-layout zero slots), so
    // the ones-count may not exceed n - zealots.
    const Configuration initial{100, 99, Opinion::kOne, 1};
    FaultSession session(model, initial);
    EXPECT_EQ(session.zealots(), 24u);  // floor(0.25 * 99)
    EXPECT_EQ(session.zealot_opinion(), Opinion::kZero);
    const Configuration planted = session.plant(initial);
    EXPECT_LE(planted.ones, 100u - 24u);
    EXPECT_EQ(session.free_agents(), 100u - 1u - 24u);
    // Zealot slots sit at the end of the layout.
    EXPECT_TRUE(session.is_zealot(99));
    EXPECT_TRUE(session.is_zealot(76));
    EXPECT_FALSE(session.is_zealot(75));
  }
  {
    // correct = kZero: zealots hold kOne (the slots right after the source),
    // so the ones-count may not drop below the zealot count.
    const Configuration initial{100, 0, Opinion::kZero, 1};
    FaultSession session(model, initial);
    EXPECT_EQ(session.zealot_opinion(), Opinion::kOne);
    const Configuration planted = session.plant(initial);
    EXPECT_GE(planted.ones, session.zealots());
    EXPECT_TRUE(session.is_zealot(1));
    EXPECT_FALSE(session.is_zealot(0));  // The source is never a zealot.
  }
}

TEST(FaultSession, QuorumCountsNonZealotCorrectHolders) {
  EnvironmentModel model;
  model.convergence_quorum = 0.9;
  const Configuration initial{100, 50, Opinion::kOne, 1};
  FaultSession session(model, initial);  // No zealots.
  Configuration config = initial;
  config.ones = 90;  // ceil(0.9 * 100) = 90 holders: met.
  EXPECT_TRUE(session.quorum_met(config));
  config.ones = 89;
  EXPECT_FALSE(session.quorum_met(config));
}

TEST(FaultSession, FullChurnCrashesEveryFreeCorrectHolder) {
  EnvironmentModel model;
  model.churn_rate = 1.0;
  const Configuration initial{64, 40, Opinion::kOne, 2};
  FaultSession session(model, initial);
  Rng rng(11);
  const Configuration after = session.churn(initial, rng);
  // Every free one-holder crashed into a zero-holder; only the sources'
  // displayed ones remain.
  EXPECT_EQ(after.ones, initial.source_ones());
}

TEST(FaultSession, EvaluateUsesStrictIntervalBoundaries) {
  const EnvironmentModel model;  // Fault-free session: same stop semantics.
  const Configuration initial{30, 10, Opinion::kOne, 1};
  FaultSession session(model, initial);
  StopRule rule;
  rule.interval_lo = 10;
  rule.interval_hi = 20;
  Configuration config = initial;
  config.ones = 10;  // On the boundary: NOT outside.
  EXPECT_EQ(session.evaluate(rule, config), std::nullopt);
  config.ones = 20;
  EXPECT_EQ(session.evaluate(rule, config), std::nullopt);
  config.ones = 9;
  EXPECT_EQ(session.evaluate(rule, config), StopReason::kIntervalExit);
  config.ones = 21;
  EXPECT_EQ(session.evaluate(rule, config), StopReason::kIntervalExit);
}

TEST(FaultSession, WrongConsensusStopsOnlyWhenAbsorbing) {
  // Source-less run where every free agent holds the wrong opinion.
  const Configuration all_wrong{50, 0, Opinion::kOne, 0};
  StopRule rule;
  {
    EnvironmentModel quiet;
    quiet.zealot_fraction = 0.2;
    FaultSession session(quiet, all_wrong);
    EXPECT_EQ(session.evaluate(rule, all_wrong),
              StopReason::kWrongConsensus);
  }
  {
    // Observation noise makes a wrong consensus escapable: keep running.
    EnvironmentModel noisy;
    noisy.zealot_fraction = 0.2;
    noisy.observation_noise = 0.05;
    FaultSession session(noisy, all_wrong);
    EXPECT_EQ(session.evaluate(rule, all_wrong), std::nullopt);
  }
}

TEST(AggregateFaults, WrongConsensusUnderZealotsReportedAtRoundZero) {
  const VoterDynamics voter;
  const AggregateParallelEngine engine(voter);
  EnvironmentModel model;
  model.zealot_fraction = 0.2;
  StopRule rule;
  rule.max_rounds = 100;
  Rng rng(3);
  const RunResult result =
      engine.run(Configuration{50, 0, Opinion::kOne, 0}, rule, model, rng);
  EXPECT_EQ(result.reason, StopReason::kWrongConsensus);
  EXPECT_EQ(result.rounds(), 0u);
}

TEST(AggregateFaults, NoiseEscapesWrongConsensus) {
  const VoterDynamics voter;
  const AggregateParallelEngine engine(voter);
  EnvironmentModel model;
  model.observation_noise = 0.1;
  StopRule rule;
  rule.max_rounds = 50;
  Rng rng(5);
  const RunResult result =
      engine.run(Configuration{1000, 0, Opinion::kOne, 0}, rule, model, rng);
  EXPECT_NE(result.reason, StopReason::kWrongConsensus);
  // Noise keeps injecting ones: the all-zeros state is not absorbing.
  EXPECT_GT(result.final_config.ones, 0u);
}

TEST(AggregateFaults, RecoverySegmentsTrackEveryFlip) {
  // always-one converges to kOne in one round; a flip to kZero makes the
  // sources display kZero but every free agent keeps adopting kOne, so the
  // run deterministically degrades at the cap.
  const AlwaysOne protocol;
  const AggregateParallelEngine engine(protocol);
  EnvironmentModel model;
  model.source_flip_rounds = {3};
  StopRule rule;
  rule.max_rounds = 10;
  Rng rng(17);
  const RunResult result = engine.run(
      init_all_wrong(64, Opinion::kOne), rule, model, rng);
  EXPECT_EQ(result.reason, StopReason::kDegraded);
  EXPECT_TRUE(result.censored());
  EXPECT_TRUE(result.degraded());
  ASSERT_EQ(result.recoveries.size(), 2u);
  EXPECT_TRUE(result.recoveries[0].recovered);
  EXPECT_EQ(result.recoveries[0].flip_round, 0u);
  EXPECT_EQ(result.recoveries[0].recovered_round, 1u);
  EXPECT_EQ(result.recoveries[0].recovery_rounds(), 1u);
  EXPECT_FALSE(result.recoveries[1].recovered);
  EXPECT_EQ(result.recoveries[1].flip_round, 3u);
  EXPECT_EQ(result.last_flip_round(), 3u);
}

TEST(AggregateFaults, RecoverableFlipReportsPerFlipRecoveryTimes) {
  // Minority with l = sqrt(n ln n) re-converges fast after each flip.
  const MinorityDynamics minority(SampleSizePolicy::sqrt_n_log_n());
  const AggregateParallelEngine engine(minority);
  EnvironmentModel model;
  model.source_flip_rounds = {60, 120};
  StopRule rule;
  rule.max_rounds = 2000;
  Rng rng(23);
  const RunResult result = engine.run(
      init_all_wrong(1 << 12, Opinion::kOne), rule, model, rng);
  ASSERT_TRUE(result.converged()) << to_string(result.reason);
  ASSERT_EQ(result.recoveries.size(), 3u);
  for (const RecoverySegment& segment : result.recoveries) {
    EXPECT_TRUE(segment.recovered);
    EXPECT_GT(segment.recovery_rounds(), 0u);
    EXPECT_LT(segment.recovery_rounds(), 200u);
  }
  EXPECT_EQ(result.recoveries[1].flip_round, 60u);
  EXPECT_EQ(result.recoveries[2].flip_round, 120u);
  // The run only stops after the LAST flip's recovery.
  EXPECT_GE(result.rounds(), 120u);
}

TEST(AggregateFaults, ZealotsCapTheReachableOnesCount) {
  const VoterDynamics voter;
  const AggregateParallelEngine engine(voter);
  EnvironmentModel model;
  model.zealot_fraction = 0.3;
  StopRule rule;
  rule.max_rounds = 200;
  Rng rng(29);
  Trajectory trajectory;
  const Configuration start = init_half(2000, Opinion::kOne);
  const FaultSession session(model, start);
  const RunResult result = engine.run(start, rule, model, rng, &trajectory);
  const std::uint64_t ceiling = 2000 - session.zealots();
  for (const auto& point : trajectory.points()) {
    EXPECT_LE(point.ones, ceiling);
  }
  EXPECT_LE(result.final_config.ones, ceiling);
}

TEST(AgentFaults, FaultyRunMatchesSemantics) {
  const AlwaysOne protocol;
  const MemorylessAsStateful adapter(protocol);
  const AgentParallelEngine engine(adapter);
  EnvironmentModel model;
  model.source_flip_rounds = {3};
  StopRule rule;
  rule.max_rounds = 10;
  Rng rng(37);
  const RunResult result =
      engine.run(init_all_wrong(64, Opinion::kOne), rule, model, rng);
  EXPECT_EQ(result.reason, StopReason::kDegraded);
  ASSERT_EQ(result.recoveries.size(), 2u);
  EXPECT_TRUE(result.recoveries[0].recovered);
  EXPECT_EQ(result.recoveries[0].recovered_round, 1u);
  EXPECT_FALSE(result.recoveries[1].recovered);
}

TEST(AgentFaults, ZealotSlotsNeverUpdate) {
  const AlwaysOne protocol;  // Would flip every zealot in one round.
  const MemorylessAsStateful adapter(protocol);
  const AgentParallelEngine engine(adapter);
  EnvironmentModel model;
  model.zealot_fraction = 0.25;
  StopRule rule;
  rule.max_rounds = 5;
  Rng rng(41);
  const Configuration start = init_all_wrong(100, Opinion::kOne);
  const FaultSession session(model, start);
  const RunResult result = engine.run(start, rule, model, rng);
  // Free agents all adopt kOne immediately; zealots pin kZero forever.
  EXPECT_EQ(result.final_config.ones, 100 - session.zealots());
  // Quorum 1.0 over non-zealots IS met: zealots are excluded.
  EXPECT_EQ(result.reason, StopReason::kCorrectConsensus);
}

TEST(NoisyProtocol, GMatchesDirectConvolution) {
  // g'(b, k) must equal E[g(b, K')] with K' = Bin(k, 1-e) + Bin(l-k, e).
  const MinorityDynamics minority(5);
  EnvironmentModel model;
  model.observation_noise = 0.15;
  const NoisyObservationProtocol noisy(minority, model);
  const std::uint64_t n = 100;
  const std::uint32_t ell = minority.sample_size(n);
  for (const Opinion own : {Opinion::kZero, Opinion::kOne}) {
    for (std::uint32_t k = 0; k <= ell; ++k) {
      const std::vector<double> from_true = binomial_pmf(k, 1.0 - 0.15);
      const std::vector<double> from_false = binomial_pmf(ell - k, 0.15);
      double expected = 0.0;
      for (std::uint32_t a = 0; a <= k; ++a) {
        for (std::uint32_t b = 0; b <= ell - k; ++b) {
          expected += from_true[a] * from_false[b] *
                      minority.g(own, a + b, ell, n);
        }
      }
      EXPECT_NEAR(noisy.g(own, k, ell, n), expected, 1e-12);
    }
  }
}

TEST(NoisyProtocol, AggregateAdoptionIsTheEq4SumOfNoisyG) {
  // The closed form P_b(noisy_fraction(p)) must coincide with the Eq. 4 sum
  // over the noisy g — the commuting-square that keeps the aggregate engine
  // exact under observation noise.
  const MinorityDynamics minority(7);
  EnvironmentModel model;
  model.observation_noise = 0.08;
  model.spontaneous_rate = 0.02;
  model.spontaneous_bias = 0.3;
  const NoisyObservationProtocol noisy(minority, model);
  const std::uint64_t n = 64;
  for (const Opinion own : {Opinion::kZero, Opinion::kOne}) {
    for (const double p : {0.0, 0.1, 0.37, 0.5, 0.82, 1.0}) {
      EXPECT_NEAR(noisy.aggregate_adoption(own, p, n),
                  eq4_adoption_sum(noisy, own, p, n), 1e-12)
          << "own=" << to_int(own) << " p=" << p;
    }
  }
}

TEST(NoisyProtocol, ReducesToBaseWithoutNoise) {
  const VoterDynamics voter;
  const EnvironmentModel model;  // All channels off.
  const NoisyObservationProtocol noisy(voter, model);
  const std::uint64_t n = 50;
  const std::uint32_t ell = voter.sample_size(n);
  for (std::uint32_t k = 0; k <= ell; ++k) {
    EXPECT_DOUBLE_EQ(noisy.g(Opinion::kOne, k, ell, n),
                     voter.g(Opinion::kOne, k, ell, n));
  }
  EXPECT_DOUBLE_EQ(noisy.aggregate_adoption(Opinion::kZero, 0.3, n),
                   voter.aggregate_adoption(Opinion::kZero, 0.3, n));
}

}  // namespace
}  // namespace bitspread
