// Exact Markov-chain machinery: linear solvers, the dense parallel chain,
// absorption times, the sequential birth-death chain — and the exact
// verification of Proposition 5 against the chain.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "analysis/bias.h"
#include "core/problem.h"
#include "markov/absorption.h"
#include "markov/birth_death.h"
#include "markov/dense_chain.h"
#include "markov/linalg.h"
#include "protocols/minority.h"
#include "protocols/three_majority.h"
#include "protocols/voter.h"

namespace bitspread {
namespace {

TEST(Linalg, SolvesSmallSystem) {
  Matrix a(2, 2);
  a.at(0, 0) = 2.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 3.0;
  const auto x = solve_linear_system(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Linalg, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a.at(0, 0) = 0.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 0.0;
  const auto x = solve_linear_system(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Linalg, IdentitySolve) {
  const auto x = solve_linear_system(Matrix::identity(3), {1.0, 2.0, 3.0});
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(Linalg, TridiagonalSolve) {
  // System: [2 1 0; 1 2 1; 0 1 2] x = [4; 8; 8] -> x = [1; 2; 3].
  const auto x = solve_tridiagonal({0.0, 1.0, 1.0}, {2.0, 2.0, 2.0},
                                   {1.0, 1.0, 0.0}, {4.0, 8.0, 8.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(DenseChain, RowsAreDistributions) {
  const MinorityDynamics minority(3);
  const DenseParallelChain chain(minority, 20, Opinion::kOne);
  for (std::uint64_t x = chain.min_state(); x <= chain.max_state(); ++x) {
    const auto row = chain.transition_row(x);
    const double total = std::accumulate(row.begin(), row.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9) << "x=" << x;
    for (const double p : row) EXPECT_GE(p, -1e-15);
  }
}

TEST(DenseChain, StateRangeRespectsSource) {
  const VoterDynamics voter;
  const DenseParallelChain up(voter, 10, Opinion::kOne);
  EXPECT_EQ(up.min_state(), 1u);
  EXPECT_EQ(up.max_state(), 10u);
  EXPECT_EQ(up.state_count(), 10u);
  const DenseParallelChain down(voter, 10, Opinion::kZero);
  EXPECT_EQ(down.min_state(), 0u);
  EXPECT_EQ(down.max_state(), 9u);
}

TEST(DenseChain, ConsensusIsAbsorbingForCompliantProtocol) {
  const MinorityDynamics minority(3);
  const DenseParallelChain chain(minority, 15, Opinion::kOne);
  const auto row = chain.transition_row(15);
  EXPECT_NEAR(row[15 - chain.min_state()], 1.0, 1e-12);
}

TEST(DenseChain, RowMeanMatchesClosedForm) {
  // E[X'|x] from the exact row must equal core/problem.h's Eq.-4 closed form.
  const MinorityDynamics minority(4);
  const DenseParallelChain chain(minority, 30, Opinion::kZero);
  for (std::uint64_t x = chain.min_state(); x <= chain.max_state(); ++x) {
    const Configuration c{30, x, Opinion::kZero};
    EXPECT_NEAR(chain.row_mean(x), exact_next_mean(minority, c), 1e-8)
        << "x=" << x;
  }
}

TEST(DenseChain, Proposition5HoldsExactly) {
  // |E[X_{t+1}|x] - x - n F_n(x/n)| <= 1 for every state, both z values,
  // multiple protocols. This is the paper's Proposition 5, checked against
  // the exact chain rather than simulation.
  const std::uint64_t n = 40;
  const MinorityDynamics minority(3);
  const ThreeMajorityDynamics three;
  const VoterDynamics voter;
  for (const MemorylessProtocol* proto :
       {static_cast<const MemorylessProtocol*>(&minority),
        static_cast<const MemorylessProtocol*>(&three),
        static_cast<const MemorylessProtocol*>(&voter)}) {
    const BiasFunction bias(*proto, n);
    for (const Opinion z : {Opinion::kZero, Opinion::kOne}) {
      const DenseParallelChain chain(*proto, n, z);
      for (std::uint64_t x = chain.min_state(); x <= chain.max_state(); ++x) {
        const double drift_term =
            static_cast<double>(x) +
            static_cast<double>(n) * bias(static_cast<double>(x) / n);
        EXPECT_LE(chain.row_mean(x), drift_term + 1.0 + 1e-9)
            << proto->name() << " x=" << x << " z=" << to_int(z);
        EXPECT_GE(chain.row_mean(x), drift_term - 1.0 - 1e-9)
            << proto->name() << " x=" << x << " z=" << to_int(z);
      }
    }
  }
}

TEST(Absorption, HandComputedTwoStateChain) {
  // States {0, 1}; 1 absorbing; from 0: stay w.p. 1/2, absorb w.p. 1/2.
  // Expected hitting time from 0 = 2.
  const auto times = expected_hitting_rounds(
      2,
      [](std::size_t s) {
        return s == 0 ? std::vector<double>{0.5, 0.5}
                      : std::vector<double>{0.0, 1.0};
      },
      {false, true});
  EXPECT_NEAR(times[0], 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(times[1], 0.0);
}

TEST(Absorption, StatesNotSurelyAbsorbedGetInfiniteTimes) {
  // States {0, 1, 2, 3}; 0 absorbing; 3 a trap (stays forever); from 1:
  // absorb or stay, 1/2 each; from 2: absorb or fall into the trap. Only 1
  // is absorbed with probability 1, and its time is solved as if 2 and 3
  // were not there.
  const auto times = expected_hitting_rounds(
      4,
      [](std::size_t s) {
        switch (s) {
          case 1:
            return std::vector<double>{0.5, 0.5, 0.0, 0.0};
          case 2:
            return std::vector<double>{0.5, 0.0, 0.0, 0.5};
          case 3:
            return std::vector<double>{0.0, 0.0, 0.0, 1.0};
          default:
            return std::vector<double>{1.0, 0.0, 0.0, 0.0};
        }
      },
      {true, false, false, false});
  EXPECT_DOUBLE_EQ(times[0], 0.0);
  EXPECT_NEAR(times[1], 2.0, 1e-12);
  EXPECT_TRUE(std::isinf(times[2]));
  EXPECT_TRUE(std::isinf(times[3]));
}

TEST(Absorption, GamblersRuinLadder) {
  // States 0..3, 3 absorbing, deterministic +1 moves: t(x) = 3 - x.
  const auto times = expected_hitting_rounds(
      4,
      [](std::size_t s) {
        std::vector<double> row(4, 0.0);
        row[std::min<std::size_t>(s + 1, 3)] = 1.0;
        return row;
      },
      {false, false, false, true});
  EXPECT_NEAR(times[0], 3.0, 1e-12);
  EXPECT_NEAR(times[1], 2.0, 1e-12);
  EXPECT_NEAR(times[2], 1.0, 1e-12);
}

TEST(Absorption, DenseChainConvergenceTimesAreFiniteAndMonotoneSane) {
  const MinorityDynamics minority(3);
  const DenseParallelChain chain(minority, 25, Opinion::kOne);
  const auto times = expected_convergence_rounds(chain);
  // Consensus state: 0 rounds. All others: positive, finite.
  EXPECT_DOUBLE_EQ(times[chain.correct_consensus_state() - chain.min_state()],
                   0.0);
  for (std::size_t i = 0; i + 1 < times.size(); ++i) {
    EXPECT_GT(times[i], 0.0);
    EXPECT_TRUE(std::isfinite(times[i]));
  }
}

TEST(BirthDeath, UpDownProbabilitiesSane) {
  const VoterDynamics voter;
  const BirthDeathChain chain(voter, 10, Opinion::kOne);
  // At x = 1 (only the source holds 1): picked agent holds 0 and adopts 1
  // with probability x/n = 0.1; up = 0.1, down = 0 (no non-source one).
  EXPECT_NEAR(chain.up(1), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(chain.down(1), 0.0);
  // At x = n, everything is 1: absorbing.
  EXPECT_DOUBLE_EQ(chain.up(10), 0.0);
  EXPECT_DOUBLE_EQ(chain.down(10), 0.0);
  for (std::uint64_t x = 1; x <= 9; ++x) {
    EXPECT_GE(chain.up(x), 0.0);
    EXPECT_LE(chain.up(x) + chain.down(x), 1.0 + 1e-12);
  }
}

TEST(BirthDeath, AbsorptionTimesSolveBalanceEquations) {
  const VoterDynamics voter;
  const std::uint64_t n = 12;
  const BirthDeathChain chain(voter, n, Opinion::kOne);
  const auto t = chain.expected_absorption_activations();
  // Verify t satisfies t(x) = 1 + up t(x+1) + down t(x-1) + stay t(x).
  for (std::uint64_t x = chain.min_state(); x < chain.max_state(); ++x) {
    const double up = chain.up(x);
    const double down = chain.down(x);
    const double stay = 1.0 - up - down;
    const double t_x = t[x - chain.min_state()];
    const double t_up = t[x + 1 - chain.min_state()];
    const double t_down = x > chain.min_state() ? t[x - 1 - chain.min_state()]
                                                : 0.0;
    EXPECT_NEAR(t_x, 1.0 + up * t_up + down * t_down + stay * t_x, 1e-6)
        << "x=" << x;
  }
  EXPECT_DOUBLE_EQ(t[chain.max_state() - chain.min_state()], 0.0);
}

TEST(BirthDeath, SequentialVoterIsSlow) {
  // The sequential lower bound of [14]: Omega(n) parallel rounds, i.e.
  // Omega(n^2) activations. Check the exact expectation scales superlinearly
  // in activations.
  const VoterDynamics voter;
  const std::uint64_t n_small = 16, n_large = 64;
  const BirthDeathChain small(voter, n_small, Opinion::kOne);
  const BirthDeathChain large(voter, n_large, Opinion::kOne);
  const double t_small =
      small.expected_absorption_activations()[n_small / 2 - 1];
  const double t_large =
      large.expected_absorption_activations()[n_large / 2 - 1];
  // n quadrupled; activations should grow ~x16 (allow wide slack).
  EXPECT_GT(t_large / t_small, 8.0);
}

TEST(BirthDeath, DownhillTargetForZEqualsZero) {
  const VoterDynamics voter;
  const BirthDeathChain chain(voter, 10, Opinion::kZero);
  EXPECT_EQ(chain.correct_consensus_state(), 0u);
  const auto t = chain.expected_absorption_activations();
  EXPECT_DOUBLE_EQ(t[0], 0.0);
  EXPECT_GT(t[5], 0.0);
}

}  // namespace
}  // namespace bitspread
