// Quickstart: the smallest end-to-end use of the library.
//
// Build a population of one million agents, let a single informed source
// hold the correct opinion, start everyone else on the WRONG opinion, and
// watch the minority dynamics with sample size sqrt(n ln n) drive the whole
// group to the correct consensus in a few dozen synchronous rounds — the
// regime of Becchetti et al. (SODA 2024) that motivates the paper's question.
//
//   $ ./quickstart [--trace]
#include <cstdio>

#include "core/init.h"
#include "engine/aggregate.h"
#include "protocols/minority.h"
#include "sim/cli.h"

int main(int argc, char** argv) {
  using namespace bitspread;

  const FlightRecorderScope flight_recorder(
      FlightRecorderOptions::parse(argc, argv));
  constexpr std::uint64_t kAgents = 1'000'000;

  // The protocol: adopt the minority opinion of a random sample (ties are a
  // coin flip; a unanimous sample is adopted as-is).
  const MinorityDynamics protocol(SampleSizePolicy::sqrt_n_log_n());
  std::printf("protocol    : %s\n", protocol.name().c_str());
  std::printf("sample size : %u (for n = %llu)\n",
              protocol.sample_size(kAgents),
              static_cast<unsigned long long>(kAgents));

  // Adversarial start: every non-source agent holds the wrong opinion.
  const Configuration start = init_all_wrong(kAgents, Opinion::kOne);
  std::printf("start       : %llu of %llu agents hold the correct opinion\n",
              static_cast<unsigned long long>(start.ones),
              static_cast<unsigned long long>(start.n));

  // Run the exact aggregate engine until consensus, recording X_t.
  const AggregateParallelEngine engine(protocol);
  Rng rng(/*seed=*/2024);
  StopRule rule;
  rule.max_rounds = 10'000;
  Trajectory trajectory;
  const RunResult result = engine.run(start, rule, rng, &trajectory);

  for (const auto& point : trajectory.points()) {
    std::printf("  round %3llu : %9llu ones (%.1f%%)\n",
                static_cast<unsigned long long>(point.round),
                static_cast<unsigned long long>(point.ones),
                100.0 * static_cast<double>(point.ones) /
                    static_cast<double>(kAgents));
  }

  if (result.converged()) {
    std::printf("converged to the correct opinion in %llu rounds\n",
                static_cast<unsigned long long>(result.rounds()));
    return 0;
  }
  std::printf("did not converge (%s)\n", to_string(result.reason).c_str());
  return 1;
}
