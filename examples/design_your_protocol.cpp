// Design-your-own-protocol walkthrough: the analysis API.
//
// Theorem 1 quantifies over EVERY memory-less protocol with constant sample
// size. This example shows how the library lets you probe an arbitrary
// candidate g-table the same way the proof does:
//   1. check Proposition 3 (can it even maintain consensus?);
//   2. build the bias polynomial F_n (Eq. 3) and find its roots in [0,1];
//   3. classify the Case 1 / Case 2 structure (§4.2, Figures 2-3) to learn
//      the adversarial correct opinion and starting point;
//   4. verify the Theorem 6 assumptions and get the predicted n^{1-eps}
//      crossing floor;
//   5. simulate from exactly that adversarial configuration and watch the
//      prediction hold.
//
//   $ ./design_your_protocol [--trace]
#include <cstdio>

#include "analysis/bias.h"
#include "analysis/cases.h"
#include "analysis/theorem6.h"
#include "core/problem.h"
#include "engine/aggregate.h"
#include "protocols/custom.h"
#include "sim/cli.h"

int main(int argc, char** argv) {
  using namespace bitspread;

  const FlightRecorderScope flight_recorder(
      FlightRecorderOptions::parse(argc, argv));

  // A hand-crafted "cautious switcher" with l = 4: an agent holding 0 needs
  // to see at least three ones to adopt 1, while an agent holding 1 gives up
  // unless it sees at least two. Is it a contender for bit-dissemination?
  const CustomProtocol protocol(
      /*g_zero=*/{0.0, 0.0, 0.2, 0.8, 1.0},
      /*g_one=*/{0.0, 0.3, 0.9, 1.0, 1.0},
      "cautious-switcher");
  constexpr std::uint64_t kAgents = 1 << 16;

  std::printf("protocol: %s, l = %u, n = %llu\n\n", protocol.name().c_str(),
              protocol.ell(), static_cast<unsigned long long>(kAgents));

  // 1. Proposition 3.
  const auto violations = proposition3_violations(protocol, kAgents);
  if (!violations.empty()) {
    for (const auto& v : violations) std::printf("REJECTED: %s\n", v.c_str());
    return 1;
  }
  std::printf("Proposition 3: ok (g[0](0) = 0, g[1](l) = 1)\n");

  // 2. The bias polynomial and its roots.
  const BiasFunction bias(protocol, kAgents);
  const Polynomial f = bias.to_polynomial();
  std::printf("bias F_n(p)  = %s\n", f.to_string().c_str());
  std::printf("roots in [0,1]:");
  for (const double r : bias.roots()) std::printf(" %.4f", r);
  std::printf("\n");

  // 3. Case classification.
  const CaseAnalysis analysis = classify_bias(protocol, kAgents);
  std::printf("classification: %s on (%.4f, %.4f)\n",
              to_string(analysis.bias_case).c_str(), analysis.interval_lo,
              analysis.interval_hi);
  std::printf("adversarial choice: correct opinion z = %d, start X0/n = %.4f"
              ", watched interval a1 = %.3f, a3 = %.3f\n",
              to_int(analysis.slow_correct), analysis.x0_fraction,
              analysis.a1, analysis.a3);

  // 4. Theorem 6 assumptions and the predicted floor.
  const double epsilon = 0.4;
  const Theorem6Report report =
      check_theorem6(protocol, kAgents, analysis, epsilon);
  std::printf("theorem 6 check: %s\n", report.describe().c_str());
  if (!report.drift_ok) {
    std::printf("assumptions not verified; no floor predicted\n");
    return 1;
  }

  // 5. Simulate from the adversarial configuration.
  const AggregateParallelEngine engine(protocol);
  Rng rng(99);
  StopRule rule;
  rule.max_rounds = static_cast<std::uint64_t>(report.predicted_floor);
  const auto bound = [&](double fraction) {
    return static_cast<std::uint64_t>(fraction *
                                      static_cast<double>(kAgents));
  };
  if (analysis.upward) {
    rule.interval_hi = bound(analysis.a3);
  } else {
    rule.interval_lo = bound(analysis.a1);
  }
  const Configuration start{kAgents, bound(analysis.x0_fraction),
                            analysis.slow_correct};
  const RunResult result = engine.run(start, rule, rng);
  std::printf(
      "simulation: started at X0 = %llu, ran %llu rounds, outcome = %s\n",
      static_cast<unsigned long long>(start.ones),
      static_cast<unsigned long long>(result.rounds()),
      to_string(result.reason).c_str());
  std::printf(result.censored()
                  ? "as predicted: the dynamics did NOT cross the interval "
                    "within n^{1-eps} = %.0f rounds\n"
                  : "crossed before the floor (probability o(1) event, or "
                    "assumptions were marginal): %.0f\n",
              report.predicted_floor);
  return 0;
}
