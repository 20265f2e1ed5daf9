// E5 — Figures 2 & 3 analogue: the bias-polynomial landscape of §4.2.
//
// For each protocol, regenerate the data behind the proof illustrations:
//   * the polynomial F_n(p) itself (power form) and a value series over a
//     grid of p in [0,1] (the curve the figures draw);
//   * its roots in [0,1] (the r^(k) of Theorem 12);
//   * the Case 1 / Case 2 classification on the last root-free interval,
//     with the interval constants a1 < a2 < a3 and the adversarial (z, X_0)
//     the proof derives from them.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <vector>

#include "analysis/bias.h"
#include "analysis/cases.h"
#include "protocols/custom.h"
#include "protocols/majority.h"
#include "protocols/minority.h"
#include "protocols/three_majority.h"
#include "protocols/two_choice.h"
#include "protocols/voter.h"
#include "random/seeding.h"
#include "sim/cli.h"
#include "sim/ascii_plot.h"
#include "sim/table.h"

namespace bitspread {
namespace {

void run(const BenchOptions& options) {
  print_banner("E5", "Figures 2-3: bias polynomials, roots, case structure",
               options);
  constexpr std::uint64_t kN = 1 << 16;

  const VoterDynamics voter;
  const MinorityDynamics minority3(3);
  const MinorityDynamics minority4(4);
  const MinorityDynamics minority7(7);
  const ThreeMajorityDynamics three_majority;
  const TwoChoiceDynamics two_choice;
  const MajorityDynamics majority5(5, MajorityDynamics::TieBreak::kKeepOwn);
  Rng proto_rng(SeedSequence(options.seed).derive("bias-random"));
  const CustomProtocol random_a = random_protocol(proto_rng, 3);
  const CustomProtocol random_b = random_protocol(proto_rng, 5);

  const std::vector<const MemorylessProtocol*> protocols{
      &voter,        &minority3, &minority4, &minority7, &three_majority,
      &two_choice,   &majority5, &random_a,  &random_b};

  // Part 1: the F_n(p) curves (what Figures 2-3 plot).
  Table curve({"p", "voter", "minority3", "minority7", "3-majority",
               "2-choice", "majority5"});
  const std::vector<const MemorylessProtocol*> curve_protocols{
      &voter, &minority3, &minority7, &three_majority, &two_choice,
      &majority5};
  for (int i = 0; i <= 20; ++i) {
    const double p = i / 20.0;
    std::vector<std::string> row{Table::fmt(p, 2)};
    for (const MemorylessProtocol* protocol : curve_protocols) {
      row.push_back(Table::fmt(BiasFunction(*protocol, kN)(p), 4));
    }
    curve.add_row(std::move(row));
  }
  std::printf("F_n(p) value series (the curves of Figures 2-3):\n");
  curve.print(std::cout);

  // Render the two emblematic curves like the paper's figures: minority
  // (Case 1) and 3-majority (Case 2) are sign mirrors of each other.
  for (const MemorylessProtocol* protocol :
       {static_cast<const MemorylessProtocol*>(&minority3),
        static_cast<const MemorylessProtocol*>(&three_majority)}) {
    std::vector<double> values;
    for (int i = 0; i <= 72; ++i) {
      values.push_back(BiasFunction(*protocol, kN)(i / 72.0));
    }
    PlotOptions plot_options;
    plot_options.height = 10;
    plot_options.y_label = "\nF_n(p) for " + protocol->name() +
                           "  (x axis: p from 0 to 1)";
    std::printf("%s", ascii_plot(values, plot_options).c_str());
  }

  // Part 2: roots and classification.
  Table table({"protocol", "F_n(p)", "roots in [0,1]", "case", "interval",
               "z*", "X0/n", "direction"});
  for (const MemorylessProtocol* protocol : protocols) {
    const BiasFunction bias(*protocol, kN);
    const CaseAnalysis analysis = classify_bias(*protocol, kN);
    std::ostringstream roots;
    if (bias.is_identically_zero()) {
      roots << "(F == 0)";
    } else {
      for (const double r : bias.roots()) {
        roots << Table::fmt(r, 3) << " ";
      }
    }
    std::ostringstream interval;
    interval << "(" << Table::fmt(analysis.interval_lo, 3) << ", "
             << Table::fmt(analysis.interval_hi, 3) << ")";
    std::string poly = bias.to_polynomial().to_string();
    if (poly.size() > 46) poly = poly.substr(0, 43) + "...";
    table.add_row({protocol->name(), poly, roots.str(),
                   to_string(analysis.bias_case), interval.str(),
                   std::to_string(to_int(analysis.slow_correct)),
                   Table::fmt(analysis.x0_fraction, 3),
                   analysis.upward ? "up past a3" : "down past a1"});
  }
  std::printf("\nroot structure and Case 1/2 classification (Theorem 12's "
              "construction):\n");
  table.print(std::cout);
  std::printf(
      "\nReading guide: Voter's F vanishes identically (Lemma 11). Minority "
      "is Case 1\n(F < 0 right of its middle root: it fights a large "
      "one-majority, so z = 1 is the\nslow instance, Figure 2); majority-"
      "family dynamics are Case 2 (F > 0 there: they\namplify the majority, "
      "so z = 0 is slow, Figure 3).\n");
}

}  // namespace
}  // namespace bitspread

int main(int argc, char** argv) {
  bitspread::run(bitspread::parse_bench_options(argc, argv));
  return 0;
}
