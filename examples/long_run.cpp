// Long-running deterministic driver for the crash-recovery harness
// (tools/crash_harness.py).
//
// One sharded-engine run whose semantic payload is a pure function of the
// command line: minority with constant l stalls (Theorem 1), so the run
// deterministically reaches the round cap — long enough to kill -9 at a
// randomized round and resume from the snapshot ring. On a completed run the
// last stdout line is machine-readable:
//
//   LONGRUN {"digest":"0x...","reason":"round-limit","ticks":4000}
//
// The digest is snapshot::payload_digest over (reason, ticks, final
// configuration, recovery segments); the harness asserts it is identical
// between an uninterrupted run and any interrupted-then-resumed chain.
//
//   $ ./long_run --n=16384 --rounds=4000 --run-seed=7 --threads=4
//       --checkpoint-out=/tmp/ring --checkpoint-every=64 [--resume=auto]
//
// Options (checkpoint/trace flags come via FlightRecorderOptions::parse):
//   --n=<agents>      population size            (default 16384)
//   --rounds=<cap>    round cap                  (default 4000)
//   --run-seed=<u64>  master seed                (default 7)
//   --ell=<l>         minority sample size       (default 3; stalls per Thm 1)
//   --threads=<t>     worker threads             (default 0 = hardware)
//   --shards=<s>      scheduling shards          (default 0 = per block)
//   --kernel=<name>   auto|legacy|scalar         (default auto)
//   --flip-at=<r>     fault run: source flip at round r (0 = fault-free)
// An interrupted run (SIGINT/SIGTERM) prints LONGRUN-INTERRUPTED and exits
// with status 3 so callers can tell "stopped to resume later" from "done".
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/init.h"
#include "engine/sharded.h"
#include "faults/environment.h"
#include "protocols/minority.h"
#include "sim/cli.h"
#include "snapshot/state.h"

int main(int argc, char** argv) {
  using namespace bitspread;

  std::uint64_t n = 1 << 14;
  std::uint64_t rounds = 4000;
  std::uint64_t seed = 7;
  std::uint32_t ell = 3;
  unsigned threads = 0;
  std::uint32_t shards = 0;
  std::uint64_t flip_at = 0;
  kernel::Backend backend = kernel::Backend::kAuto;

  // Split our flags from the shared telemetry/checkpoint flags so
  // FlightRecorderOptions::parse never warns about ours.
  std::vector<char*> shared{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--n=", 0) == 0) {
      n = std::strtoull(arg.c_str() + 4, nullptr, 0);
    } else if (arg.rfind("--rounds=", 0) == 0) {
      rounds = std::strtoull(arg.c_str() + 9, nullptr, 0);
    } else if (arg.rfind("--run-seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 11, nullptr, 0);
    } else if (arg.rfind("--ell=", 0) == 0) {
      ell = static_cast<std::uint32_t>(
          std::strtoul(arg.c_str() + 6, nullptr, 0));
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads =
          static_cast<unsigned>(std::strtoul(arg.c_str() + 10, nullptr, 0));
    } else if (arg.rfind("--shards=", 0) == 0) {
      shards = static_cast<std::uint32_t>(
          std::strtoul(arg.c_str() + 9, nullptr, 0));
    } else if (arg.rfind("--flip-at=", 0) == 0) {
      flip_at = std::strtoull(arg.c_str() + 10, nullptr, 0);
    } else if (arg.rfind("--kernel=", 0) == 0) {
      const std::string name = arg.substr(9);
      backend = name == "legacy"   ? kernel::Backend::kLegacy
                : name == "scalar" ? kernel::Backend::kScalarWord
                                   : kernel::Backend::kAuto;
    } else {
      shared.push_back(argv[i]);
    }
  }

  const FlightRecorderScope flight_recorder(FlightRecorderOptions::parse(
      static_cast<int>(shared.size()), shared.data()));

  const MinorityDynamics minority(ell);
  ShardedEngineOptions options;
  options.threads = threads;
  options.shards = shards;
  options.kernel = backend;
  const ShardedAgentEngine engine(minority, options);

  // Balanced adversarial start: constant-l minority hovers near n/2 forever
  // (Theorem 1), so fault-free runs are censored at exactly `rounds`.
  const Configuration init = init_fraction_ones(n, Opinion::kOne, 0.5);
  StopRule rule;
  rule.max_rounds = rounds;

  RunResult result;
  if (flip_at != 0) {
    EnvironmentModel faults;
    faults.source_flip_rounds = {flip_at};
    result = engine.run(init, rule, faults, seed);
  } else {
    result = engine.run(init, rule, seed);
  }

  if (result.reason == StopReason::kInterrupted) {
    std::printf("LONGRUN-INTERRUPTED {\"ticks\":%llu}\n",
                static_cast<unsigned long long>(result.ticks));
    return 3;
  }
  std::printf("LONGRUN {\"digest\":\"0x%016llx\",\"reason\":\"%s\","
              "\"ticks\":%llu,\"ones\":%llu}\n",
              static_cast<unsigned long long>(
                  snapshot::payload_digest(result)),
              to_string(result.reason).c_str(),
              static_cast<unsigned long long>(result.ticks),
              static_cast<unsigned long long>(result.final_config.ones));
  return 0;
}
