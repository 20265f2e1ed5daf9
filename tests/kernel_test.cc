// The bitslice step kernel (engine/kernel/): backend resolution and env
// overrides, the boolean g-circuit classifier, lane-RNG invariants and the
// canonical per-slot index map (including its rejection path on CSR rows,
// which random rows almost never reach), the fault mask words against
// binomial() + FloydSampler, the
// kernel/2 golden digest matrix (scalar backend), scalar-vs-SIMD digest
// equality, and kernel-vs-legacy distribution cross-validation — the
// contract that lets the kernel replace the per-agent loop without a
// bit-identity tie to the legacy "kernel/1" stream schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <vector>

#include "core/init.h"
#include "engine/kernel/backend_impl.h"
#include "engine/kernel/kernel.h"
#include "engine/sharded.h"
#include "faults/environment.h"
#include "faults/session.h"
#include "markov/dense_chain.h"
#include "protocols/minority.h"
#include "protocols/three_majority.h"
#include "protocols/voter.h"
#include "random/binomial.h"
#include "random/floyd.h"
#include "random/lanes.h"
#include "random/rng.h"
#include "stats/ks.h"

namespace bitspread {
namespace {

using kernel::Backend;

// ---------------------------------------------------------------------------
// Digest plumbing. The fold and traversal order are part of the golden
// contract below: change them and every pinned value must be regenerated.

std::uint64_t fold(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 3);
  return h * 0x2545f4914f6cdd1dull;
}

std::uint64_t population_digest(const ShardedAgentEngine::Population& pop) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::uint64_t word = 0;
  for (std::uint64_t i = 0; i < pop.size(); ++i) {
    word |= static_cast<std::uint64_t>(to_int(pop.opinion(i))) << (i & 63);
    if ((i & 63) == 63) {
      h = fold(h, word);
      word = 0;
    }
  }
  if ((pop.size() & 63) != 0) h = fold(h, word);
  return fold(h, pop.count_ones());
}

EnvironmentModel digest_fault_model() {
  EnvironmentModel model;
  model.observation_noise = 0.02;
  model.spontaneous_rate = 0.01;
  model.spontaneous_bias = 0.3;
  model.churn_rate = 0.005;
  model.zealot_fraction = 0.05;
  return model;
}

// The mask words' other regimes: Binomial(64, 0.15) walks ~10 entries of
// BINV's pmf recurrence on average, past BinomialTable's 16-entry prefix in
// ~2.5% of words, and the 0.9 bias takes the p > 1/2 mirror. Minority l = 4 has a tie at k = 2, so
// the tie word sits between the noise and spontaneous masks on the aux
// stream.
EnvironmentModel heavy_fault_model() {
  EnvironmentModel model;
  model.observation_noise = 0.15;
  model.spontaneous_rate = 0.05;
  model.spontaneous_bias = 0.9;
  model.churn_rate = 0.02;
  model.zealot_fraction = 0.05;
  return model;
}

// Folds population_digest over `rounds` steps from init_half(n). The faulty
// variant plants zealots and threads a FaultSession under `model` through
// every step.
std::uint64_t run_digest(const MemorylessProtocol& protocol, Backend backend,
                         ShardedAgentEngine::Sampling sampling,
                         std::uint64_t n, bool faulty,
                         std::uint64_t rounds = 10, std::uint64_t seed = 99,
                         const EnvironmentModel& model = digest_fault_model()) {
  ShardedEngineOptions options;
  options.threads = 1;
  options.sampling = sampling;
  options.kernel = backend;
  const ShardedAgentEngine engine(protocol, options);
  const SeedSequence seeds(seed);
  const Configuration init = init_half(n, Opinion::kOne);
  std::uint64_t h = 0xcbf29ce484222325ull;
  if (!faulty) {
    auto pop = engine.make_population(init);
    for (std::uint64_t t = 0; t < rounds; ++t) {
      engine.step(pop, t, seeds);
      h = fold(h, population_digest(pop));
    }
    return h;
  }
  const FaultSession session(model, init);
  auto pop = engine.make_population(session.plant(init));
  for (std::uint64_t t = 0; t < rounds; ++t) {
    engine.step(pop, t, seeds, session);
    h = fold(h, population_digest(pop));
  }
  return h;
}

// ---------------------------------------------------------------------------
// Backend resolution.

TEST(KernelResolve, ExplicitRequestsIgnoreEnvKernel) {
  // The env var replaces kAuto only; pinned backends keep what they asked
  // for (digest tests and bench rows depend on this).
  EXPECT_EQ(kernel::resolve_with(Backend::kLegacy, "scalar", false),
            Backend::kLegacy);
  EXPECT_EQ(kernel::resolve_with(Backend::kScalarWord, "legacy", false),
            Backend::kScalarWord);
  EXPECT_EQ(kernel::resolve_with(Backend::kAuto, "legacy", false),
            Backend::kLegacy);
  EXPECT_EQ(kernel::resolve_with(Backend::kAuto, "scalar", false),
            Backend::kScalarWord);
}

TEST(KernelResolve, UnknownEnvValueBehavesAsAuto) {
  const Backend from_typo =
      kernel::resolve_with(Backend::kAuto, "avx512", false);
  const Backend from_unset =
      kernel::resolve_with(Backend::kAuto, nullptr, false);
  EXPECT_EQ(from_typo, from_unset);
  EXPECT_NE(from_typo, Backend::kLegacy);  // auto never means the legacy loop
}

TEST(KernelResolve, ForceScalarDemotesSimdIncludingExplicitRequests) {
  EXPECT_EQ(kernel::resolve_with(Backend::kAvx2, nullptr, true),
            Backend::kScalarWord);
  EXPECT_EQ(kernel::resolve_with(Backend::kNeon, nullptr, true),
            Backend::kScalarWord);
  EXPECT_EQ(kernel::resolve_with(Backend::kAuto, "avx2", true),
            Backend::kScalarWord);
  EXPECT_EQ(kernel::resolve_with(Backend::kAvx512, nullptr, true),
            Backend::kScalarWord);
  // ...but never touches the non-SIMD backends.
  EXPECT_EQ(kernel::resolve_with(Backend::kLegacy, nullptr, true),
            Backend::kLegacy);
  EXPECT_EQ(kernel::resolve_with(Backend::kScalarWord, nullptr, true),
            Backend::kScalarWord);
}

TEST(KernelResolve, ResolvedBackendsAlwaysHaveABlockFn) {
  // Whatever the host ISA, a resolved non-legacy backend must dispatch.
  for (const Backend requested :
       {Backend::kAuto, Backend::kScalarWord, Backend::kAvx2,
        Backend::kAvx512, Backend::kNeon}) {
    const Backend resolved = kernel::resolve_with(requested, nullptr, false);
    EXPECT_NE(resolved, Backend::kAuto);
    EXPECT_NE(kernel::block_fn(resolved), nullptr)
        << kernel::backend_name(requested);
  }
}

TEST(KernelResolve, AvailableBackendsEndWithScalarWord) {
  const auto backends = kernel::available_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.back(), Backend::kScalarWord);
  for (const Backend b : backends) {
    EXPECT_NE(kernel::block_fn(b), nullptr) << kernel::backend_name(b);
  }
}

TEST(KernelResolve, AvailableBackendsAreListedBestFirst) {
  // The auto preference order: AVX-512F ahead of AVX2, then NEON, then the
  // portable scalar word. Each appears at most once, in that order.
  const Backend order[] = {Backend::kAvx512, Backend::kAvx2, Backend::kNeon,
                           Backend::kScalarWord};
  const auto backends = kernel::available_backends();
  std::size_t next = 0;
  for (const Backend b : backends) {
    while (next < std::size(order) && order[next] != b) ++next;
    ASSERT_LT(next, std::size(order))
        << kernel::backend_name(b) << " out of order";
    ++next;
  }
  // Where AVX-512F is listed, it leads (and so precedes AVX2).
  if (std::find(backends.begin(), backends.end(), Backend::kAvx512) !=
      backends.end()) {
    EXPECT_EQ(backends.front(), Backend::kAvx512);
  }
}

TEST(KernelResolve, Avx512PinResolvesToItselfOrScalar) {
  // A kAvx512 pin never lands on another SIMD tier: on a host without
  // AVX-512F it falls back to the portable scalar word, like every pin.
  const Backend pinned = kernel::resolve_with(Backend::kAvx512, nullptr, false);
  EXPECT_TRUE(pinned == Backend::kAvx512 || pinned == Backend::kScalarWord)
      << kernel::backend_name(pinned);
  // Auto picks the tier first wherever the host runs it.
  if (pinned == Backend::kAvx512) {
    EXPECT_EQ(kernel::resolve_with(Backend::kAuto, nullptr, false),
              Backend::kAvx512);
  }
}

TEST(KernelResolve, BackendNamesAreStable) {
  // Bench rows and the CI kernel matrix grep on these strings.
  EXPECT_STREQ(kernel::backend_name(Backend::kLegacy), "legacy");
  EXPECT_STREQ(kernel::backend_name(Backend::kScalarWord), "scalar");
  EXPECT_STREQ(kernel::backend_name(Backend::kAvx2), "avx2");
  EXPECT_STREQ(kernel::backend_name(Backend::kAvx512), "avx512");
  EXPECT_STREQ(kernel::backend_name(Backend::kNeon), "neon");
}

// ---------------------------------------------------------------------------
// Circuit classification.

TEST(KernelCircuit, ClassifiesMinorityStyleTables) {
  // l=4 minority: g = [0,1,1/2,0,1] for both own values.
  const double g[2][5] = {{0, 1, 0.5, 0, 1}, {0, 1, 0.5, 0, 1}};
  kernel::CircuitTable table;
  ASSERT_TRUE(table.classify(&g[0][0], 4));
  EXPECT_EQ(table.ones_ks[0], (std::vector<std::uint32_t>{1, 4}));
  EXPECT_EQ(table.half_ks[0], (std::vector<std::uint32_t>{2}));
  EXPECT_TRUE(table.any_half);
  EXPECT_FALSE(table.own_dependent);
}

TEST(KernelCircuit, DetectsOwnDependence) {
  // Own-dependent boolean rule: adopt 1 only when unanimous, except agents
  // already at 1 keep it on an empty count too.
  const double g[2][3] = {{0, 0, 1}, {1, 0, 1}};
  kernel::CircuitTable table;
  ASSERT_TRUE(table.classify(&g[0][0], 2));
  EXPECT_TRUE(table.own_dependent);
  EXPECT_FALSE(table.any_half);
}

TEST(KernelCircuit, RejectsFractionalTables) {
  // Voter at l=3: g = k/3 is not {0, 1/2, 1}-valued, so the boolean circuit
  // cannot express it and the engine must take the legacy loop.
  const double g[2][4] = {{0, 1.0 / 3, 2.0 / 3, 1},
                          {0, 1.0 / 3, 2.0 / 3, 1}};
  kernel::CircuitTable table;
  EXPECT_FALSE(table.classify(&g[0][0], 3));
}

// ---------------------------------------------------------------------------
// Lane RNG invariants.

TEST(KernelLanes, FillRowMatchesPerLaneNext) {
  LaneRng a(0x1234567890abcdefull);
  LaneRng b(0x1234567890abcdefull);
  for (int row = 0; row < 16; ++row) {
    std::uint64_t out[LaneRng::kLanes];
    a.fill_row(out);
    for (unsigned lane = 0; lane < LaneRng::kLanes; ++lane) {
      EXPECT_EQ(out[lane], b.next(lane)) << "row " << row << " lane " << lane;
    }
  }
}

TEST(KernelLanes, LanesAndAuxSeedDifferAcrossMasters) {
  LaneRng a(1);
  LaneRng b(2);
  EXPECT_NE(a.aux_seed(), b.aux_seed());
  for (unsigned lane = 0; lane < LaneRng::kLanes; ++lane) {
    EXPECT_NE(a.next(lane), b.next(lane)) << "lane " << lane;
  }
}

TEST(KernelLanes, LaneViewDrawsFromTheParentStream) {
  LaneRng a(9);
  LaneRng b(9);
  auto view = a.lane_view(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(view.next_below(1000), b.next_below(3, 1000));
  }
}

TEST(KernelLanes, Lemire32ThresholdIsExact) {
  for (const std::uint64_t n : {1ull, 2ull, 3ull, 97ull, 4096ull, 100003ull,
                                2147483647ull, 4294967295ull}) {
    EXPECT_EQ(lemire32_threshold(n),
              static_cast<std::uint32_t>(((1ull << 32) - n) % n))
        << n;
  }
  EXPECT_EQ(lemire32_threshold(1u << 16), 0u);  // powers of two never reject
}

TEST(KernelLanes, IndexRowsAreInRangeAndUniform) {
  // 16 indices per row; after the Lemire rejection step every slot must be
  // uniform on [0, n). n=6 is far from a divisor of 2^32, so the rejection
  // path runs constantly.
  const std::uint32_t n = 6;
  LaneRng lanes(777);
  std::uint32_t bound[16];
  std::fill_n(bound, 16, n);
  std::vector<std::uint64_t> counts(n, 0);
  const int kRows = 30000;
  for (int r = 0; r < kRows; ++r) {
    std::uint64_t row[LaneRng::kLanes];
    lanes.fill_row(row);
    std::uint32_t idx[16];
    indices_from_row(lanes, row, bound, idx);
    for (const std::uint32_t i : idx) {
      ASSERT_LT(i, n);
      ++counts[i];
    }
  }
  const std::vector<double> uniform(n, 1.0 / n);
  int dof = 0;
  const double stat =
      chi_square_statistic(counts, uniform, 16ull * kRows, &dof);
  EXPECT_GT(chi_square_p_value(stat, dof), 1e-4) << "stat=" << stat;
}

TEST(KernelLanes, PerSlotBoundsRejectThroughTheCanonicalMap) {
  // A zero half has low product half 0, below every nonzero threshold, so
  // at a non-power-of-two bound its slot must redraw from its own lane; at a
  // power of two (threshold 0) the same zero half maps to index 0 at once.
  // With bounds the size of a degree the path is otherwise unreachable
  // (P ~ deg / 2^32 per slot), so the row is crafted.
  std::uint64_t row[LaneRng::kLanes];
  LaneRng source(31);
  source.fill_row(row);
  row[2] &= 0xffffffff00000000ull;  // Slot 4: zero low half.
  row[5] &= 0x00000000ffffffffull;  // Slot 11: zero high half.
  row[6] &= 0xffffffff00000000ull;  // Slot 12: zero low half.
  std::uint32_t bound[16];
  for (unsigned s = 0; s < 16; ++s) bound[s] = 7 + 2 * s;
  bound[4] = 6;     // Threshold (2^32 - 6) % 6 = 4.
  bound[11] = 1000;  // Threshold 296.
  bound[12] = 8;    // Power of two: threshold 0, no redraw.

  LaneRng lanes(77);
  LaneRng replay(77);
  std::uint32_t out[16];
  indices_from_row(lanes, row, bound, out);

  // The rule, written out independently: Lemire index of the slot's half;
  // while the low product half is below (2^32 - b) % b, redraw the low half
  // of the slot's own lane, slots in ascending order.
  for (unsigned s = 0; s < 16; ++s) {
    const std::uint64_t b = bound[s];
    const std::uint64_t threshold = ((std::uint64_t{1} << 32) - b) % b;
    std::uint64_t x = (s & 1) != 0 ? row[s >> 1] >> 32
                                   : row[s >> 1] & 0xffffffffull;
    int redraws = 0;
    while (((x * b) & 0xffffffffull) < threshold) {
      x = replay.next(s >> 1) & 0xffffffffull;
      ++redraws;
    }
    EXPECT_EQ(out[s], static_cast<std::uint32_t>((x * b) >> 32)) << s;
    EXPECT_LT(out[s], b) << s;
    if (s == 4 || s == 11) {
      EXPECT_GE(redraws, 1) << s;
    }
    if (s == 12) {
      EXPECT_EQ(redraws, 0);
    }
  }
  EXPECT_EQ(out[12], 0u);
  for (unsigned lane = 0; lane < LaneRng::kLanes; ++lane) {
    EXPECT_EQ(lanes.next(lane), replay.next(lane)) << "lane " << lane;
  }
}

TEST(KernelLanes, SimdRowRejectionMatchesScalarOnGraphRows) {
  // The SIMD backends' cold path on CSR rows: a hand-built CSR of 100
  // agents (a full word and a tail word) with degree 32513 each, l = 128.
  // A lane seed whose schedule rejects at least one slot in lanes 0-3 and
  // one in lanes 4-7 (AVX2's two halves of a row, one AVX-512 vector) is
  // found by replaying the canonical map, then every backend's block must
  // match the scalar block bit for bit.
  constexpr std::uint64_t kN = 100;
  // Threshold 32509, so a slot rejects with P ~ 7.6e-6 and about one seed
  // in 500 rejects in both halves.
  constexpr std::uint32_t kDegree = 32513;
  constexpr std::uint32_t kEll = 128;
  std::vector<std::uint64_t> offsets(kN + 1);
  std::vector<std::uint32_t> adjacency(kN * kDegree);
  for (std::uint64_t v = 0; v <= kN; ++v) offsets[v] = v * kDegree;
  Rng fill(3);
  for (std::uint32_t& a : adjacency) {
    a = static_cast<std::uint32_t>(fill.next_below(kN));
  }
  const std::vector<std::uint64_t> plane = {fill(), fill() & 0xfffffffffull};

  // Replays one block's with-replacement lane schedule (kEll x 4 rows per
  // word; the tail word's padding slots have bound 1) and counts rejected
  // slots in lanes 0-3 (slots 0-7) and lanes 4-7 (slots 8-15).
  struct Rejections {
    int low_lanes = 0;
    int high_lanes = 0;
  };
  const auto rejections = [&](std::uint64_t seed) {
    LaneRng lanes(seed);
    Rejections rejected;
    for (std::uint64_t word = 0; word < 2; ++word) {
      for (std::uint32_t j = 0; j < kEll; ++j) {
        for (unsigned q = 0; q < 4; ++q) {
          std::uint64_t row[LaneRng::kLanes];
          lanes.fill_row(row);
          std::uint32_t bound[16];
          for (unsigned s = 0; s < 16; ++s) {
            bound[s] = word * 64 + 16 * q + s < kN ? kDegree : 1;
            const std::uint64_t half = (s & 1) != 0
                                           ? row[s >> 1] >> 32
                                           : row[s >> 1] & 0xffffffffull;
            if (((half * bound[s]) & 0xffffffffull) <
                lemire32_threshold(bound[s])) {
              ++(s < 8 ? rejected.low_lanes : rejected.high_lanes);
            }
          }
          std::uint32_t out[16];
          indices_from_row(lanes, row, bound, out);
        }
      }
    }
    return rejected;
  };
  std::uint64_t seed = 1;
  for (;; ++seed) {
    const Rejections r = rejections(seed);
    if (r.low_lanes > 0 && r.high_lanes > 0) break;
  }

  std::vector<double> gtable(2 * (kEll + 1));
  for (std::uint32_t k = 0; k <= kEll; ++k) {
    gtable[k] = gtable[kEll + 1 + k] = (k & 1) != 0 ? 1.0 : 0.0;
  }
  kernel::CircuitTable table;
  ASSERT_TRUE(table.classify(gtable.data(), kEll));
  FloydSampler sampler;
  const auto run_block = [&](Backend backend, std::uint64_t& ones) {
    std::vector<std::uint64_t> next(2, 0);
    kernel::BlockArgs args;
    args.current = plane.data();
    args.next = next.data();
    args.n = kN;
    args.sources = 1;
    args.ell = kEll;
    args.index_threshold = lemire32_threshold(kN);
    args.first_word = 0;
    args.word_count = 2;
    args.lane_seed = seed;
    args.offsets = offsets.data();
    args.adjacency = adjacency.data();
    args.table = &table;
    args.sampler = &sampler;
    args.out_ones = &ones;
    kernel::block_fn(backend)(args);
    return next;
  };
  std::uint64_t scalar_ones = 0;
  const std::vector<std::uint64_t> scalar =
      run_block(Backend::kScalarWord, scalar_ones);
  for (const Backend backend : kernel::available_backends()) {
    std::uint64_t ones = 0;
    EXPECT_EQ(run_block(backend, ones), scalar)
        << kernel::backend_name(backend) << " seed " << seed;
    EXPECT_EQ(ones, scalar_ones) << kernel::backend_name(backend);
  }
}

// ---------------------------------------------------------------------------
// Fault mask words: the per-round coin and the in-word Floyd placement
// against their definition — binomial(aux, 64, p), then FloydSampler's
// k-subset of [0, 64) — word for word and draw for draw. The p cover a
// short and a long BINV walk, the BINV/BTRS boundary (64 * 10/64 = 10),
// BTRS, p = 1/2 and the p > 1/2 mirror; p = 0 and 1 draw nothing.

TEST(KernelFaultMask, WordsMatchBinomialThenFloydSampler) {
  const double kPs[] = {0.0, 1e-9, 0.01, 0.15, 10.0 / 64, 0.3,
                        0.5, 0.9, 0.999, 1.0};
  for (const double p : kPs) {
    const BinomialTable coin(64, p);
    FloydSampler sampler;
    Rng aux(0xfa017);
    Rng reference(0xfa017);
    const auto fresh = aux.state();
    for (int i = 0; i < 100000; ++i) {
      const std::uint64_t word = kernel::detail::bernoulli_word(aux, coin);
      const std::uint64_t k = binomial(reference, 64, p);
      std::uint64_t expected = 0;
      sampler.sample(64, k, reference, [&expected](std::uint64_t bit) {
        expected |= std::uint64_t{1} << bit;
      });
      ASSERT_EQ(word, expected) << "p=" << p << " word " << i;
      ASSERT_EQ(aux.state(), reference.state()) << "p=" << p << " word " << i;
    }
    if (p == 0.0 || p == 1.0) {
      EXPECT_EQ(aux.state(), fresh) << "p=" << p;
    }
  }
}

// ---------------------------------------------------------------------------
// Golden digest matrix (kernel/2 schedule, scalar backend). The l values
// cross the single-word boundary (64, 65); 65 exercises Floyd sampling with
// l > 64 in without-replacement mode; n = 12345 spans four blocks with a
// partial last word and is far from a power of two, so the 32-bit Lemire
// rejection path runs. Voter rows with l in {3,5,17,64,65} have fractional
// g and therefore pin the legacy-fallback digest instead — also part of the
// contract (voter l=2 has g in {0,1/2,1} and rides the kernel, collapsing
// onto the same circuit as minority l=2).
//
// Regenerate by re-running this test: each failing row prints its computed
// value. Scalar and SIMD backends must agree on every row (asserted
// separately below), so the pinned values are backend-independent.

struct GoldenRow {
  std::uint32_t ell;
  bool distinct;
  std::uint64_t minority;
  std::uint64_t voter;
};

constexpr std::uint64_t kGoldenN = 12345;

constexpr GoldenRow kGoldenRows[] = {
    {1, false, 0x484e2efa2d2cfcb4ull, 0x484e2efa2d2cfcb4ull},
    {1, true, 0xdc7e50920247b3dcull, 0xdc7e50920247b3dcull},
    {2, false, 0xa729eab25867fd1full, 0xa729eab25867fd1full},
    {2, true, 0x9a6f0075c13340dcull, 0x9a6f0075c13340dcull},
    {3, false, 0x698369d6c7f56470ull, 0x0435fc617563bd8aull},
    {3, true, 0x3b40873bf6d37a4dull, 0x9bbefa12f868ab3dull},
    {5, false, 0x2312e5e0bd7620b0ull, 0x4a213ca622349571ull},
    {5, true, 0x9d48acd637718c18ull, 0xf5dc6bc7706ba059ull},
    {17, false, 0x1b7aeff15aad1526ull, 0x039c2bce361d4cb5ull},
    {17, true, 0x8c16c8992fc4fed1ull, 0x3411564e4db8e0d7ull},
    {64, false, 0x31c5741c16f2f1a6ull, 0x95cfd4b339491a11ull},
    {64, true, 0x25ca34189f107f3full, 0x9e07dfa4fadc0fa4ull},
    {65, false, 0x2eaa1ee92fdad75aull, 0x7c4bba3b6978b764ull},
    {65, true, 0x198db1da3ff4f3f5ull, 0xd8476d6459da9a76ull},
};

// The faulty path pins its own stream schedule (kernel/2 fault phase):
// minority l=3 under noise + spontaneous flips + churn + zealots.
constexpr std::uint64_t kGoldenFaultyWithReplacement = 0x56b37223908de90cull;
constexpr std::uint64_t kGoldenFaultyDistinct = 0x4be7fad5ab2784afull;
// Minority l=4 under heavy_fault_model(): long BINV walks, the mirrored
// bias coin and the tie word between the masks.
constexpr std::uint64_t kGoldenHeavyFaultyWithReplacement =
    0xe5393c37414c2b62ull;
constexpr std::uint64_t kGoldenHeavyFaultyDistinct = 0x34ca371b91f4d57cull;

ShardedAgentEngine::Sampling sampling_for(bool distinct) {
  return distinct ? ShardedAgentEngine::Sampling::kWithoutReplacement
                  : ShardedAgentEngine::Sampling::kWithReplacement;
}

// Every pinned faulty digest of `backend`, with the row named on failure.
void expect_faulty_goldens(Backend backend) {
  const MinorityDynamics minority(3);
  const MinorityDynamics minority4(4);
  const std::uint64_t got[4] = {
      run_digest(minority, backend, sampling_for(false), kGoldenN, true),
      run_digest(minority, backend, sampling_for(true), kGoldenN, true),
      run_digest(minority4, backend, sampling_for(false), kGoldenN, true,
                 /*rounds=*/10, /*seed=*/99, heavy_fault_model()),
      run_digest(minority4, backend, sampling_for(true), kGoldenN, true,
                 /*rounds=*/10, /*seed=*/99, heavy_fault_model())};
  const std::uint64_t want[4] = {
      kGoldenFaultyWithReplacement, kGoldenFaultyDistinct,
      kGoldenHeavyFaultyWithReplacement, kGoldenHeavyFaultyDistinct};
  const char* names[4] = {"faulty", "faulty distinct", "heavy faulty",
                          "heavy faulty distinct"};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(got[i], want[i])
        << kernel::backend_name(backend) << " " << names[i] << " computed 0x"
        << std::hex << std::setw(16) << std::setfill('0') << got[i];
  }
}

TEST(KernelGolden, ScalarDigestMatrixMatchesPinnedValues) {
  for (const GoldenRow& row : kGoldenRows) {
    const MinorityDynamics minority(row.ell);
    const VoterDynamics voter(row.ell);
    const auto sampling = sampling_for(row.distinct);
    const std::uint64_t got_minority = run_digest(
        minority, Backend::kScalarWord, sampling, kGoldenN, false);
    const std::uint64_t got_voter =
        run_digest(voter, Backend::kScalarWord, sampling, kGoldenN, false);
    EXPECT_EQ(got_minority, row.minority)
        << "minority l=" << row.ell << " distinct=" << row.distinct
        << " computed 0x" << std::hex << std::setw(16) << std::setfill('0')
        << got_minority;
    EXPECT_EQ(got_voter, row.voter)
        << "voter l=" << row.ell << " distinct=" << row.distinct
        << " computed 0x" << std::hex << std::setw(16) << std::setfill('0')
        << got_voter;
  }
}

TEST(KernelGolden, ScalarFaultyDigestsMatchPinnedValues) {
  expect_faulty_goldens(Backend::kScalarWord);
}

TEST(KernelGolden, SimdBackendsMatchScalarOnTheFullMatrix) {
  // The cross-backend contract: on whatever ISA the CI host has, every
  // available backend reproduces the scalar digest bit-for-bit, faulty rows
  // included. (On a host without AVX2/NEON this degenerates to scalar ==
  // scalar; the CI kernel matrix job runs it on both sides.)
  for (const Backend backend : kernel::available_backends()) {
    if (backend == Backend::kScalarWord) continue;
    for (const GoldenRow& row : kGoldenRows) {
      const MinorityDynamics minority(row.ell);
      const VoterDynamics voter(row.ell);
      const auto sampling = sampling_for(row.distinct);
      EXPECT_EQ(
          run_digest(minority, backend, sampling, kGoldenN, false),
          row.minority)
          << kernel::backend_name(backend) << " minority l=" << row.ell
          << " distinct=" << row.distinct;
      EXPECT_EQ(run_digest(voter, backend, sampling, kGoldenN, false),
                row.voter)
          << kernel::backend_name(backend) << " voter l=" << row.ell
          << " distinct=" << row.distinct;
    }
    expect_faulty_goldens(backend);
  }
}

TEST(KernelGolden, AutoEngagesTheKernelForEligibleRounds) {
  // kAuto must resolve onto the kernel/2 schedule (digest == pinned scalar
  // value, whatever SIMD tier auto picks) and actually leave the legacy
  // loop (digest != legacy). This is the test that catches a silently
  // disabled kernel: a fallback would still pass every equality-only check.
  const MinorityDynamics minority(3);
  const auto sampling = sampling_for(false);
  const std::uint64_t via_auto =
      run_digest(minority, Backend::kAuto, sampling, kGoldenN, false);
  const std::uint64_t via_legacy =
      run_digest(minority, Backend::kLegacy, sampling, kGoldenN, false);
  EXPECT_EQ(via_auto, 0x698369d6c7f56470ull);
  EXPECT_NE(via_auto, via_legacy);
}

TEST(KernelGolden, StepBackendReportsDispatchDecision) {
  const MinorityDynamics minority(3);
  const VoterDynamics voter(3);
  const ShardedAgentEngine eligible(minority, {.threads = 1});
  const ShardedAgentEngine fractional(voter, {.threads = 1});
  const ShardedAgentEngine pinned_legacy(
      minority, {.threads = 1, .kernel = Backend::kLegacy});
  auto pop_a = eligible.make_population(init_half(1000, Opinion::kOne));
  auto pop_b = fractional.make_population(init_half(1000, Opinion::kOne));
  auto pop_c = pinned_legacy.make_population(init_half(1000, Opinion::kOne));
  EXPECT_NE(eligible.step_backend(pop_a), Backend::kLegacy);
  EXPECT_EQ(fractional.step_backend(pop_b), Backend::kLegacy);
  EXPECT_EQ(pinned_legacy.step_backend(pop_c), Backend::kLegacy);
  // The reasons are stable strings (NOTATION.md): a deliberate legacy pin
  // says so rather than blaming an unavailable backend.
  EXPECT_STREQ(eligible.step_dispatch(pop_a).reason, "eligible");
  EXPECT_STREQ(fractional.step_dispatch(pop_b).reason,
               "fractional g-table: no boolean circuit form");
  EXPECT_STREQ(pinned_legacy.step_dispatch(pop_c).reason,
               "legacy loop requested");
}

TEST(KernelGolden, FractionalProtocolFallsBackToLegacyDigest) {
  // Voter l=3 is ineligible, so requesting kAuto must give exactly the
  // legacy digest — the fallback is the legacy loop itself, not a kernel
  // approximation of it.
  const VoterDynamics voter(3);
  const auto sampling = sampling_for(false);
  EXPECT_EQ(run_digest(voter, Backend::kAuto, sampling, kGoldenN, false),
            run_digest(voter, Backend::kLegacy, sampling, kGoldenN, false));
}

TEST(KernelGolden, KernelStaysBitIdenticalAcrossThreadsAndShards) {
  // The engine's headline determinism guarantee must survive the kernel
  // path: randomness is still keyed per (round, block).
  const MinorityDynamics minority(3);
  const std::uint64_t n = 3 * ShardedAgentEngine::kBlockAgents + 77;
  const SeedSequence seeds(5);
  std::uint64_t reference = 0;
  bool first = true;
  for (const auto& [threads, shards] :
       std::vector<std::pair<unsigned, std::uint32_t>>{
           {1, 0}, {2, 1}, {4, 3}, {8, 8}}) {
    ShardedEngineOptions options;
    options.threads = threads;
    options.shards = shards;
    const ShardedAgentEngine engine(minority, options);
    auto pop = engine.make_population(init_half(n, Opinion::kOne));
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t t = 0; t < 8; ++t) {
      engine.step(pop, t, seeds);
      h = fold(h, population_digest(pop));
    }
    if (first) {
      reference = h;
      first = false;
    } else {
      EXPECT_EQ(h, reference) << threads << " threads, " << shards
                              << " shards";
    }
  }
}

// ---------------------------------------------------------------------------
// Distribution cross-validation: the kernel/2 schedule is a different
// stream of randomness, so equality is in law, not in bits. One-step
// exactness against the dense chain, run-length agreement with the legacy
// loop, and the faulty path's one-step law close the loop.

TEST(KernelCrossValidation, OneStepMatchesExactChainRow) {
  // 3-majority has g in {0,1}, so the kernel runs it; its one-step ones
  // count must follow the exact dense-chain transition row.
  const ThreeMajorityDynamics three;
  const std::uint64_t n = 24;
  const std::uint64_t x0 = 10;
  const DenseParallelChain chain(three, n, Opinion::kZero);
  const std::vector<double> expected = chain.transition_row(x0);

  const ShardedAgentEngine engine(
      three, {.threads = 1, .kernel = Backend::kScalarWord});
  const int kTrials = 30000;
  std::vector<std::uint64_t> counts(chain.state_count(), 0);
  for (int i = 0; i < kTrials; ++i) {
    auto population =
        engine.make_population(Configuration{n, x0, Opinion::kZero});
    engine.step(population, 0, SeedSequence(7000 + i));
    ++counts[population.count_ones() - chain.min_state()];
  }
  int dof = 0;
  const double stat = chi_square_statistic(counts, expected, kTrials, &dof);
  EXPECT_GT(chi_square_p_value(stat, dof), 1e-4)
      << "stat=" << stat << " dof=" << dof;
}

TEST(KernelCrossValidation, ConvergenceTimesMatchLegacyInLaw) {
  // Voter l=1 convergence times under the kernel and under the legacy loop
  // are draws from the same distribution (KS) — the kernel/1 vs kernel/2
  // schedules differ in bits but not in law.
  const VoterDynamics voter;
  const std::uint64_t n = 30;
  StopRule rule;
  rule.max_rounds = 1000000;
  const ShardedAgentEngine with_kernel(
      voter, {.threads = 1, .kernel = Backend::kAuto});
  const ShardedAgentEngine with_legacy(
      voter, {.threads = 1, .kernel = Backend::kLegacy});
  const int kTrials = 400;
  std::vector<double> kernel_times, legacy_times;
  for (int i = 0; i < kTrials; ++i) {
    const Configuration init{n, 10, Opinion::kOne};
    const RunResult a =
        with_kernel.run(init, rule, 61000 + static_cast<std::uint64_t>(i));
    const RunResult b =
        with_legacy.run(init, rule, 62000 + static_cast<std::uint64_t>(i));
    ASSERT_TRUE(a.converged());
    ASSERT_TRUE(b.converged());
    kernel_times.push_back(static_cast<double>(a.rounds()));
    legacy_times.push_back(static_cast<double>(b.rounds()));
  }
  const double d = ks_statistic(kernel_times, legacy_times);
  EXPECT_GT(ks_p_value(d, kernel_times.size(), legacy_times.size()), 1e-3)
      << "KS=" << d;
}

TEST(KernelCrossValidation, FaultyStepMatchesLegacyInLaw) {
  // Same one-round comparison with every fault channel live: the ones
  // counts after one noisy/churning/zealoted minority round, sampled across
  // seeds, must agree between kernel and legacy (KS).
  const MinorityDynamics minority(3);
  const std::uint64_t n = 600;
  const Configuration init = init_half(n, Opinion::kOne);
  const FaultSession session(digest_fault_model(), init);
  const ShardedAgentEngine with_kernel(
      minority, {.threads = 1, .kernel = Backend::kAuto});
  const ShardedAgentEngine with_legacy(
      minority, {.threads = 1, .kernel = Backend::kLegacy});
  const int kTrials = 2000;
  std::vector<double> kernel_ones, legacy_ones;
  for (int i = 0; i < kTrials; ++i) {
    auto a = with_kernel.make_population(session.plant(init));
    auto b = with_legacy.make_population(session.plant(init));
    with_kernel.step(a, 0, SeedSequence(81000 + i), session);
    with_legacy.step(b, 0, SeedSequence(82000 + i), session);
    kernel_ones.push_back(static_cast<double>(a.count_ones()));
    legacy_ones.push_back(static_cast<double>(b.count_ones()));
  }
  const double d = ks_statistic(kernel_ones, legacy_ones);
  EXPECT_GT(ks_p_value(d, kernel_ones.size(), legacy_ones.size()), 1e-3)
      << "KS=" << d;
}

}  // namespace
}  // namespace bitspread
