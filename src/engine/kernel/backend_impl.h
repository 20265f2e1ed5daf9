// Shared implementation of the bitslice step kernel (internal header).
//
// Every backend instantiates process_block_impl<Filler> with a Filler that
// implements only the sampling stage — everything else (the kernel/2 draw
// schedule, the fault-mask machinery, the counting circuit, freezing and
// commit) is this one template, so backends are bit-identical by
// construction and differ only in how fast they turn RNG lanes into
// gathered bit-lanes.
//
// Filler contract (one instance per block, constructed over the block's
// LaneRng):
//   void fill_lanes(const BlockArgs&, std::uint64_t* L)
//       With-replacement sampling for one word: L[j] bit a = opinion bit of
//       the j-th sample of agent a. Must consume randomness exactly like
//       the canonical schedule: for each sample j (outer) and agent quartet
//       q (inner), one fill_index_row — i.e. one draw per lane, plus
//       single-lane redraws for rejected slots in ascending slot order.
//   void gather_pack(const BlockArgs&, std::uint64_t* L)
//       Without-replacement mode: indices were already drawn (Floyd, on the
//       per-agent lanes) into index_scratch, lane-major (slot j * 64 + a);
//       gather them into L. Consumes no randomness.
#ifndef BITSPREAD_ENGINE_KERNEL_BACKEND_IMPL_H_
#define BITSPREAD_ENGINE_KERNEL_BACKEND_IMPL_H_

#include <algorithm>
#include <bit>
#include <cstdint>

#include "engine/kernel/kernel.h"
#include "profile/counters.h"
#include "random/binomial.h"
#include "random/floyd.h"
#include "random/lanes.h"
#include "random/rng.h"
#include "telemetry/telemetry.h"

namespace bitspread {
namespace kernel {

// Internal backend entry points (defined in scalar.cc / avx2.cc / neon.cc;
// the SIMD ones return nullptr when the build lacks the instruction set).
BlockFn scalar_block_fn() noexcept;
BlockFn avx2_block_fn() noexcept;
BlockFn neon_block_fn() noexcept;

namespace detail {

// Bits of [lo, hi) that fall inside the word starting at agent `base`.
inline std::uint64_t range_word(std::uint64_t base, std::uint64_t lo,
                                std::uint64_t hi) noexcept {
  if (hi <= base || lo >= base + 64) return 0;
  const std::uint64_t from = lo > base ? lo - base : 0;
  const std::uint64_t to = hi - base < 64 ? hi - base : 64;
  const std::uint64_t upper =
      to == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << to) - 1;
  return upper & ~((std::uint64_t{1} << from) - 1);
}

// 64 iid Bernoulli(p) bits in ~2 expected draws: the popcount is
// Binomial(64, p)-distributed and the set positions a uniform subset, which
// is exactly the law of 64 independent coins.
inline std::uint64_t bernoulli_word(Rng& aux, FloydSampler& sampler,
                                    double p) {
  const std::uint64_t k = binomial(aux, 64, p);
  if (k == 0) return 0;
  if (k >= 64) return ~std::uint64_t{0};
  std::uint64_t word = 0;
  sampler.sample(64, k, aux, [&word](std::uint64_t bit) noexcept {
    word |= std::uint64_t{1} << bit;
  });
  return word;
}

// Bitsliced sample counts: bit a of bits[b] is bit b of agent a's count.
struct BitCount {
  std::uint64_t bits[8];
  unsigned width;
};

inline void count_lanes(const std::uint64_t* L, std::uint32_t ell,
                        BitCount& count) noexcept {
  count.width = static_cast<unsigned>(std::bit_width(ell));
  for (unsigned b = 0; b < count.width; ++b) count.bits[b] = 0;
  for (std::uint32_t j = 0; j < ell; ++j) {
    std::uint64_t carry = L[j];
    for (unsigned b = 0; carry != 0 && b < count.width; ++b) {
      const std::uint64_t sum = count.bits[b] ^ carry;
      carry &= count.bits[b];
      count.bits[b] = sum;
    }
  }
}

// Word of agents whose count equals k.
inline std::uint64_t eq_mask(const BitCount& count, std::uint32_t k) noexcept {
  std::uint64_t mask = ~std::uint64_t{0};
  for (unsigned b = 0; b < count.width; ++b) {
    mask &= ((k >> b) & 1) != 0 ? count.bits[b] : ~count.bits[b];
  }
  return mask;
}

// The adoption word for agents whose own bit is `own`: 1 where g = 1, the
// shared tie word where g = 1/2. One tie word serves every (own, k) class —
// each agent sits in exactly one, so the masks are disjoint per bit.
inline std::uint64_t decide(const BitCount& count, const CircuitTable& table,
                            unsigned own, std::uint64_t tie) noexcept {
  std::uint64_t acc = 0;
  for (const std::uint32_t k : table.ones_ks[own]) acc |= eq_mask(count, k);
  if (!table.half_ks[own].empty()) {
    std::uint64_t half = 0;
    for (const std::uint32_t k : table.half_ks[own]) half |= eq_mask(count, k);
    acc |= half & tie;
  }
  return acc;
}

// Without-replacement index stage: each updating agent a draws a Floyd
// l-subset from lane (a & 7), agents in ascending order, into index_scratch
// lane-major. Non-updating agents draw nothing (their slots are zeroed so
// backend gathers stay in bounds; the results are discarded by masking).
inline void fill_distinct_indices(const BlockArgs& a, LaneRng& lanes,
                                  std::uint64_t update) {
  std::uint32_t* idx = a.index_scratch;
  if (update != ~std::uint64_t{0}) {
    std::fill_n(idx, static_cast<std::size_t>(a.ell) * 64, 0u);
  }
  std::uint64_t sample[kMaxEll];
  for (unsigned agent = 0; agent < 64; ++agent) {
    if (((update >> agent) & 1) == 0) continue;
    LaneRng::LaneView view = lanes.lane_view(agent & 7);
    a.sampler->sample_batch(a.n, a.ell, view, sample);
    for (std::uint32_t j = 0; j < a.ell; ++j) {
      idx[j * 64 + agent] = static_cast<std::uint32_t>(sample[j]);
    }
  }
}

template <typename Filler>
void process_block_impl(const BlockArgs& a) {
  const telemetry::Probe draw_probe(telemetry::Phase::kSampleDraw);
  // Sub-phase attribution (gather/fault/decide/commit). Sink pointers are
  // resolved once per block; with no sink installed every enter() below is
  // a dead branch. Markers read clocks and counters only — they never touch
  // the lane or aux RNG streams, so profiled runs stay bit-identical.
  profile::KernelBlockProfiler prof;
  LaneRng lanes(a.lane_seed);
  Rng aux(lanes.aux_seed());
  Filler filler(lanes);
  const CircuitTable& table = *a.table;
  const FaultChannels* faults = a.faults;
  const double eps = faults != nullptr ? faults->observation_noise : 0.0;
  const double eta = faults != nullptr ? faults->spontaneous_rate : 0.0;
  const double delta = faults != nullptr ? faults->churn_rate : 0.0;

  std::uint64_t ones = 0;
  std::uint64_t churned = 0;
  std::uint64_t L[kMaxEll];
  const std::uint64_t word_end = a.first_word + a.word_count;
  for (std::uint64_t w = a.first_word; w < word_end; ++w) {
    const std::uint64_t base = w * 64;
    const std::uint64_t valid =
        a.n - base >= 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << (a.n - base)) - 1;
    std::uint64_t frozen = range_word(base, 0, a.sources);
    if (faults != nullptr) {
      frozen |= range_word(base, faults->zealot_begin, faults->zealot_end);
    }
    frozen &= valid;
    const std::uint64_t update = valid & ~frozen;
    if (update == 0) {
      // Fully frozen (or pure tail): carried over verbatim, no draws.
      a.next[w] = a.current[w];
      ones += static_cast<std::uint64_t>(std::popcount(a.current[w]));
      continue;
    }

    // 1. Sample: l lane words, bit a of L[j] = sample j of agent a.
    prof.enter(telemetry::Phase::kKernelGather);
    if (!a.without_replacement) {
      filler.fill_lanes(a, L);
    } else {
      fill_distinct_indices(a, lanes, update);
      filler.gather_pack(a, L);
    }

    // 2. Auxiliary stream, fixed channel order: noise masks, tie word,
    // spontaneous select/value, churn select.
    prof.enter(telemetry::Phase::kKernelFault);
    if (eps > 0.0) {
      for (std::uint32_t j = 0; j < a.ell; ++j) {
        L[j] ^= bernoulli_word(aux, *a.sampler, eps);
      }
    }
    const std::uint64_t tie = table.any_half ? aux() : 0;
    std::uint64_t spont_sel = 0;
    std::uint64_t spont_val = 0;
    std::uint64_t churn_sel = 0;
    if (eta > 0.0) {
      spont_sel = bernoulli_word(aux, *a.sampler, eta);
      spont_val = bernoulli_word(aux, *a.sampler, faults->spontaneous_bias);
    }
    if (delta > 0.0) churn_sel = bernoulli_word(aux, *a.sampler, delta);

    // 3. Count + decide, then the fault overrides in legacy order
    // (spontaneous replaces the protocol's output, churn replaces both).
    prof.enter(telemetry::Phase::kKernelDecide);
    BitCount count;
    count_lanes(L, a.ell, count);
    const std::uint64_t own = a.current[w];
    std::uint64_t value = decide(count, table, 0, tie);
    if (table.own_dependent) {
      value = (~own & value) | (own & decide(count, table, 1, tie));
    }
    if (eta > 0.0) value = (value & ~spont_sel) | (spont_val & spont_sel);
    if (delta > 0.0) {
      value = (value & ~churn_sel) | (faults->wrong_word & churn_sel);
      churned += static_cast<std::uint64_t>(std::popcount(churn_sel & update));
    }

    // 4. Commit: plane writeback + running popcount.
    prof.enter(telemetry::Phase::kKernelCommit);
    const std::uint64_t out = (value & update) | (own & frozen);
    a.next[w] = out;
    ones += static_cast<std::uint64_t>(std::popcount(out));
  }
  prof.leave();
  *a.out_ones = ones;
  if (a.out_churned != nullptr) *a.out_churned = churned;
}

}  // namespace detail
}  // namespace kernel
}  // namespace bitspread

#endif  // BITSPREAD_ENGINE_KERNEL_BACKEND_IMPL_H_
