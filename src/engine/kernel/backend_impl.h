// Shared implementation of the bitslice step kernel (internal header).
//
// Every backend instantiates process_block_impl<Filler> with a Filler that
// implements only the sampling stage — everything else (the kernel/2 draw
// schedule, the fault-mask machinery, the counting circuit, freezing and
// commit) is this one template, so backends are bit-identical by
// construction and differ only in how fast they turn RNG lanes into
// gathered bit-lanes.
//
// Row maps. Slot s of quartet q in a word's index rows belongs to agent
// base + 16q + s. A row map is the compile-time policy that says what that
// slot samples: CompleteRows draws in [0, n) and the index is the agent
// (the complete graph, kernel/2 verbatim); CsrRows draws in [0, deg(v)) and
// sends the index through v's CSR row. The sampling loops are instantiated
// per row map, and one branch per word on BlockArgs::offsets picks the
// instantiation, so the complete path runs its own loops with no per-slot
// degree work while the fault, count, decide and commit stages below exist
// once per backend. A row map provides
//   degree(agent) / neighbor(agent, index)
//                             one agent's bound and row lookup;
//   map(lanes, row, first, out)
//                             indices_from_row for slots [first, first+16)
//                             of the word, mapped to agents.
//
// Filler contract (one instance per block, constructed over the block's
// LaneRng):
//   void fill_lanes(const BlockArgs&, std::uint64_t word, std::uint64_t* L)
//       With-replacement sampling for one word: L[j] bit a = opinion bit of
//       the j-th sample of agent a. Must consume randomness exactly like
//       the canonical schedule (fill_lanes_canonical): for each sample j
//       (outer) and agent quartet q (inner), one row of lane draws mapped
//       by indices_from_row — i.e. one draw per lane, plus single-lane
//       redraws for rejected slots in ascending slot order.
//   void gather_pack(const BlockArgs&, std::uint64_t* L)
//       Without-replacement mode: indices were already drawn (Floyd, on the
//       per-agent lanes) and mapped to agents into index_scratch, lane-major
//       (slot j * 64 + a); gather them into L. Consumes no randomness.
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
// avx2.cc holds both x86 fillers; the SIMD ones return nullptr when the
// build lacks the instruction set).
BlockFn scalar_block_fn() noexcept;
BlockFn avx2_block_fn() noexcept;
BlockFn avx512_block_fn() noexcept;
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

// 64 iid Bernoulli(p) bits from `coin` = Binomial(64, p): the popcount is
// Binomial(64, p)-distributed and the set positions a uniform subset, which
// is exactly the law of 64 independent coins. The positions are Floyd's
// k-subset of [0, 64) with the word as its membership set: the same
// next_below(j + 1) draws and the same subset as FloydSampler::sample(64, k).
// Always inlined, like decide() below, so that avx2.cc (built -mavx2) never
// emits an out-of-line copy the linker could keep for baseline callers.
[[gnu::always_inline]] inline std::uint64_t bernoulli_word(
    Rng& aux, const BinomialTable& coin) noexcept {
  const std::uint64_t k = coin.draw(aux);
  if (k == 0) return 0;
  if (k >= 64) return ~std::uint64_t{0};
  std::uint64_t word = 0;
  for (std::uint64_t j = 64 - k; j < 64; ++j) {
    const std::uint64_t bit = std::uint64_t{1} << aux.next_below(j + 1);
    word |= (word & bit) != 0 ? std::uint64_t{1} << j : bit;
  }
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
[[gnu::always_inline]] inline std::uint64_t decide(const BitCount& count,
                                                   const CircuitTable& table,
                                                   unsigned own,
                                                   std::uint64_t tie) noexcept {
  std::uint64_t acc = 0;
  for (const std::uint32_t k : table.ones_ks[own]) acc |= eq_mask(count, k);
  if (!table.half_ks[own].empty()) {
    std::uint64_t half = 0;
    for (const std::uint32_t k : table.half_ks[own]) half |= eq_mask(count, k);
    acc |= half & tie;
  }
  return acc;
}

// The complete graph: every slot draws in [0, n) and the index is the
// agent itself.
struct CompleteRows {
  explicit CompleteRows(const BlockArgs& a) noexcept {
    std::fill_n(bound, 16, static_cast<std::uint32_t>(a.n));
  }
  std::uint64_t degree(unsigned) const noexcept { return bound[0]; }
  std::uint32_t neighbor(unsigned, std::uint64_t index) const noexcept {
    return static_cast<std::uint32_t>(index);
  }
  void map(LaneRng& lanes, const std::uint64_t row[LaneRng::kLanes],
           unsigned, std::uint32_t out[16]) const noexcept {
    indices_from_row(lanes, row, bound, out);
  }

  std::uint32_t bound[16];  // n in every slot.
};

// A structured graph: slot a of `word` draws in [0, deg(base + a)) and
// reads that agent's CSR row. Padding slots of a tail word get degree 1 at
// the word's first row entry, so every read stays in bounds (their bits
// are masked off at commit).
struct CsrRows {
  CsrRows(const BlockArgs& a, std::uint64_t word) noexcept {
    const std::uint64_t base = word * 64;
    const std::uint64_t* offsets = a.offsets + base;
    const unsigned valid =
        a.n - base < 64 ? static_cast<unsigned>(a.n - base) : 64u;
    for (unsigned s = 0; s < valid; ++s) {
      row[s] = a.adjacency + offsets[s];
      bound[s] = static_cast<std::uint32_t>(offsets[s + 1] - offsets[s]);
    }
    for (unsigned s = valid; s < 64; ++s) {
      row[s] = a.adjacency + offsets[0];
      bound[s] = 1;
    }
  }
  std::uint64_t degree(unsigned agent) const noexcept { return bound[agent]; }
  std::uint32_t neighbor(unsigned agent, std::uint64_t index) const noexcept {
    return row[agent][index];
  }
  void map(LaneRng& lanes, const std::uint64_t draws[LaneRng::kLanes],
           unsigned first, std::uint32_t out[16]) const noexcept {
    indices_from_row(lanes, draws, bound + first, out);
    for (unsigned s = 0; s < 16; ++s) out[s] = row[first + s][out[s]];
  }

  std::uint32_t bound[64];
  const std::uint32_t* row[64];
};

inline std::uint64_t gather_bit(const std::uint64_t* plane,
                                std::uint32_t index) noexcept {
  return (plane[index >> 6] >> (index & 63)) & 1;
}

// One draw from every lane, in lane order: the canonical row.
inline void draw_row(LaneRng& lanes, std::uint64_t* row) noexcept {
  lanes.fill_row(row);
}

using DrawRowFn = void (*)(LaneRng&, std::uint64_t*) noexcept;

// The canonical with-replacement fill for one word (scalar and NEON
// backends, and the x86 backends' wide-row fallback): per sample j and
// quartet q, DrawRow draws one value from every lane, the row map turns the
// row into 16 agents, and their plane bits are packed.
template <typename Rows, DrawRowFn DrawRow = draw_row>
void fill_lanes_canonical(const BlockArgs& a, const Rows& rows,
                          LaneRng& lanes, std::uint64_t* L) noexcept {
  for (std::uint32_t j = 0; j < a.ell; ++j) {
    std::uint64_t lane_word = 0;
    for (unsigned quartet = 0; quartet < 4; ++quartet) {
      std::uint64_t row[LaneRng::kLanes];
      DrawRow(lanes, row);
      std::uint32_t idx[16];
      rows.map(lanes, row, 16 * quartet, idx);
      std::uint64_t bits16 = 0;
      for (unsigned s = 0; s < 16; ++s) {
        bits16 |= gather_bit(a.current, idx[s]) << s;
      }
      lane_word |= bits16 << (16 * quartet);
    }
    L[j] = lane_word;
  }
}

// A filler built on the canonical map and gather: the scalar backend as
// is, the NEON backend with its vector DrawRow.
template <DrawRowFn DrawRow = draw_row>
struct CanonicalFiller {
  explicit CanonicalFiller(LaneRng& lanes) noexcept : lanes_(lanes) {}

  void fill_lanes(const BlockArgs& a, std::uint64_t word,
                  std::uint64_t* L) noexcept {
    if (a.offsets == nullptr) {
      fill_lanes_canonical<CompleteRows, DrawRow>(a, CompleteRows(a), lanes_,
                                                  L);
    } else {
      fill_lanes_canonical<CsrRows, DrawRow>(a, CsrRows(a, word), lanes_, L);
    }
  }

  void gather_pack(const BlockArgs& a, std::uint64_t* L) noexcept {
    for (std::uint32_t j = 0; j < a.ell; ++j) {
      const std::uint32_t* idx =
          a.index_scratch + static_cast<std::size_t>(j) * 64;
      std::uint64_t word = 0;
      for (unsigned agent = 0; agent < 64; ++agent) {
        word |= gather_bit(a.current, idx[agent]) << agent;
      }
      L[j] = word;
    }
  }

 private:
  LaneRng& lanes_;
};

// Without-replacement index stage: each updating agent a draws a Floyd
// l-subset of [0, degree) from lane (a & 7), agents in ascending order, and
// stores the sampled agents into index_scratch lane-major. Non-updating
// agents draw nothing (their slots are zeroed so backend gathers stay in
// bounds; the results are discarded by masking).
template <typename Rows>
void fill_distinct_indices(const BlockArgs& a, const Rows& rows,
                           LaneRng& lanes, std::uint64_t update) {
  std::uint32_t* idx = a.index_scratch;
  if (update != ~std::uint64_t{0}) {
    std::fill_n(idx, static_cast<std::size_t>(a.ell) * 64, 0u);
  }
  std::uint64_t sample[kMaxEll];
  for (unsigned agent = 0; agent < 64; ++agent) {
    if (((update >> agent) & 1) == 0) continue;
    LaneRng::LaneView view = lanes.lane_view(agent & 7);
    a.sampler->sample_batch(rows.degree(agent), a.ell, view, sample);
    for (std::uint32_t j = 0; j < a.ell; ++j) {
      idx[j * 64 + agent] = rows.neighbor(agent, sample[j]);
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
  const bool noisy = faults != nullptr && faults->noise.p() > 0.0;
  const bool spontaneous =
      faults != nullptr && faults->spontaneous_select.p() > 0.0;
  const bool churning = faults != nullptr && faults->churn.p() > 0.0;

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
      filler.fill_lanes(a, w, L);
    } else {
      if (a.offsets == nullptr) {
        fill_distinct_indices(a, CompleteRows(a), lanes, update);
      } else {
        fill_distinct_indices(a, CsrRows(a, w), lanes, update);
      }
      filler.gather_pack(a, L);
    }

    // 2. Auxiliary stream, fixed channel order: noise masks, tie word,
    // spontaneous select/value, churn select.
    prof.enter(telemetry::Phase::kKernelFault);
    if (noisy) {
      for (std::uint32_t j = 0; j < a.ell; ++j) {
        L[j] ^= bernoulli_word(aux, faults->noise);
      }
    }
    const std::uint64_t tie = table.any_half ? aux() : 0;
    std::uint64_t spont_sel = 0;
    std::uint64_t spont_val = 0;
    std::uint64_t churn_sel = 0;
    if (spontaneous) {
      spont_sel = bernoulli_word(aux, faults->spontaneous_select);
      spont_val = bernoulli_word(aux, faults->spontaneous_value);
    }
    if (churning) churn_sel = bernoulli_word(aux, faults->churn);

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
    if (spontaneous) value = (value & ~spont_sel) | (spont_val & spont_sel);
    if (churning) {
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
