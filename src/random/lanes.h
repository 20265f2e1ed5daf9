// Eight interleaved xoshiro256** streams for the word-parallel step kernel.
//
// The bitslice kernel (engine/kernel/) consumes randomness eight 64-bit
// draws at a time so its SIMD backends can advance all streams with vector
// arithmetic. LaneRng is the canonical form of that bundle: lane j is
// exactly the generator `Rng(lane_seed_j)` would be, where the eight lane
// seeds (plus one auxiliary seed for the kernel's scalar side channels) are
// a SplitMix64 chain off one master seed — the same expand-one-seed recipe
// Rng's own constructor uses.
//
// The state is stored struct-of-arrays, state()[k][lane], so a vector
// backend can load state word k of four lanes with one 256-bit load. The
// scalar member functions below define the reference semantics; SIMD code
// operating on state() directly must reproduce them bit-for-bit (pinned by
// the kernel digest-equality tests).
#ifndef BITSPREAD_RANDOM_LANES_H_
#define BITSPREAD_RANDOM_LANES_H_

#include <cstdint>

#include "random/rng.h"

namespace bitspread {

class LaneRng {
 public:
  static constexpr unsigned kLanes = 8;

  // Expands `master` into 8 lane states + 1 auxiliary seed via SplitMix64.
  explicit LaneRng(std::uint64_t master) noexcept;

  // Seed for the kernel's scalar auxiliary stream (fault masks, tie words):
  // the ninth value of the master's SplitMix64 chain.
  std::uint64_t aux_seed() const noexcept { return aux_seed_; }

  // One draw from every lane, in lane order: out[j] is lane j's next value.
  void fill_row(std::uint64_t out[kLanes]) noexcept {
    for (unsigned lane = 0; lane < kLanes; ++lane) out[lane] = next(lane);
  }

  // One draw from a single lane (the kernel's rejection-redraw path).
  std::uint64_t next(unsigned lane) noexcept {
    const std::uint64_t result = rotl(state_[1][lane] * 5, 7) * 9;
    const std::uint64_t t = state_[1][lane] << 17;
    state_[2][lane] ^= state_[0][lane];
    state_[3][lane] ^= state_[1][lane];
    state_[1][lane] ^= state_[2][lane];
    state_[0][lane] ^= state_[3][lane];
    state_[2][lane] ^= t;
    state_[3][lane] = rotl(state_[3][lane], 45);
    return result;
  }

  // Uniform integer in [0, bound) from one lane — Lemire's 64-bit method,
  // identical to Rng::next_below on the matching scalar generator. Used by
  // the kernel's without-replacement (Floyd) sampling stage.
  std::uint64_t next_below(unsigned lane, std::uint64_t bound) noexcept {
    std::uint64_t x = next(lane);
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) [[unlikely]] {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = next(lane);
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Raw state, word-major: state()[k][lane] is state word k of `lane`.
  // SIMD backends load/advance/store this directly.
  std::uint64_t (&state() noexcept)[4][kLanes] { return state_; }

  // View of one lane for generic samplers (FloydSampler): forwards
  // next_below to the parent so draws stay on the lane's stream.
  struct LaneView {
    LaneRng* lanes;
    unsigned lane;
    std::uint64_t next_below(std::uint64_t bound) noexcept {
      return lanes->next_below(lane, bound);
    }
  };
  LaneView lane_view(unsigned lane) noexcept { return LaneView{this, lane}; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  alignas(64) std::uint64_t state_[4][kLanes];
  std::uint64_t aux_seed_;
};

// The exact 32-bit Lemire rejection threshold for population size n < 2^32:
// a 32-bit draw x maps to index (x * n) >> 32 and is rejected (redrawn) when
// the low half of the product is < threshold, making every index exactly
// uniform. Zero (no rejections) whenever n is a power of two.
inline std::uint32_t lemire32_threshold(std::uint64_t n) noexcept {
  return static_cast<std::uint32_t>(((std::uint64_t{1} << 32) - n) % n);
}

// One slot of the canonical index map: the 32-bit half `x32` of a draw from
// `lane`, mapped to [0, bound) by Lemire multiply-shift. When the low half
// of the product falls below `bound`, the slot computes
// lemire32_threshold(bound) and, while the low half is below that, redraws
// the low half of a fresh draw from `lane` (mutating `lanes`). The check
// against `bound` first keeps the modulo off all but ~bound/2^32 of slots.
inline std::uint32_t map_slot(LaneRng& lanes, unsigned lane, std::uint32_t x32,
                              std::uint32_t bound) noexcept {
  std::uint64_t m = static_cast<std::uint64_t>(x32) * bound;
  auto low = static_cast<std::uint32_t>(m);
  if (low < bound) [[unlikely]] {
    const std::uint32_t threshold = lemire32_threshold(bound);
    while (low < threshold) {
      const auto redraw = static_cast<std::uint32_t>(lanes.next(lane));
      m = static_cast<std::uint64_t>(redraw) * bound;
      low = static_cast<std::uint32_t>(m);
    }
  }
  return static_cast<std::uint32_t>(m >> 32);
}

// The canonical index map of the kernel/2 stream schedule. Maps one
// already-drawn row (row[j] = lane j's draw) to 16 indices, slot s uniform
// on [0, bound[s]): slot s takes the low (s even) or high (s odd) 32-bit
// half of lane ⌊s/2⌋'s draw through map_slot, slots in ascending order. On
// the complete graph every bound is n; on a graph bound[s] is the degree of
// the slot's agent. SIMD index generators must match this function
// bit-for-bit.
void indices_from_row(LaneRng& lanes, const std::uint64_t row[LaneRng::kLanes],
                      const std::uint32_t bound[16],
                      std::uint32_t out[16]) noexcept;

}  // namespace bitspread

#endif  // BITSPREAD_RANDOM_LANES_H_
