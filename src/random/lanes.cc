#include "random/lanes.h"

namespace bitspread {

LaneRng::LaneRng(std::uint64_t master) noexcept {
  SplitMix64 chain(master);
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    const std::array<std::uint64_t, 4> s = Rng::seed_state(chain.next());
    for (unsigned k = 0; k < 4; ++k) state_[k][lane] = s[k];
  }
  aux_seed_ = chain.next();
}

void indices_from_row(LaneRng& lanes, const std::uint64_t row[LaneRng::kLanes],
                      const std::uint32_t bound[16],
                      std::uint32_t out[16]) noexcept {
  for (unsigned s = 0; s < 16; ++s) {
    const std::uint64_t x = row[s >> 1];
    const auto x32 = (s & 1) != 0 ? static_cast<std::uint32_t>(x >> 32)
                                  : static_cast<std::uint32_t>(x);
    out[s] = map_slot(lanes, s >> 1, x32, bound[s]);
  }
}

}  // namespace bitspread
