// The parameter grid for sweeps over population sizes.
#ifndef BITSPREAD_SIM_SWEEP_H_
#define BITSPREAD_SIM_SWEEP_H_

#include <cstdint>
#include <vector>

namespace bitspread {

// Powers of two from 2^lo_exp to 2^hi_exp inclusive.
std::vector<std::uint64_t> power_of_two_grid(int lo_exp, int hi_exp);

}  // namespace bitspread

#endif  // BITSPREAD_SIM_SWEEP_H_
