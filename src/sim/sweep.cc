#include "sim/sweep.h"

#include <cassert>

namespace bitspread {

std::vector<std::uint64_t> power_of_two_grid(int lo_exp, int hi_exp) {
  assert(lo_exp >= 0 && hi_exp >= lo_exp && hi_exp < 63);
  std::vector<std::uint64_t> grid;
  for (int e = lo_exp; e <= hi_exp; ++e) {
    grid.push_back(std::uint64_t{1} << e);
  }
  return grid;
}

}  // namespace bitspread
