// Absorbing-chain solves: exact expected hitting times and hitting
// probabilities from the fundamental-matrix equations, for any dense chain.
#ifndef BITSPREAD_MARKOV_ABSORPTION_H_
#define BITSPREAD_MARKOV_ABSORPTION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "markov/dense_chain.h"

namespace bitspread {

// Expected number of rounds to reach any state in `absorbing` (indicator over
// state indices 0..row_count-1), starting from each state:
// solves (I - Q) t = 1 over the transient states. `row(i)` must return the
// full transition row of state i. A state that is absorbed with probability
// < 1 (it can reach a state from which the absorbing set is unreachable)
// gets +infinity; the system is solved over the other states.
std::vector<double> expected_hitting_rounds(
    std::size_t state_count,
    const std::function<std::vector<double>(std::size_t)>& row,
    const std::vector<bool>& absorbing);

// Convenience for the dense parallel chain: expected rounds to reach the
// correct consensus from every state (indexed by x - min_state()).
std::vector<double> expected_convergence_rounds(const DenseParallelChain& chain);

}  // namespace bitspread

#endif  // BITSPREAD_MARKOV_ABSORPTION_H_
