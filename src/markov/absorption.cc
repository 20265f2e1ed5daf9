#include "markov/absorption.h"

#include <cassert>
#include <limits>

#include "markov/linalg.h"

namespace bitspread {
namespace {

// Closes `reached` under "has a positive transition into": state i joins
// when system(i, j) = -Q_ij < 0 for some reached j != i.
void close_backwards(const Matrix& system, std::vector<bool>& reached) {
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < reached.size(); ++i) {
    if (reached[i]) frontier.push_back(i);
  }
  while (!frontier.empty()) {
    const std::size_t j = frontier.back();
    frontier.pop_back();
    for (std::size_t i = 0; i < reached.size(); ++i) {
      if (!reached[i] && system.at(i, j) < 0.0) {
        reached[i] = true;
        frontier.push_back(i);
      }
    }
  }
}

}  // namespace

std::vector<double> expected_hitting_rounds(
    std::size_t state_count,
    const std::function<std::vector<double>(std::size_t)>& row,
    const std::vector<bool>& absorbing) {
  assert(absorbing.size() == state_count);

  // Index map: transient states only.
  std::vector<std::size_t> transient_index(state_count, SIZE_MAX);
  std::vector<std::size_t> transient_states;
  for (std::size_t s = 0; s < state_count; ++s) {
    if (!absorbing[s]) {
      transient_index[s] = transient_states.size();
      transient_states.push_back(s);
    }
  }
  const std::size_t m = transient_states.size();

  std::vector<double> times(state_count, 0.0);
  if (m == 0) return times;

  Matrix system(m, m, 0.0);
  std::vector<double> rhs(m, 1.0);
  // reaches[i]: `absorbing` is reachable from i. Seeded here with the states
  // one step from it, then closed backwards.
  std::vector<bool> reaches(m, false);
  for (std::size_t i = 0; i < m; ++i) {
    const std::vector<double> r = row(transient_states[i]);
    assert(r.size() == state_count);
    system.at(i, i) = 1.0;
    for (std::size_t s = 0; s < state_count; ++s) {
      if (absorbing[s]) {
        if (r[s] > 0.0) reaches[i] = true;
        continue;
      }
      system.at(i, transient_index[s]) -= r[s];
    }
  }

  // A state that can reach one from which `absorbing` is unreachable is
  // absorbed with probability < 1: its expected time is infinite, and its
  // row would make I - Q singular. No state with a finite time has a
  // positive step into it, so its row becomes an identity row and its time
  // is set after the solve.
  close_backwards(system, reaches);
  std::vector<bool> infinite(m);
  for (std::size_t i = 0; i < m; ++i) infinite[i] = !reaches[i];
  close_backwards(system, infinite);
  for (std::size_t i = 0; i < m; ++i) {
    if (!infinite[i]) continue;
    for (std::size_t j = 0; j < m; ++j) system.at(i, j) = i == j ? 1.0 : 0.0;
  }
  const std::vector<double> t = solve_linear_system(std::move(system), rhs);
  for (std::size_t i = 0; i < m; ++i) {
    times[transient_states[i]] =
        infinite[i] ? std::numeric_limits<double>::infinity() : t[i];
  }
  return times;
}

std::vector<double> expected_convergence_rounds(
    const DenseParallelChain& chain) {
  const std::size_t count = chain.state_count();
  std::vector<bool> absorbing(count, false);
  absorbing[chain.correct_consensus_state() - chain.min_state()] = true;
  return expected_hitting_rounds(
      count,
      [&chain](std::size_t i) {
        return chain.transition_row(chain.min_state() + i);
      },
      absorbing);
}

}  // namespace bitspread
