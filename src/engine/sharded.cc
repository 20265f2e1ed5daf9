#include "engine/sharded.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "engine/kernel/kernel.h"
#include "engine/run_loop.h"
#include "faults/session.h"
#include "random/lanes.h"
#include "sim/parallel.h"
#include "snapshot/state.h"
#include "telemetry/telemetry.h"

namespace bitspread {
namespace {

// Stream-phase tag separating this engine's derived seeds from every other
// consumer of the same SeedSequence.
constexpr std::uint64_t kStreamPhase = 0x73686172;  // "shar"
// Distinct phase for faulty rounds: a faulty run is a different experiment
// and must not alias the fault-free stream for the same (round, block).
constexpr std::uint64_t kFaultPhase = 0x6661756c;  // "faul"
// Bitslice-kernel phases (the "kernel/2" stream schedule, DESIGN.md §3.6):
// the kernel consumes randomness in a different per-block order than the
// per-agent loop, so it owns distinct phases — replaying a run always uses
// the schedule it was recorded under.
constexpr std::uint64_t kKernelPhase = 0x6b726e32;       // "krn2"
constexpr std::uint64_t kKernelFaultPhase = 0x6b726632;  // "krf2"

// Sets bits [begin, end) in a zeroed plane.
void set_bit_range(std::vector<std::uint64_t>& plane, std::uint64_t begin,
                   std::uint64_t end) noexcept {
  for (std::uint64_t i = begin; i < end && (i & 63) != 0; ++i) {
    plane[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  std::uint64_t i = begin + ((64 - (begin & 63)) & 63);
  for (; i + 64 <= end; i += 64) plane[i >> 6] = ~std::uint64_t{0};
  for (; i < end; ++i) plane[i >> 6] |= std::uint64_t{1} << (i & 63);
}

// Every observation probe routes through the Topology seam: agent `agent`
// draws from its own sampling population (the whole plane under uniform
// PULL, its CSR row on a structured graph). The complete-graph branch of
// sample_neighbors* replays the legacy draw sequence verbatim, so these
// helpers are bit-identical to the pre-topology probes.
inline std::uint32_t probe_ones(const std::uint64_t* plane,
                                const Topology& topo, std::uint64_t agent,
                                std::uint32_t ell, Rng& rng) noexcept {
  std::uint32_t ones = 0;
  topo.sample_neighbors(agent, ell, rng, [&](std::uint64_t i) noexcept {
    ones += static_cast<std::uint32_t>((plane[i >> 6] >> (i & 63)) & 1);
  });
  return ones;
}

inline std::uint32_t probe_ones_distinct(const std::uint64_t* plane,
                                         const Topology& topo,
                                         std::uint64_t agent,
                                         std::uint32_t ell, Rng& rng,
                                         FloydSampler& sampler) noexcept {
  std::uint32_t ones = 0;
  topo.sample_neighbors_distinct(
      agent, ell, rng, sampler, [&](std::uint64_t i) noexcept {
        ones += static_cast<std::uint32_t>((plane[i >> 6] >> (i & 63)) & 1);
      });
  return ones;
}

// BSC variants: each probed bit flips with probability epsilon.
inline std::uint32_t probe_ones_noisy(const std::uint64_t* plane,
                                      const Topology& topo,
                                      std::uint64_t agent, std::uint32_t ell,
                                      double epsilon, Rng& rng) noexcept {
  std::uint32_t ones = 0;
  topo.sample_neighbors(agent, ell, rng, [&](std::uint64_t i) noexcept {
    const auto bit =
        static_cast<std::uint32_t>((plane[i >> 6] >> (i & 63)) & 1);
    ones += rng.bernoulli(epsilon) ? bit ^ 1U : bit;
  });
  return ones;
}

inline std::uint32_t probe_ones_distinct_noisy(const std::uint64_t* plane,
                                               const Topology& topo,
                                               std::uint64_t agent,
                                               std::uint32_t ell,
                                               double epsilon, Rng& rng,
                                               FloydSampler& sampler) noexcept {
  std::uint32_t ones = 0;
  topo.sample_neighbors_distinct(
      agent, ell, rng, sampler, [&](std::uint64_t i) noexcept {
        const auto bit =
            static_cast<std::uint32_t>((plane[i >> 6] >> (i & 63)) & 1);
        ones += rng.bernoulli(epsilon) ? bit ^ 1U : bit;
      });
  return ones;
}

}  // namespace

namespace {

// Fault-free stepper: the per-(round, block) stream schedule lives entirely
// in ShardedAgentEngine::step — the driver only supplies the round index.
struct ShardedStepper {
  const ShardedAgentEngine& engine;
  ShardedAgentEngine::Population& population;
  const SeedSequence& seeds;
  Configuration state;
  std::uint64_t samples = 0;

  Configuration& config() noexcept { return state; }
  void step(std::uint64_t tick) {
    engine.step(population, tick, seeds);
    state = population.config();
    samples += (state.n - state.sources) * engine.sample_size(state.n);
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }

  // Snapshot hooks. Every stream is derived from (seed, round, block, phase)
  // — the only RNG cursor is the round the driver already stores — so the
  // captured state is the packed plane plus a master-seed fingerprint that
  // restore() refuses to resume across.
  static constexpr const char* kSnapshotTag = "sharded";
  void capture(snapshot::StepperState& out) const {
    out.seed_check = seeds.master();
    out.topology_check = engine.topology_digest();
    out.plane = population.plane_words();
    out.agent_states = population.memory_states();
    out.samples_drawn = samples;
  }
  bool restore(const snapshot::StepperState& saved) {
    if (saved.seed_check != seeds.master()) return false;
    // A snapshot written on a different graph would replay different
    // neighbor draws and silently diverge; refuse instead.
    if (saved.topology_check != engine.topology_digest()) return false;
    if (!population.restore_plane(saved.plane, saved.agent_states)) {
      return false;
    }
    population.set_correct(state.correct);
    if (population.count_ones() != state.ones) return false;
    samples = saved.samples_drawn;
    state = population.config();
    return true;
  }
};

// Faulty stepper: fault randomness stays on the dedicated per-(round, block)
// fault streams inside the faulty step; the flip mirror reboots the packed
// source bits (and views, on the stateful path).
struct ShardedFaultyStepper {
  const ShardedAgentEngine& engine;
  ShardedAgentEngine::Population& population;
  const SeedSequence& seeds;
  FaultSession& session;
  const StatefulProtocol* stateful;
  Configuration state;
  std::uint64_t samples = 0;
  std::uint64_t churn_events = 0;

  Configuration& config() noexcept { return state; }
  void step(std::uint64_t tick) {
    engine.step(population, tick, seeds, session);
    churn_events += population.last_step_churned();
    samples += session.free_agents() * engine.sample_size(state.n);
    state = population.config();
  }
  void sync_flip() {
    // Mirror the flip onto the packed planes: sources display the new
    // correct opinion; on the stateful path they also reboot their view.
    population.set_correct(state.correct);
    for (std::uint64_t i = 0; i < population.source_count(); ++i) {
      population.set_opinion(i, state.correct);
      if (stateful != nullptr) {
        population.set_state(i, stateful->initial_view(state.correct).state);
      }
    }
    assert(population.count_ones() == state.ones);
  }
  std::uint64_t samples_drawn() const noexcept { return samples; }
  std::uint64_t churned() const noexcept { return churn_events; }

  static constexpr const char* kSnapshotTag = "sharded.faulty";
  void capture(snapshot::StepperState& out) const {
    out.seed_check = seeds.master();
    out.topology_check = engine.topology_digest();
    out.plane = population.plane_words();
    out.agent_states = population.memory_states();
    out.samples_drawn = samples;
    out.churn_events = churn_events;
  }
  bool restore(const snapshot::StepperState& saved) {
    if (saved.seed_check != seeds.master()) return false;
    if (saved.topology_check != engine.topology_digest()) return false;
    if (!population.restore_plane(saved.plane, saved.agent_states)) {
      return false;
    }
    population.set_correct(state.correct);
    if (population.count_ones() != state.ones) return false;
    samples = saved.samples_drawn;
    churn_events = saved.churn_events;
    state = population.config();
    return true;
  }
};

}  // namespace

ShardedAgentEngine::ShardedAgentEngine(const StatefulProtocol& protocol,
                                       Options options) noexcept
    : protocol_(&protocol), options_(options) {
  if (const auto* adapter =
          dynamic_cast<const MemorylessAsStateful*>(&protocol)) {
    memoryless_ = &adapter->base();
    protocol_ = nullptr;
  }
}

void ShardedAgentEngine::Population::set_opinion(std::uint64_t i,
                                                 Opinion opinion) noexcept {
  std::uint64_t& word = current_[i >> 6];
  const std::uint64_t mask = std::uint64_t{1} << (i & 63);
  const bool now = opinion == Opinion::kOne;
  if (((word & mask) != 0) == now) return;
  word ^= mask;
  ones_ += now ? 1 : std::uint64_t{0} - 1;
}

void ShardedAgentEngine::Population::set_state(std::uint64_t i,
                                               std::uint32_t state) {
  if (states_.empty()) states_.resize(n_, 0);
  states_[i] = state;
}

std::uint64_t ShardedAgentEngine::Population::last_step_churned()
    const noexcept {
  std::uint64_t churned = 0;
  for (const std::uint64_t c : block_churned_) churned += c;
  return churned;
}

bool ShardedAgentEngine::Population::restore_plane(
    const std::vector<std::uint64_t>& plane,
    const std::vector<std::uint32_t>& states) {
  if (plane.size() != current_.size()) return false;
  // Memory arrays must agree in kind: a stateful population cannot resume
  // from a memory-less snapshot or vice versa.
  if (states.empty() != states_.empty()) return false;
  if (!states.empty() && states.size() != n_) return false;
  // Padding bits at or above n_ must stay zero: the popcount below and the
  // bitslice kernels both rely on it.
  if ((n_ & 63) != 0 && !plane.empty() &&
      (plane.back() >> (n_ & 63)) != 0) {
    return false;
  }
  current_ = plane;
  states_ = states;
  ones_ = 0;
  for (const std::uint64_t word : current_) {
    ones_ += static_cast<std::uint64_t>(std::popcount(word));
  }
  return true;
}

ShardedAgentEngine::Population ShardedAgentEngine::make_population(
    const Configuration& config) const {
  assert(config.valid());
  assert(options_.topology == nullptr ||
         options_.topology->size() == config.n);
  // Degree-0 agents would have nothing to sample; structured graphs must
  // cover every agent, and without-replacement rows must fit ell draws.
  assert(options_.topology == nullptr || options_.topology->is_complete() ||
         options_.topology->min_degree() > 0);
  assert(options_.sampling != Sampling::kWithoutReplacement ||
         options_.topology == nullptr ||
         options_.topology->supports_distinct(sample_size(config.n)));
  Population population;
  population.uniform_ = Topology::complete(config.n);
  population.n_ = config.n;
  population.sources_ = config.sources;
  population.correct_ = config.correct;
  population.ones_ = config.ones;
  const std::uint64_t words = (config.n + 63) / 64;
  population.current_.assign(words, 0);
  population.next_.assign(words, 0);
  // Layout identical to AgentParallelEngine: sources first, then non-source
  // ones, then non-source zeros — so the ones form one contiguous range.
  if (config.correct == Opinion::kOne) {
    set_bit_range(population.current_, 0, config.ones);
  } else {
    set_bit_range(population.current_, config.sources,
                  config.sources + config.ones);
  }
  if (protocol_ != nullptr) {
    population.states_.resize(config.n);
    for (std::uint64_t i = 0; i < config.n; ++i) {
      population.states_[i] =
          protocol_->initial_view(population.opinion(i)).state;
    }
  }
  return population;
}

void ShardedAgentEngine::process_block(Population& population,
                                       std::uint64_t block, std::uint32_t ell,
                                       Rng& rng,
                                       FloydSampler& sampler) const {
  const telemetry::Probe draw_probe(telemetry::Phase::kSampleDraw);
  const std::uint64_t n = population.n_;
  const std::uint64_t sources = population.sources_;
  const std::uint64_t words = population.current_.size();
  const std::uint64_t* current = population.current_.data();
  std::uint64_t* next = population.next_.data();
  const bool distinct = options_.sampling == Sampling::kWithoutReplacement;
  const Topology& topo = topology_of(population);
  const double* gtable = memoryless_ != nullptr ? population.gtable_.data()
                                                : nullptr;

  const std::uint64_t word_begin = block * kBlockWords;
  const std::uint64_t word_end = std::min(words, word_begin + kBlockWords);
  std::uint64_t block_ones = 0;
  for (std::uint64_t w = word_begin; w < word_end; ++w) {
    const std::uint64_t base = w * 64;
    if (base + 64 <= sources) {
      // A whole word of sources: carried over verbatim.
      next[w] = current[w];
      block_ones += static_cast<std::uint64_t>(std::popcount(current[w]));
      continue;
    }
    const unsigned bits =
        n - base < 64 ? static_cast<unsigned>(n - base) : 64u;
    std::uint64_t out = 0;
    for (unsigned bit = 0; bit < bits; ++bit) {
      const std::uint64_t i = base + bit;
      const std::uint64_t own = (current[w] >> bit) & 1;
      std::uint64_t value;
      if (i < sources) {
        value = own;  // Sources never update.
      } else {
        const std::uint32_t ones_seen =
            distinct ? probe_ones_distinct(current, topo, i, ell, rng,
                                           sampler)
                     : probe_ones(current, topo, i, ell, rng);
        if (gtable != nullptr) {
          value = rng.bernoulli(gtable[own * (ell + 1) + ones_seen]) ? 1 : 0;
        } else {
          StatefulProtocol::AgentView view{
              own != 0 ? Opinion::kOne : Opinion::kZero,
              population.states_[i]};
          view = protocol_->update(view, ones_seen, ell, n, rng);
          population.states_[i] = view.state;
          value = to_int(view.opinion);
        }
      }
      out |= value << bit;
    }
    next[w] = out;
    block_ones += static_cast<std::uint64_t>(std::popcount(out));
  }
  population.block_ones_[block] = block_ones;
}

void ShardedAgentEngine::process_block_faulty(Population& population,
                                              std::uint64_t block,
                                              std::uint32_t ell,
                                              const FaultSession& session,
                                              Rng& rng,
                                              FloydSampler& sampler) const {
  const telemetry::Probe draw_probe(telemetry::Phase::kSampleDraw);
  const EnvironmentModel& model = session.model();
  const double epsilon = model.observation_noise;
  const double eta = model.spontaneous_rate;
  const double delta = model.churn_rate;
  const Opinion wrong = opposite(population.correct_);
  const auto wrong_bit = static_cast<std::uint64_t>(to_int(wrong));

  const std::uint64_t n = population.n_;
  const std::uint64_t sources = population.sources_;
  const std::uint64_t words = population.current_.size();
  const std::uint64_t* current = population.current_.data();
  std::uint64_t* next = population.next_.data();
  const bool distinct = options_.sampling == Sampling::kWithoutReplacement;
  const Topology& topo = topology_of(population);
  const double* gtable =
      memoryless_ != nullptr ? population.gtable_.data() : nullptr;

  const std::uint64_t word_begin = block * kBlockWords;
  const std::uint64_t word_end = std::min(words, word_begin + kBlockWords);
  std::uint64_t block_ones = 0;
  std::uint64_t block_churned = 0;
  for (std::uint64_t w = word_begin; w < word_end; ++w) {
    const std::uint64_t base = w * 64;
    const unsigned bits =
        n - base < 64 ? static_cast<unsigned>(n - base) : 64u;
    std::uint64_t out = 0;
    for (unsigned bit = 0; bit < bits; ++bit) {
      const std::uint64_t i = base + bit;
      const std::uint64_t own = (current[w] >> bit) & 1;
      std::uint64_t value;
      if (i < sources || session.is_zealot(i)) {
        value = own;  // Sources and zealots never update (and draw nothing).
      } else {
        const std::uint32_t ones_seen =
            epsilon > 0.0
                ? (distinct
                       ? probe_ones_distinct_noisy(current, topo, i, ell,
                                                   epsilon, rng, sampler)
                       : probe_ones_noisy(current, topo, i, ell, epsilon, rng))
                : (distinct ? probe_ones_distinct(current, topo, i, ell, rng,
                                                  sampler)
                            : probe_ones(current, topo, i, ell, rng));
        if (gtable != nullptr) {
          // The spontaneous channel is already folded into the table.
          value = rng.bernoulli(gtable[own * (ell + 1) + ones_seen]) ? 1 : 0;
        } else {
          StatefulProtocol::AgentView view{
              own != 0 ? Opinion::kOne : Opinion::kZero,
              population.states_[i]};
          view = protocol_->update(view, ones_seen, ell, n, rng);
          if (eta > 0.0 && rng.bernoulli(eta)) {
            view.opinion = rng.bernoulli(model.spontaneous_bias)
                               ? Opinion::kOne
                               : Opinion::kZero;
          }
          population.states_[i] = view.state;
          value = to_int(view.opinion);
        }
        if (delta > 0.0 && rng.bernoulli(delta)) {
          // Crash + adversarial replacement: the newcomer holds (and, on the
          // stateful path, boots in the initial view for) the wrong opinion.
          value = wrong_bit;
          if (protocol_ != nullptr) {
            population.states_[i] = protocol_->initial_view(wrong).state;
          }
          ++block_churned;
        }
      }
      out |= value << bit;
    }
    next[w] = out;
    block_ones += static_cast<std::uint64_t>(std::popcount(out));
  }
  population.block_ones_[block] = block_ones;
  population.block_churned_[block] = block_churned;
}

void ShardedAgentEngine::build_gtable(Population& population,
                                      std::uint32_t ell) const {
  if (memoryless_ == nullptr) return;
  // Tabulate g_n^[b](k): the entire behavioral freedom of a memory-less
  // protocol, so neither hot loop needs virtual dispatch.
  population.gtable_.resize(2 * (static_cast<std::size_t>(ell) + 1));
  for (std::uint32_t own = 0; own < 2; ++own) {
    const Opinion opinion = own != 0 ? Opinion::kOne : Opinion::kZero;
    for (std::uint32_t k = 0; k <= ell; ++k) {
      population.gtable_[own * (ell + 1) + k] =
          memoryless_->g(opinion, k, ell, population.n_);
    }
  }
}

bool ShardedAgentEngine::prepare_kernel(Population& population,
                                        std::uint32_t ell,
                                        const FaultSession* session,
                                        KernelRound& plan,
                                        const char** reason) const {
  const auto fail = [reason](const char* why) {
    if (reason != nullptr) *reason = why;
    return false;
  };
  if (memoryless_ == nullptr) {
    return fail("stateful protocol: kernel models memory-less g-tables only");
  }
  const std::uint64_t n = population.n_;
  if (n == 0 || n > kernel::kMaxAgents) {
    return fail("population size outside kernel range");
  }
  if (ell == 0 || ell > kernel::kMaxEll) {
    return fail("sample size outside kernel range");
  }
  if (options_.sampling == Sampling::kWithoutReplacement &&
      ell > topology_of(population).min_degree()) {
    return fail("without-replacement sample larger than population");
  }
  const kernel::Backend backend = kernel::resolve(options_.kernel);
  if (backend == kernel::Backend::kLegacy) {
    return fail("legacy loop requested");
  }
  // resolve() only returns backends this build and host can run.
  plan.fn = kernel::block_fn(backend);
  assert(plan.fn != nullptr);
  if (!population.circuit_.classify(population.gtable_.data(), ell)) {
    // Fractional g (e.g. voter at l > 1): legacy loop.
    return fail("fractional g-table: no boolean circuit form");
  }
  plan.backend = backend;
  plan.threshold = lemire32_threshold(n);
  plan.faulty = session != nullptr;
  if (session != nullptr) {
    const EnvironmentModel& model = session->model();
    plan.faults.noise = BinomialTable(64, model.observation_noise);
    plan.faults.spontaneous_select = BinomialTable(64, model.spontaneous_rate);
    plan.faults.spontaneous_value = BinomialTable(64, model.spontaneous_bias);
    plan.faults.churn = BinomialTable(64, model.churn_rate);
    plan.faults.zealot_begin = session->zealot_begin();
    plan.faults.zealot_end = session->zealot_end();
    plan.faults.wrong_word = opposite(population.correct_) == Opinion::kOne
                                 ? ~std::uint64_t{0}
                                 : 0;
  }
  return true;
}

ShardedAgentEngine::KernelDispatch ShardedAgentEngine::step_dispatch(
    Population& population, const FaultSession* session) const {
  const std::uint32_t ell = sample_size(population.n_);
  build_gtable(population, ell);
  KernelRound plan;
  KernelDispatch dispatch;
  dispatch.reason = "eligible";
  if (prepare_kernel(population, ell, session, plan, &dispatch.reason)) {
    dispatch.backend = plan.backend;
  } else {
    dispatch.backend = kernel::Backend::kLegacy;
  }
  return dispatch;
}

kernel::Backend ShardedAgentEngine::step_backend(
    Population& population, const FaultSession* session) const {
  return step_dispatch(population, session).backend;
}

void ShardedAgentEngine::process_block_kernel(
    Population& population, std::uint64_t block, std::uint32_t ell,
    const KernelRound& plan, std::uint64_t lane_seed, FloydSampler& sampler,
    std::uint32_t* index_scratch) const {
  const std::uint64_t words = population.current_.size();
  kernel::BlockArgs args;
  args.current = population.current_.data();
  args.next = population.next_.data();
  args.n = population.n_;
  args.sources = population.sources_;
  args.ell = ell;
  args.index_threshold = plan.threshold;
  args.first_word = block * kBlockWords;
  args.word_count = std::min(words - args.first_word, kBlockWords);
  args.lane_seed = lane_seed;
  const Topology& topology = topology_of(population);
  if (!topology.is_complete()) {
    args.offsets = topology.offsets().data();
    args.adjacency = topology.adjacency().data();
  }
  args.table = &population.circuit_;
  args.faults = plan.faulty ? &plan.faults : nullptr;
  args.without_replacement =
      options_.sampling == Sampling::kWithoutReplacement;
  args.sampler = &sampler;
  args.index_scratch = index_scratch;
  args.out_ones = &population.block_ones_[block];
  args.out_churned =
      plan.faulty ? &population.block_churned_[block] : nullptr;
  plan.fn(args);
}

void ShardedAgentEngine::step(Population& population, std::uint64_t round,
                              const SeedSequence& seeds) const {
  step_round(population, round, seeds, nullptr);
}

void ShardedAgentEngine::step(Population& population, std::uint64_t round,
                              const SeedSequence& seeds,
                              const FaultSession& session) const {
  step_round(population, round, seeds, &session);
}

void ShardedAgentEngine::step_round(Population& population,
                                    std::uint64_t round,
                                    const SeedSequence& seeds,
                                    const FaultSession* session) const {
  const std::uint64_t n = population.n_;
  const std::uint32_t ell = sample_size(n);
  const std::uint64_t words = population.current_.size();
  const std::uint64_t blocks = (words + kBlockWords - 1) / kBlockWords;

  build_gtable(population, ell);
  KernelRound plan;
  const bool use_kernel = prepare_kernel(population, ell, session, plan);
  if (session != nullptr && memoryless_ != nullptr && !use_kernel) {
    // Legacy fallback tabulates the faulty adoption probability: the
    // spontaneous channel folds straight into the table,
    // (1 - eta) g + eta * bias, so the hot loop still costs one lookup +
    // one draw. Observation noise does NOT fold here — it is applied
    // operationally, bit by bit, in the probes. (The kernel realizes the
    // same fold operationally through its select masks, so it keeps the
    // base table.)
    const EnvironmentModel& model = session->model();
    const double eta = model.spontaneous_rate;
    for (std::uint32_t own = 0; own < 2; ++own) {
      for (std::uint32_t k = 0; k <= ell; ++k) {
        double& g = population.gtable_[own * (ell + 1) + k];
        g = (1.0 - eta) * g + eta * model.spontaneous_bias;
      }
    }
  }
  population.block_ones_.resize(blocks);
  if (session != nullptr) population.block_churned_.resize(blocks);

  std::uint64_t chunks =
      options_.shards == 0 ? blocks
                           : std::min<std::uint64_t>(options_.shards, blocks);
  chunks = std::max<std::uint64_t>(chunks, 1);
  population.samplers_.resize(chunks);
  const bool distinct = options_.sampling == Sampling::kWithoutReplacement;
  if (use_kernel && distinct) {
    population.kernel_index_.resize(chunks * static_cast<std::size_t>(ell) *
                                    64);
  }

  struct RoundContext {
    const ShardedAgentEngine* engine;
    Population* population;
    const SeedSequence* seeds;
    const FaultSession* session;  // Null: a fault-free round.
    const KernelRound* kernel;    // Null: the per-agent legacy loop runs.
    std::uint64_t round;
    std::uint64_t blocks;
    std::uint64_t chunks;
    std::uint32_t ell;
  };
  RoundContext context{this,    &population, &seeds,
                       session, use_kernel ? &plan : nullptr,
                       round,   blocks,      chunks,
                       ell};
  // One capture pointer keeps the closure inside std::function's inline
  // storage: steady-state rounds allocate nothing.
  const std::function<void(int)> chunk_fn = [&context](int chunk) {
    const std::uint64_t begin =
        context.blocks * static_cast<std::uint64_t>(chunk) / context.chunks;
    const std::uint64_t end =
        context.blocks * (static_cast<std::uint64_t>(chunk) + 1) /
        context.chunks;
    const bool faulty = context.session != nullptr;
    FloydSampler& sampler =
        context.population->samplers_[static_cast<std::size_t>(chunk)];
    if (context.kernel != nullptr) {
      std::uint32_t* index_scratch =
          context.population->kernel_index_.empty()
              ? nullptr
              : context.population->kernel_index_.data() +
                    static_cast<std::size_t>(chunk) * context.ell * 64;
      const std::uint64_t phase = faulty ? kKernelFaultPhase : kKernelPhase;
      for (std::uint64_t block = begin; block < end; ++block) {
        context.engine->process_block_kernel(
            *context.population, block, context.ell, *context.kernel,
            context.seeds->derive(context.round, block, phase), sampler,
            index_scratch);
      }
      return;
    }
    const std::uint64_t phase = faulty ? kFaultPhase : kStreamPhase;
    for (std::uint64_t block = begin; block < end; ++block) {
      Rng rng(context.seeds->derive(context.round, block, phase));
      if (faulty) {
        context.engine->process_block_faulty(*context.population, block,
                                             context.ell, *context.session,
                                             rng, sampler);
      } else {
        context.engine->process_block(*context.population, block,
                                      context.ell, rng, sampler);
      }
    }
  };
  WorkerPool::shared().run(static_cast<int>(chunks), chunk_fn,
                           options_.threads);

  std::swap(population.current_, population.next_);
  std::uint64_t ones = 0;
  for (const std::uint64_t block_count : population.block_ones_) {
    ones += block_count;
  }
  population.ones_ = ones;
}

RunResult ShardedAgentEngine::run(const Configuration& config,
                                  const StopRule& rule, std::uint64_t seed,
                                  Trajectory* trajectory) const {
  Population population = make_population(config);
  return run_population(population, rule, seed, trajectory);
}

RunResult ShardedAgentEngine::run(const Configuration& config,
                                  const StopRule& rule,
                                  const EnvironmentModel& faults,
                                  std::uint64_t seed,
                                  Trajectory* trajectory) const {
  assert(config.valid());
  FaultSession session(faults, config);
  Population population = make_population(session.plant(config));
  const SeedSequence seeds(seed);
  ShardedFaultyStepper stepper{*this,   population, seeds,
                               session, protocol_,  population.config()};
  return RunDriver(TimePolicy::parallel())
      .run(stepper, rule, session, trajectory);
}

RunResult ShardedAgentEngine::run_population(Population& population,
                                             const StopRule& rule,
                                             std::uint64_t seed,
                                             Trajectory* trajectory) const {
  const SeedSequence seeds(seed);
  ShardedStepper stepper{*this, population, seeds, population.config()};
  return RunDriver(TimePolicy::parallel()).run(stepper, rule, trajectory);
}

}  // namespace bitspread
