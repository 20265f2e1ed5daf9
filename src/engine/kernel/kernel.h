// Word-parallel bitslice step kernel for the sharded agent engine.
//
// The legacy sharded hot loop updates one agent at a time: l uniform draws,
// one g-table lookup, one Bernoulli draw. For a memory-less protocol whose
// g_n^[b](k) table only takes the values {0, 1/2, 1} (minority at every l,
// voter at l = 1, every deterministic threshold rule), the adoption decision
// is a boolean function of the l sampled bits — so 64 agents can be decided
// at once on 64-bit words:
//
//   1. *Sample.* Generate 64 x l indices per word from eight interleaved
//      xoshiro lanes (random/lanes.h), exact-uniform via 32-bit Lemire
//      rejection, and gather the sampled opinion bits into l "lane words"
//      (bit a of lane word j = sample j of agent a). On the complete graph
//      an index is uniform on [0, n) and is the sampled agent; on a
//      structured graph it is uniform on [0, deg(v)) and is sent through
//      agent v's CSR row (BlockArgs::offsets/adjacency) — the same lane
//      order and rejection rule with a bound per slot.
//   2. *Count.* Ripple-add the l lane words into ceil(log2(l+1)) bitsliced
//      count words.
//   3. *Decide.* OR together equality masks for every k with g(own,k) = 1,
//      AND a shared uniform tie word into the k's with g(own,k) = 1/2, and
//      select by the agents' own bits — branch-free, whole words at a time.
//
// Fault channels stay exact by operational decomposition: observation noise
// XORs Bernoulli(eps) mask words onto the lanes, the spontaneous channel
// overrides the circuit output through a Bernoulli(eta) select mask (exactly
// the (1-eta) g + eta bias fold the legacy table applies), churn overrides
// to the wrong opinion through a Bernoulli(delta) mask. A mask word costs
// one Binomial(64, p) count, drawn from a per-round BinomialTable (no
// exp/log per word), plus one next_below per set bit, placed by Floyd's
// algorithm inside the word itself — ~1.6 draws at p = 0.01 instead of 64.
//
// Stream schedule: the kernel defines its own per-(round, block) draw
// order, "kernel/2" (DESIGN.md section 3.6; on graphs, kernel/2 over rows)
// — golden digests differ from the legacy "kernel/1" schedule, but the
// sampled distribution is identical (pinned by cross-validation tests), and
// determinism across thread/shard counts is untouched because streams are
// still keyed by (round, block).
// Backends (portable scalar-word, AVX2, AVX-512F, NEON) implement one stream
// schedule: they produce bit-identical populations and differ only in
// speed. kAuto dispatches on cpuid to the widest one the host runs.
#ifndef BITSPREAD_ENGINE_KERNEL_KERNEL_H_
#define BITSPREAD_ENGINE_KERNEL_KERNEL_H_

#include <cstdint>
#include <vector>

#include "random/binomial.h"

namespace bitspread {

class FloydSampler;

namespace kernel {

// Requested backend. kAuto picks the best available at runtime (cpuid:
// AVX-512F with AVX2, then AVX2, then NEON, then scalar); kLegacy opts out
// of the kernel entirely (the engine keeps its per-agent loop). kAvx512 is
// reached through kAuto or a pin. Environment overrides, applied inside
// resolve():
//   BITSPREAD_KERNEL=auto|legacy|scalar|avx2|neon  — replaces kAuto requests
//   BITSPREAD_FORCE_SCALAR_KERNEL=1                — demotes SIMD to scalar
enum class Backend : std::uint8_t {
  kAuto,
  kLegacy,
  kScalarWord,
  kAvx2,
  kNeon,
  kAvx512
};

// Maps a request to the concrete backend a step will use (never kAuto; may
// be kLegacy). Unavailable SIMD requests fall back to kScalarWord.
Backend resolve(Backend requested) noexcept;

// Pure form of resolve() for tests: same logic, explicit override inputs
// (env_kernel may be nullptr).
Backend resolve_with(Backend requested, const char* env_kernel,
                     bool force_scalar) noexcept;

// Kernel backends usable on this host and build, best first. Never empty:
// always ends with kScalarWord. Honors the environment overrides.
std::vector<Backend> available_backends();

const char* backend_name(Backend backend) noexcept;

// Eligibility limits. Above kMaxEll the {0,1/2,1} masks would outgrow their
// fixed-width storage; at or above 2^32 agents the 32-bit index generator
// loses exactness. Both fall back to the legacy loop, as do fractional
// g-tables and stateful protocols; the graph never does.
inline constexpr std::uint32_t kMaxEll = 128;
inline constexpr std::uint64_t kMaxAgents = (std::uint64_t{1} << 32) - 1;

// The g-table compiled into boolean-circuit form: for each own opinion b,
// the sample counts k with g(b,k) = 1 and those with g(b,k) = 1/2 (every
// other k must be 0, or classification fails and the engine falls back).
struct CircuitTable {
  std::vector<std::uint32_t> ones_ks[2];
  std::vector<std::uint32_t> half_ks[2];
  bool any_half = false;
  bool own_dependent = false;

  // Compiles gtable[own * (ell + 1) + k] (the engine's layout). Returns
  // false — leaving the table unusable — when any entry is not in {0,1/2,1}.
  bool classify(const double* gtable, std::uint32_t ell);
};

// Fault-channel parameters for a faulty step (all zero rates = fault-free).
// Each channel is the Binomial(64, p) coin of its mask words, built once per
// round: observation noise eps, spontaneous select eta and value bias,
// churn delta.
struct FaultChannels {
  BinomialTable noise;
  BinomialTable spontaneous_select;
  BinomialTable spontaneous_value;
  BinomialTable churn;
  std::uint64_t zealot_begin = 0;  // Contiguous frozen range, may be empty.
  std::uint64_t zealot_end = 0;
  std::uint64_t wrong_word = 0;  // All-ones iff the wrong opinion is One.
};

// One block of work: words [first_word, first_word + word_count) of the
// population planes. The caller owns every pointer; `sampler` and
// `index_scratch` (ell * 64 slots) serve distinct mode only and are
// per-worker scratch, so concurrent blocks never share them.
struct BlockArgs {
  const std::uint64_t* current = nullptr;
  std::uint64_t* next = nullptr;
  std::uint64_t n = 0;
  std::uint64_t sources = 0;
  std::uint32_t ell = 0;
  std::uint32_t index_threshold = 0;  // lemire32_threshold(n).
  std::uint64_t first_word = 0;
  std::uint64_t word_count = 0;
  std::uint64_t lane_seed = 0;  // Per-(round, block) kernel/2 master seed.
  // The graph's CSR rows (Topology::offsets() / adjacency()); both nullptr
  // on the complete graph, where every draw is uniform on [0, n).
  const std::uint64_t* offsets = nullptr;
  const std::uint32_t* adjacency = nullptr;
  const CircuitTable* table = nullptr;
  const FaultChannels* faults = nullptr;  // nullptr = fault-free step.
  bool without_replacement = false;
  FloydSampler* sampler = nullptr;
  std::uint32_t* index_scratch = nullptr;
  std::uint64_t* out_ones = nullptr;
  std::uint64_t* out_churned = nullptr;  // May be nullptr (not counted).
};

using BlockFn = void (*)(const BlockArgs&);

// The block processor for a *resolved* backend; nullptr for kLegacy/kAuto
// and for SIMD backends this build cannot run.
BlockFn block_fn(Backend resolved) noexcept;

}  // namespace kernel
}  // namespace bitspread

#endif  // BITSPREAD_ENGINE_KERNEL_KERNEL_H_
