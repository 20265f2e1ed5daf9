// The Topology seam: which agents an agent may PULL from.
//
// The paper's model (and every engine before this subsystem) samples ell
// agents uniformly from the whole population — the complete graph with
// self-loops. A Topology generalizes that one decision: each agent owns a
// neighbor set, and the engines draw their ell observations from it through
// the sample seam below instead of hard-coding uniform draws. Two regimes:
//
//   * CompleteGraph (`Topology::complete(n)` or a null handle in the engine
//     options): no adjacency is materialized. The sampling seam reproduces
//     the legacy draw sequence EXACTLY — `rng.next_below(n)` per probe with
//     replacement, one `FloydSampler::sample(n, ell, ...)` without — so a
//     complete-topology run is bit-identical to the pre-topology engines
//     (golden digests unchanged; tested in engine_topology_test.cc).
//   * Structured graphs: an immutable CSR adjacency (sorted uint32 rows,
//     uint64 offsets) built by a deterministic generator. Random generators
//     (d-regular, Erdős–Rényi, Barabási–Albert) draw every edge from a
//     SeedSequence-derived stream, so a graph is reproducible from
//     (generator, params, seed) alone — byte-identical CSR regardless of
//     thread count (tests/topology_test.cc).
//
// Semantics note: the complete topology keeps the paper's self-sample
// (an agent can observe itself — uniform over all n); structured rows
// exclude self. The two agree in the n -> infinity PULL limit and the
// distinction is pinned in NOTATION.md.
//
// Closed-form engines (aggregate, sequential) are exact ONLY under uniform
// PULL — on a graph the one-count X no longer determines the per-agent
// adoption law — so they accept a handle but assert it is complete; the
// per-agent engines (agent, sharded) do the real CSR sampling. The sharded
// engine's bitslice kernel reads the CSR directly: each draw is mapped to
// [0, deg(v)) and sent through v's row (kernel/2 over rows, DESIGN.md
// §3.6). DESIGN.md §3.10 has the full picture.
#ifndef BITSPREAD_TOPOLOGY_TOPOLOGY_H_
#define BITSPREAD_TOPOLOGY_TOPOLOGY_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "random/floyd.h"
#include "random/rng.h"

namespace bitspread {

enum class GraphKind : std::uint8_t {
  kComplete = 0,
  kRing = 1,
  kTorus = 2,
  kRandomRegular = 3,
  kErdosRenyi = 4,
  kBarabasiAlbert = 5,
};

const char* to_string(GraphKind kind) noexcept;

class Topology {
 public:
  // Structured graphs use 32-bit node ids in the CSR.
  static constexpr std::uint64_t kMaxStructuredAgents = std::uint64_t{1} << 32;

  // Default-constructed: the complete graph on 0 agents (harmless
  // placeholder; engines always size a real one).
  Topology() = default;

  // --- Generators --------------------------------------------------------
  // The paper's uniform PULL. O(1) memory for any n.
  static Topology complete(std::uint64_t n);
  // Cycle 0 - 1 - ... - n-1 - 0. Requires n >= 3.
  static Topology ring(std::uint64_t n);
  // k-dimensional torus with `dims` axes of length `side` (n = side^dims,
  // degree 2*dims). Requires side >= 3, dims >= 1, n <= 2^32.
  static Topology torus(std::uint32_t side, std::uint32_t dims);
  // Random d-regular simple graph via the configuration model with
  // deterministic repair swaps (plain retry-until-simple has success
  // probability ~ exp(-(d^2-1)/4) and is hopeless for d >= 4). Requires
  // 1 <= d < n and n*d even.
  static Topology random_regular(std::uint64_t n, std::uint32_t degree,
                                 std::uint64_t seed);
  // G(n, p) via Batagelj–Brandes geometric edge skipping: O(n + m) draws,
  // never O(n^2). Requires 0 < p <= 1. Isolated vertices are possible at
  // small p; engines require min_degree() >= 1.
  static Topology erdos_renyi(std::uint64_t n, double p, std::uint64_t seed);
  // Barabási–Albert preferential attachment: a complete seed graph on m+1
  // nodes, then each new node attaches to m distinct degree-weighted
  // targets. Requires 1 <= m and n > m + 1.
  static Topology barabasi_albert(std::uint64_t n, std::uint32_t m,
                                  std::uint64_t seed);

  // --- Shape -------------------------------------------------------------
  GraphKind kind() const noexcept { return kind_; }
  bool is_complete() const noexcept { return kind_ == GraphKind::kComplete; }
  std::uint64_t size() const noexcept { return n_; }

  // Sampling-population size of one agent: row length for structured
  // graphs, n (self-inclusive uniform PULL) for complete.
  std::uint64_t degree(std::uint64_t agent) const noexcept {
    assert(agent < n_);
    if (is_complete()) return n_;
    return offsets_[agent + 1] - offsets_[agent];
  }
  std::uint64_t min_degree() const noexcept {
    return is_complete() ? n_ : min_degree_;
  }
  std::uint64_t max_degree() const noexcept {
    return is_complete() ? n_ : max_degree_;
  }
  // Undirected edge count (complete: n(n-1)/2, self-loops not counted).
  std::uint64_t edge_count() const noexcept;
  bool connected() const;

  // Raw CSR access for tests and tooling (empty for complete).
  const std::vector<std::uint64_t>& offsets() const noexcept {
    return offsets_;
  }
  const std::vector<std::uint32_t>& adjacency() const noexcept {
    return adjacency_;
  }

  // The largest ell an agent may draw without replacement.
  bool supports_distinct(std::uint32_t ell) const noexcept {
    return ell <= min_degree();
  }

  // --- Identity ----------------------------------------------------------
  // FNV-1a over (kind, n, offsets, adjacency); 0 for every complete graph,
  // so a complete handle and a null handle snapshot identically. This is the
  // value the snapshot TOPO section carries and restore() refuses across
  // (snapshot/state.h). The CSR pass runs once, on the first call (never in
  // a generator), even when several threads make it at once; later calls,
  // copies and moves return the cached value.
  std::uint64_t identity_digest() const noexcept;
  // Human-readable summary, e.g. "ring(n=4096)" or
  // "random_regular(n=4096, d=8, seed=7)".
  std::string describe() const;

  // --- Partitioning ------------------------------------------------------
  // How well contiguous `block_agents`-sized partitions (the sharded
  // engine's block decomposition) respect locality: undirected edges whose
  // endpoints land in different blocks versus edges kept internal.
  struct PartitionCut {
    std::uint64_t blocks = 0;
    std::uint64_t cut_edges = 0;
    std::uint64_t internal_edges = 0;
    // cut_edges / (cut_edges + internal_edges); 0 for an edgeless graph.
    double cut_fraction = 0.0;
  };
  PartitionCut partition_cut(std::uint64_t block_agents) const;

  // --- The sampling seam -------------------------------------------------
  // With replacement: visit(index) exactly ell times, each index uniform on
  // the agent's sampling population. The complete branch is the legacy draw
  // sequence verbatim (one next_below(n) per probe).
  template <typename Generator, typename Visit>
  void sample_neighbors(std::uint64_t agent, std::uint32_t ell,
                        Generator& rng, Visit&& visit) const {
    if (is_complete()) {
      for (std::uint32_t s = 0; s < ell; ++s) visit(rng.next_below(n_));
      return;
    }
    assert(agent < n_);
    const std::uint64_t begin = offsets_[agent];
    const std::uint64_t deg = offsets_[agent + 1] - begin;
    assert(deg > 0);
    const std::uint32_t* row = adjacency_.data() + begin;
    for (std::uint32_t s = 0; s < ell; ++s) visit(row[rng.next_below(deg)]);
  }

  // Without replacement: a uniform ell-subset of the agent's sampling
  // population (Floyd's algorithm over the row). Requires
  // supports_distinct(ell). The complete branch is exactly the legacy
  // FloydSampler::sample(n, ell, ...) call.
  template <typename Generator, typename Visit>
  void sample_neighbors_distinct(std::uint64_t agent, std::uint32_t ell,
                                 Generator& rng, FloydSampler& sampler,
                                 Visit&& visit) const {
    if (is_complete()) {
      sampler.sample(n_, ell, rng, visit);
      return;
    }
    assert(agent < n_);
    const std::uint64_t begin = offsets_[agent];
    const std::uint64_t deg = offsets_[agent + 1] - begin;
    assert(ell <= deg);
    const std::uint32_t* row = adjacency_.data() + begin;
    sampler.sample(deg, ell, rng,
                   [&](std::uint64_t j) { visit(row[j]); });
  }

  friend bool operator==(const Topology& a, const Topology& b) noexcept {
    return a.kind_ == b.kind_ && a.n_ == b.n_ && a.offsets_ == b.offsets_ &&
           a.adjacency_ == b.adjacency_;
  }

 private:
  // The CSR builder's input: each undirected edge once, in the row of its
  // larger endpoint. Row v holds v's neighbours below v, strictly
  // ascending; rows are concatenated in v order and count[v] is row v's
  // length. `neighbors` is the vector the adjacency ends in: a generator
  // reserves room for two entries per edge, appends its rows, and frees its
  // own arrays before the build, so no second copy of the edges is held.
  struct LowerRows {
    std::vector<std::uint32_t> count;
    std::vector<std::uint32_t> neighbors;
  };
  // The one CSR builder. It counts degrees, then expands the lower rows in
  // place: the list moves to the back half of the 2E-entry adjacency, and
  // one v-ascending pass appends v to the row of each lower neighbour and
  // moves row v's lower run to the start of row v. Row v starts at
  // 2 lo(v) + B(v) <= E + lo(v), where lo(v) counts the edges below v and
  // B(v) those with one endpoint below v, so every write lands below the
  // list entries still to be read. Each row comes out sorted (its lower
  // run, then its upper neighbours) with no sort and no second buffer.
  // Asserts that every lower row is strictly ascending and below its row
  // index, which rejects self-loops, duplicate edges and out-of-order rows.
  // Precomputes degree bounds.
  static Topology from_lower_rows(GraphKind kind, std::uint64_t n,
                                  LowerRows&& rows);
  // Adapter for generators that emit edges in no particular order: edge e
  // is (endpoints[2e], endpoints[2e + 1]). Buckets each edge under its
  // larger endpoint, frees the list, sorts each bucket into a lower row
  // and hands the rows to from_lower_rows (and so to its checks).
  static Topology from_edges(GraphKind kind, std::uint64_t n,
                             std::vector<std::uint32_t> endpoints);
  void finalize_degrees() noexcept;
  std::uint64_t hash_csr() const noexcept;

  // identity_digest()'s cache: the first caller computes the value under
  // the lock while concurrent callers wait on it; a copy carries the value
  // when it is ready and otherwise computes its own.
  class DigestCache {
   public:
    DigestCache() = default;
    DigestCache(const DigestCache& other) noexcept { copy_from(other); }
    DigestCache& operator=(const DigestCache& other) noexcept {
      if (this != &other) copy_from(other);
      return *this;
    }
    template <typename Compute>
    std::uint64_t get(Compute&& compute) const noexcept {
      if (ready_.load(std::memory_order_acquire)) return value_;
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!ready_.load(std::memory_order_relaxed)) {
        value_ = compute();
        ready_.store(true, std::memory_order_release);
      }
      return value_;
    }

   private:
    void copy_from(const DigestCache& other) noexcept {
      const bool ready = other.ready_.load(std::memory_order_acquire);
      value_ = ready ? other.value_ : 0;
      ready_.store(ready, std::memory_order_release);
    }
    mutable std::mutex mutex_;
    mutable std::atomic<bool> ready_{false};
    mutable std::uint64_t value_ = 0;
  };

  GraphKind kind_ = GraphKind::kComplete;
  std::uint64_t n_ = 0;
  // CSR adjacency (structured graphs only): row of agent i is
  // adjacency_[offsets_[i] .. offsets_[i+1]), sorted ascending.
  std::vector<std::uint64_t> offsets_;
  std::vector<std::uint32_t> adjacency_;
  std::uint64_t min_degree_ = 0;
  std::uint64_t max_degree_ = 0;
  DigestCache digest_;
  // Descriptive parameters (describe() only; identity lives in the CSR).
  std::uint64_t seed_ = 0;
  std::uint64_t param_ = 0;   // degree / side / m
  std::uint64_t param2_ = 0;  // dims
  double prob_ = 0.0;         // ER p
};

}  // namespace bitspread

#endif  // BITSPREAD_TOPOLOGY_TOPOLOGY_H_
