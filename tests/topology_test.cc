// The Topology subsystem: generator shape laws (ring/torus/d-regular/ER/BA),
// CSR invariants (sorted simple rows), seeded determinism — including
// byte-identical CSRs when several threads build the same graph
// concurrently — identity digests (pinned per generator, cached once,
// carried by copies and moves, agreed on by concurrent first callers), the
// lower-row CSR builder against a pair-list reference, the partition-cut
// report, and the sampling seam's edge cases at ell in {degree-1, degree}.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "random/rng.h"
#include "random/seeding.h"
#include "sim/parallel.h"
#include "topology/topology.h"

namespace bitspread {
namespace {

// CSR invariants every structured generator must satisfy: offsets form a
// monotone prefix-sum ending at adjacency.size(), rows are sorted, strictly
// increasing (simple: no repeated edge), and never contain the row's owner
// (no self-loops).
void expect_valid_csr(const Topology& topo) {
  ASSERT_FALSE(topo.is_complete());
  const auto& offsets = topo.offsets();
  const auto& adjacency = topo.adjacency();
  ASSERT_EQ(offsets.size(), topo.size() + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), adjacency.size());
  for (std::uint64_t i = 0; i < topo.size(); ++i) {
    ASSERT_LE(offsets[i], offsets[i + 1]);
    for (std::uint64_t j = offsets[i]; j < offsets[i + 1]; ++j) {
      EXPECT_NE(adjacency[j], i) << "self-loop at agent " << i;
      EXPECT_LT(adjacency[j], topo.size());
      if (j > offsets[i]) {
        EXPECT_LT(adjacency[j - 1], adjacency[j])
            << "row " << i << " not sorted-unique";
      }
    }
  }
}

TEST(Topology, CompleteGraphShape) {
  const Topology topo = Topology::complete(100);
  EXPECT_TRUE(topo.is_complete());
  EXPECT_EQ(topo.kind(), GraphKind::kComplete);
  EXPECT_EQ(topo.size(), 100u);
  EXPECT_EQ(topo.degree(7), 100u);  // Self-inclusive uniform PULL.
  EXPECT_EQ(topo.min_degree(), 100u);
  EXPECT_EQ(topo.max_degree(), 100u);
  EXPECT_EQ(topo.edge_count(), 100u * 99u / 2u);
  EXPECT_TRUE(topo.connected());
  EXPECT_TRUE(topo.offsets().empty());  // No adjacency materialized.
  EXPECT_EQ(topo.identity_digest(), 0u);
}

TEST(Topology, RingShape) {
  const std::uint64_t n = 64;
  const Topology topo = Topology::ring(n);
  expect_valid_csr(topo);
  EXPECT_EQ(topo.kind(), GraphKind::kRing);
  EXPECT_EQ(topo.size(), n);
  EXPECT_EQ(topo.edge_count(), n);
  EXPECT_TRUE(topo.connected());
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(topo.degree(i), 2u);
    const std::uint32_t* row = topo.adjacency().data() + topo.offsets()[i];
    const std::uint32_t prev = static_cast<std::uint32_t>((i + n - 1) % n);
    const std::uint32_t next = static_cast<std::uint32_t>((i + 1) % n);
    EXPECT_EQ(row[0], std::min(prev, next));
    EXPECT_EQ(row[1], std::max(prev, next));
  }
}

TEST(Topology, TorusShape) {
  // 4x4x4 torus: degree 2*dims everywhere, n*dims edges, connected; each
  // neighbor differs from its owner in exactly one mixed-radix digit by +-1
  // (mod side).
  const std::uint32_t side = 4, dims = 3;
  const Topology topo = Topology::torus(side, dims);
  expect_valid_csr(topo);
  EXPECT_EQ(topo.kind(), GraphKind::kTorus);
  EXPECT_EQ(topo.size(), 64u);
  EXPECT_EQ(topo.edge_count(), 64u * dims);
  EXPECT_TRUE(topo.connected());
  for (std::uint64_t i = 0; i < topo.size(); ++i) {
    ASSERT_EQ(topo.degree(i), 2u * dims);
    for (std::uint64_t j = topo.offsets()[i]; j < topo.offsets()[i + 1];
         ++j) {
      std::uint64_t a = i, b = topo.adjacency()[j];
      unsigned digits_differing = 0;
      bool step_ok = true;
      for (std::uint32_t d = 0; d < dims; ++d) {
        const std::uint64_t da = a % side, db = b % side;
        a /= side;
        b /= side;
        if (da == db) continue;
        ++digits_differing;
        step_ok = step_ok && ((da + 1) % side == db || (db + 1) % side == da);
      }
      EXPECT_EQ(digits_differing, 1u);
      EXPECT_TRUE(step_ok);
    }
  }
}

TEST(Topology, TorusWithOneDimensionIsARingUpToRelabeling) {
  const Topology torus = Topology::torus(32, 1);
  const Topology ring = Topology::ring(32);
  EXPECT_EQ(torus.offsets(), ring.offsets());
  EXPECT_EQ(torus.adjacency(), ring.adjacency());
}

TEST(Topology, RandomRegularIsExactlyRegularAndSimple) {
  // Exact d-regularity is the whole point of the repair-swap construction:
  // plain retry-until-simple has success probability ~ exp(-(d^2-1)/4).
  for (const std::uint32_t d : {2u, 4u, 8u}) {
    const Topology topo = Topology::random_regular(256, d, /*seed=*/7);
    expect_valid_csr(topo);
    EXPECT_EQ(topo.kind(), GraphKind::kRandomRegular);
    for (std::uint64_t i = 0; i < topo.size(); ++i) {
      ASSERT_EQ(topo.degree(i), d) << "agent " << i << " at d=" << d;
    }
    EXPECT_EQ(topo.edge_count(), 256u * d / 2u);
    // Connectivity holds a.s. for d >= 3 and is a deterministic fact of
    // this (n, d, seed); d = 2 (a disjoint union of cycles) is exempt.
    if (d >= 3) {
      EXPECT_TRUE(topo.connected()) << "d=" << d;
    }
  }
}

TEST(Topology, ErdosRenyiEdgeCountConcentrates) {
  // m ~ Binomial(C(n,2), p): the observed count must land within 5 sd of
  // the mean (wrong skipping law in the Batagelj-Brandes loop shifts the
  // mean far beyond that).
  const std::uint64_t n = 2000;
  const double p = 0.01;
  const Topology topo = Topology::erdos_renyi(n, p, /*seed=*/11);
  expect_valid_csr(topo);
  EXPECT_EQ(topo.kind(), GraphKind::kErdosRenyi);
  const double pairs = 0.5 * static_cast<double>(n) *
                       static_cast<double>(n - 1);
  const double mean = pairs * p;
  const double sd = std::sqrt(pairs * p * (1.0 - p));
  EXPECT_NEAR(static_cast<double>(topo.edge_count()), mean, 5.0 * sd);
}

TEST(Topology, ErdosRenyiWithProbabilityOneIsComplete) {
  const Topology topo = Topology::erdos_renyi(32, 1.0, /*seed=*/1);
  expect_valid_csr(topo);
  EXPECT_EQ(topo.edge_count(), 32u * 31u / 2u);
  EXPECT_EQ(topo.min_degree(), 31u);
}

TEST(Topology, BarabasiAlbertEdgeCountIsDeterministic) {
  // Seed clique on m+1 nodes plus m distinct attachments per later node:
  // C(m+1, 2) + (n - m - 1) * m edges, always.
  const std::uint64_t n = 500;
  const std::uint32_t m = 3;
  const Topology topo = Topology::barabasi_albert(n, m, /*seed=*/5);
  expect_valid_csr(topo);
  EXPECT_EQ(topo.kind(), GraphKind::kBarabasiAlbert);
  EXPECT_EQ(topo.edge_count(),
            static_cast<std::uint64_t>(m + 1) * m / 2 + (n - m - 1) * m);
  EXPECT_EQ(topo.min_degree(), m);       // Late attachers contribute m each.
  EXPECT_GT(topo.max_degree(), 2u * m);  // Hubs exist at n >> m.
  EXPECT_TRUE(topo.connected());         // Attachment keeps one component.
}

TEST(Topology, GeneratorsAreDeterministicAcrossRepeatsAndThreads) {
  // The contract: a graph reproduces from (generator, params, seed) alone —
  // byte-identical CSR no matter how many times, or on how many threads,
  // it is built. Each thread builds its own copy concurrently; all must
  // equal the reference built serially.
  const auto build = [] {
    return std::vector<Topology>{
        Topology::random_regular(512, 6, 21),
        Topology::erdos_renyi(512, 0.02, 22),
        Topology::barabasi_albert(512, 2, 23),
    };
  };
  const std::vector<Topology> reference = build();
  constexpr int kThreads = 4;
  std::vector<std::vector<Topology>> built(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&built, &build, t] { built[t] = build(); });
    }
    for (auto& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t g = 0; g < reference.size(); ++g) {
      EXPECT_TRUE(built[t][g] == reference[g])
          << "thread " << t << " graph " << g;
      EXPECT_EQ(built[t][g].identity_digest(), reference[g].identity_digest());
    }
  }
  // Different seeds produce different graphs (the streams are really keyed).
  EXPECT_FALSE(Topology::random_regular(512, 6, 21) ==
               Topology::random_regular(512, 6, 99));
}

TEST(Topology, IdentityDigestSeparatesGraphs) {
  const Topology ring = Topology::ring(64);
  const Topology torus = Topology::torus(8, 2);
  const Topology regular = Topology::random_regular(64, 4, 3);
  EXPECT_NE(ring.identity_digest(), 0u);
  EXPECT_NE(ring.identity_digest(), torus.identity_digest());
  EXPECT_NE(ring.identity_digest(), regular.identity_digest());
  EXPECT_NE(torus.identity_digest(), regular.identity_digest());
  EXPECT_EQ(ring.identity_digest(), Topology::ring(64).identity_digest());
  EXPECT_NE(ring.identity_digest(), Topology::ring(65).identity_digest());
}

// The identity digest recomputed from the public CSR: FNV-1a over the
// little-endian bytes of (kind, n, every offset, every adjacency entry),
// with 0 remapped to 1.
std::uint64_t reference_digest(const Topology& topo) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  const auto fold = [&hash](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (v >> (8 * byte)) & 0xFF;
      hash *= 0x100000001B3ull;
    }
  };
  fold(static_cast<std::uint64_t>(topo.kind()));
  fold(topo.size());
  for (const std::uint64_t o : topo.offsets()) fold(o);
  for (const std::uint32_t a : topo.adjacency()) fold(a);
  return hash == 0 ? 1 : hash;
}

std::vector<Topology> one_of_each_family() {
  return {Topology::ring(300),
          Topology::torus(9, 3),
          Topology::random_regular(300, 5, 41),
          Topology::erdos_renyi(300, 0.05, 42),
          Topology::barabasi_albert(300, 3, 43)};
}

TEST(Topology, IdentityDigestIsCachedAndCarriedByCopiesAndMoves) {
  for (const Topology& topo : one_of_each_family()) {
    const std::uint64_t expected = reference_digest(topo);
    const Topology unhashed_copy = topo;  // Copied before the first call.
    EXPECT_EQ(topo.identity_digest(), expected) << topo.describe();
    EXPECT_EQ(topo.identity_digest(), expected) << "second call";
    const Topology hashed_copy = topo;
    EXPECT_EQ(hashed_copy.identity_digest(), expected);
    EXPECT_EQ(unhashed_copy.identity_digest(), expected);
    Topology moved = Topology(topo);
    EXPECT_EQ(moved.identity_digest(), expected);
    Topology assigned = Topology::ring(5);
    EXPECT_NE(assigned.identity_digest(), expected);
    assigned = std::move(moved);
    EXPECT_EQ(assigned.identity_digest(), expected);
  }
  EXPECT_EQ(Topology::complete(300).identity_digest(), 0u);
}

TEST(Topology, ConcurrentFirstDigestCallsAgree) {
  // Every worker makes the first identity_digest() call on the same fresh
  // graphs at once: one computes, the rest wait, all read the same value.
  const std::vector<Topology> graphs = one_of_each_family();
  constexpr int kWorkers = 8;
  std::vector<std::uint64_t> seen(kWorkers * graphs.size(), 0);
  WorkerPool::shared().run(
      kWorkers,
      [&](int worker) {
        for (std::size_t g = 0; g < graphs.size(); ++g) {
          seen[static_cast<std::size_t>(worker) * graphs.size() + g] =
              graphs[g].identity_digest();
        }
      },
      kWorkers);
  for (int worker = 0; worker < kWorkers; ++worker) {
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      EXPECT_EQ(seen[static_cast<std::size_t>(worker) * graphs.size() + g],
                reference_digest(graphs[g]))
          << "worker " << worker << " graph " << g;
    }
  }
}

TEST(Topology, IdentityDigestsArePinnedPerGenerator) {
  // Values taken from the pair-list CSR builder that the lower-row builder
  // replaced: a change to any generator's draws, to its edge set or to the
  // CSR layout moves them.
  EXPECT_EQ(Topology::ring(12345).identity_digest(), 0xe5c7a2d2de3cb6afull);
  EXPECT_EQ(Topology::torus(111, 2).identity_digest(), 0xf2104c8a272a9c46ull);
  EXPECT_EQ(Topology::torus(3, 3).identity_digest(), 0x81226c26d8c22ff4ull);
  EXPECT_EQ(Topology::random_regular(12346, 6, 21).identity_digest(),
            0x53a616fca3e45acaull);
  EXPECT_EQ(Topology::barabasi_albert(12345, 3, 23).identity_digest(),
            0xe99c5d11acfdde0dull);
  EXPECT_EQ(Topology::erdos_renyi(12345, 20.0 / 12345, 22).identity_digest(),
            0xdf2cc8842995f6deull);
  EXPECT_EQ(Topology::erdos_renyi(1u << 16, 16.0 / (1u << 16), 203)
                .identity_digest(),
            0xd48014909ee063a3ull);
  EXPECT_EQ(Topology::erdos_renyi(300, 1.0, 1).identity_digest(),
            0x2b3d465dcd7d29fcull);
}

// --- The CSR builder against a pair-list reference ------------------------
//
// Each generator's edge list as a pair-list builder receives it, drawn from
// the generator's own SeedSequence stream, and the reference CSR built from
// it the plain way: fill both endpoints' rows in list order, then sort each
// row. The library builds from lower rows with no sort; the two must agree
// byte for byte.

using EdgeList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

Rng generator_stream(GraphKind kind, std::uint64_t seed) {
  constexpr std::uint64_t kTopologyPhase = 0x746f706f;  // "topo"
  return SeedSequence(seed).stream(static_cast<std::uint64_t>(kind), 0,
                                   kTopologyPhase);
}

EdgeList ring_edges(std::uint64_t n) {
  EdgeList edges;
  for (std::uint64_t i = 0; i < n; ++i) {
    edges.emplace_back(static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>((i + 1) % n));
  }
  return edges;
}

EdgeList torus_edges(std::uint32_t side, std::uint32_t dims) {
  std::uint64_t n = 1;
  for (std::uint32_t d = 0; d < dims; ++d) n *= side;
  EdgeList edges;
  std::uint64_t stride = 1;
  for (std::uint32_t d = 0; d < dims; ++d) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t coord = (i / stride) % side;
      const std::uint64_t up =
          coord + 1 == side ? i - coord * stride : i + stride;
      edges.emplace_back(static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(up));
    }
    stride *= side;
  }
  return edges;
}

EdgeList random_regular_edges(std::uint64_t n, std::uint32_t degree,
                              std::uint64_t seed) {
  Rng rng = generator_stream(GraphKind::kRandomRegular, seed);
  const std::uint64_t stub_count = n * degree;
  std::vector<std::uint32_t> stubs(stub_count);
  EdgeList pairs(stub_count / 2);
  while (true) {
    for (std::uint64_t k = 0; k < stub_count; ++k) {
      stubs[k] = static_cast<std::uint32_t>(k / degree);
    }
    for (std::uint64_t k = stub_count - 1; k > 0; --k) {
      std::swap(stubs[k], stubs[rng.next_below(k + 1)]);
    }
    for (std::uint64_t e = 0; e < pairs.size(); ++e) {
      pairs[e] = {stubs[2 * e], stubs[2 * e + 1]};
    }
    for (int pass = 0; pass < 200; ++pass) {
      std::unordered_set<std::uint64_t> seen;
      std::vector<std::uint64_t> bad;
      for (std::uint64_t e = 0; e < pairs.size(); ++e) {
        const auto [u, v] = pairs[e];
        const std::uint64_t key =
            (static_cast<std::uint64_t>(std::min(u, v)) << 32) |
            std::max(u, v);
        if (u == v || !seen.insert(key).second) bad.push_back(e);
      }
      if (bad.empty()) return pairs;
      for (const std::uint64_t e : bad) {
        const std::uint64_t other = rng.next_below(pairs.size());
        std::swap(pairs[e].second, pairs[other].second);
      }
    }
  }
}

EdgeList erdos_renyi_edges(std::uint64_t n, double p, std::uint64_t seed) {
  Rng rng = generator_stream(GraphKind::kErdosRenyi, seed);
  EdgeList edges;
  if (p >= 1.0) {
    for (std::uint64_t v = 1; v < n; ++v) {
      for (std::uint64_t w = 0; w < v; ++w) {
        edges.emplace_back(static_cast<std::uint32_t>(v),
                           static_cast<std::uint32_t>(w));
      }
    }
    return edges;
  }
  edges.reserve(static_cast<std::size_t>(1.1 * p * static_cast<double>(n) *
                                         static_cast<double>(n - 1) / 2));
  const double log_q = std::log1p(-p);
  std::int64_t v = 1;
  std::int64_t w = -1;
  while (v < static_cast<std::int64_t>(n)) {
    const double r = rng.next_double();
    w += 1 + static_cast<std::int64_t>(std::floor(std::log1p(-r) / log_q));
    while (w >= v && v < static_cast<std::int64_t>(n)) {
      w -= v;
      ++v;
    }
    if (v < static_cast<std::int64_t>(n)) {
      edges.emplace_back(static_cast<std::uint32_t>(v),
                         static_cast<std::uint32_t>(w));
    }
  }
  return edges;
}

EdgeList barabasi_albert_edges(std::uint64_t n, std::uint32_t m,
                               std::uint64_t seed) {
  Rng rng = generator_stream(GraphKind::kBarabasiAlbert, seed);
  EdgeList edges;
  std::vector<std::uint32_t> targets;
  for (std::uint32_t u = 0; u <= m; ++u) {
    for (std::uint32_t v = 0; v < u; ++v) {
      edges.emplace_back(u, v);
      targets.push_back(u);
      targets.push_back(v);
    }
  }
  std::vector<std::uint32_t> chosen;
  for (std::uint64_t v = m + 1; v < n; ++v) {
    chosen.clear();
    while (chosen.size() < m) {
      const std::uint32_t t = targets[rng.next_below(targets.size())];
      if (std::find(chosen.begin(), chosen.end(), t) == chosen.end()) {
        chosen.push_back(t);
      }
    }
    for (const std::uint32_t t : chosen) {
      edges.emplace_back(static_cast<std::uint32_t>(v), t);
      targets.push_back(static_cast<std::uint32_t>(v));
      targets.push_back(t);
    }
  }
  return edges;
}

struct Csr {
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint32_t> adjacency;
};

Csr reference_csr(std::uint64_t n, const EdgeList& edges) {
  Csr csr;
  csr.offsets.assign(n + 1, 0);
  for (const auto& [u, v] : edges) {
    ++csr.offsets[u + 1];
    ++csr.offsets[v + 1];
  }
  for (std::uint64_t i = 0; i < n; ++i) csr.offsets[i + 1] += csr.offsets[i];
  csr.adjacency.resize(csr.offsets[n]);
  std::vector<std::uint64_t> cursor(csr.offsets.begin(),
                                    csr.offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    csr.adjacency[cursor[u]++] = v;
    csr.adjacency[cursor[v]++] = u;
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto row = csr.adjacency.begin();
    std::sort(row + static_cast<std::ptrdiff_t>(csr.offsets[i]),
              row + static_cast<std::ptrdiff_t>(csr.offsets[i + 1]));
  }
  return csr;
}

// EXPECT_TRUE on ==, not EXPECT_EQ: a mismatch must not print 10^7 ids.
void expect_matches_reference(const Topology& topo, const EdgeList& edges) {
  const Csr reference = reference_csr(topo.size(), edges);
  EXPECT_TRUE(topo.offsets() == reference.offsets) << topo.describe();
  EXPECT_TRUE(topo.adjacency() == reference.adjacency) << topo.describe();
}

TEST(Topology, ErdosRenyiMatchesThePairListReference) {
  // Isolated vertices (p = 1e-4), a near-complete walk (p = 0.999) and the
  // p = 1 branch, from n = 2 up. At n = 4097 the near-complete cases have
  // 8.4M edges, walked twice and built twice, so the grid runs on five
  // threads: one per seed for p < 1, and one for p = 1, which draws nothing
  // from the stream and so builds the same graph for every seed. Each
  // reference is built before the graph and its edge list freed first, so a
  // thread holds two large arrays at a time.
  struct Job {
    std::uint64_t seed;
    std::vector<double> probabilities;
  };
  const std::vector<Job> jobs = {{1, {1e-4, 0.01, 0.2, 0.999}},
                                 {2, {1e-4, 0.01, 0.2, 0.999}},
                                 {3, {1e-4, 0.01, 0.2, 0.999}},
                                 {4, {1e-4, 0.01, 0.2, 0.999}},
                                 {1, {1.0}}};
  std::vector<std::vector<std::string>> mismatches(jobs.size());
  std::vector<std::thread> threads;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    threads.emplace_back([&job = jobs[j], &out = mismatches[j]] {
      for (const std::uint64_t n : {2u, 3u, 17u, 1000u, 4097u}) {
        for (const double p : job.probabilities) {
          const Csr reference =
              reference_csr(n, erdos_renyi_edges(n, p, job.seed));
          const Topology topo = Topology::erdos_renyi(n, p, job.seed);
          if (topo.offsets() != reference.offsets ||
              topo.adjacency() != reference.adjacency) {
            out.push_back(topo.describe());
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& job_mismatches : mismatches) {
    EXPECT_EQ(job_mismatches, std::vector<std::string>{});
  }
}

TEST(Topology, StructuredAndSeededGeneratorsMatchThePairListReference) {
  for (const std::uint64_t n : {3u, 4u, 1000u}) {
    expect_matches_reference(Topology::ring(n), ring_edges(n));
  }
  for (const auto& [side, dims] : {std::pair{3u, 1u}, std::pair{3u, 3u}}) {
    expect_matches_reference(Topology::torus(side, dims),
                             torus_edges(side, dims));
  }
  for (const auto& [n, d, seed] :
       {std::tuple{300u, 5u, 41u}, std::tuple{4096u, 8u, 7u}}) {
    expect_matches_reference(Topology::random_regular(n, d, seed),
                             random_regular_edges(n, d, seed));
  }
  for (const auto& [n, m, seed] :
       {std::tuple{300u, 3u, 43u}, std::tuple{4096u, 4u, 9u}}) {
    expect_matches_reference(Topology::barabasi_albert(n, m, seed),
                             barabasi_albert_edges(n, m, seed));
  }
}

TEST(Topology, DescribeNamesKindAndParameters) {
  EXPECT_EQ(Topology::complete(8).describe(), "complete(n=8)");
  EXPECT_EQ(Topology::ring(64).describe(), "ring(n=64)");
  const std::string regular =
      Topology::random_regular(64, 4, 3).describe();
  EXPECT_NE(regular.find("random_regular"), std::string::npos);
  EXPECT_NE(regular.find("d=4"), std::string::npos);
  EXPECT_NE(regular.find("seed=3"), std::string::npos);
}

TEST(Topology, PartitionCutOnRing) {
  // A ring split into contiguous blocks cuts exactly one edge per block
  // boundary: `blocks` cut edges, everything else internal.
  const std::uint64_t n = 4 * 4096;
  const Topology topo = Topology::ring(n);
  const Topology::PartitionCut cut = topo.partition_cut(4096);
  EXPECT_EQ(cut.blocks, 4u);
  EXPECT_EQ(cut.cut_edges, 4u);
  EXPECT_EQ(cut.internal_edges, n - 4u);
  EXPECT_NEAR(cut.cut_fraction, 4.0 / static_cast<double>(n), 1e-12);
  // One block = no boundaries to cut.
  const Topology::PartitionCut whole = topo.partition_cut(n);
  EXPECT_EQ(whole.blocks, 1u);
  EXPECT_EQ(whole.cut_edges, 0u);
}

// --- Sampling-seam edge cases at ell in {degree-1, degree} ---------------

TEST(Topology, DistinctSamplingAtFullDegreeVisitsTheWholeRow) {
  // ell == degree without replacement: the sample IS the row (and the
  // Floyd k == n fast path draws nothing). Ring rows have degree 2.
  const Topology topo = Topology::ring(16);
  ASSERT_TRUE(topo.supports_distinct(2));
  EXPECT_FALSE(topo.supports_distinct(3));
  FloydSampler sampler;
  Rng rng(31);
  Rng untouched(31);
  for (std::uint64_t agent = 0; agent < topo.size(); ++agent) {
    std::set<std::uint64_t> visited;
    topo.sample_neighbors_distinct(
        agent, 2, rng, sampler,
        [&](std::uint64_t i) { visited.insert(i); });
    const std::set<std::uint64_t> row = {(agent + 15) % 16, (agent + 1) % 16};
    EXPECT_EQ(visited, row) << "agent " << agent;
  }
  EXPECT_EQ(rng(), untouched()) << "full-row samples must not draw";
}

TEST(Topology, DistinctSamplingAtDegreeMinusOneStaysInRow) {
  // ell == degree - 1 exercises Floyd's general loop on a CSR row: every
  // visited index is a neighbor, all distinct, and over many trials each
  // neighbor is excluded sometimes (the subset really varies).
  const std::uint32_t d = 4;
  const Topology topo = Topology::random_regular(64, d, 17);
  FloydSampler sampler;
  Rng rng(33);
  const std::uint64_t agent = 5;
  const std::uint32_t* row = topo.adjacency().data() + topo.offsets()[agent];
  const std::set<std::uint64_t> neighbors(row, row + d);
  std::set<std::uint64_t> ever_excluded;
  for (int trial = 0; trial < 200; ++trial) {
    std::set<std::uint64_t> visited;
    topo.sample_neighbors_distinct(
        agent, d - 1, rng, sampler,
        [&](std::uint64_t i) { visited.insert(i); });
    ASSERT_EQ(visited.size(), d - 1u);
    for (const std::uint64_t i : visited) EXPECT_TRUE(neighbors.count(i));
    for (const std::uint64_t i : neighbors) {
      if (!visited.count(i)) ever_excluded.insert(i);
    }
  }
  EXPECT_EQ(ever_excluded.size(), d) << "every neighbor must sit out sometime";
}

TEST(Topology, WithReplacementSamplingStaysInRow) {
  // ell probes with replacement from a degree-d row: all hits are
  // neighbors, and at ell = degree (and even above) repeats are allowed —
  // the law is ell independent uniforms over the row.
  const std::uint32_t d = 4;
  const Topology topo = Topology::random_regular(64, d, 17);
  Rng rng(35);
  const std::uint64_t agent = 9;
  const std::uint32_t* row = topo.adjacency().data() + topo.offsets()[agent];
  const std::set<std::uint64_t> neighbors(row, row + d);
  bool saw_repeat = false;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint64_t> visited;
    topo.sample_neighbors(agent, d, rng,
                          [&](std::uint64_t i) { visited.push_back(i); });
    ASSERT_EQ(visited.size(), d);
    for (const std::uint64_t i : visited) EXPECT_TRUE(neighbors.count(i));
    std::sort(visited.begin(), visited.end());
    saw_repeat = saw_repeat ||
                 std::adjacent_find(visited.begin(), visited.end()) !=
                     visited.end();
  }
  EXPECT_TRUE(saw_repeat) << "with-replacement must allow repeats";
}

TEST(Topology, CompleteSeamMatchesLegacyDrawSequence) {
  // The bit-identity contract, stated at the seam itself: the complete
  // branch consumes randomness exactly like the pre-topology engines (one
  // next_below(n) per probe; one Floyd sample(n, ell) without replacement).
  const std::uint64_t n = 97;
  const Topology topo = Topology::complete(n);
  {
    Rng seam_rng(41), legacy_rng(41);
    std::vector<std::uint64_t> seam, legacy;
    topo.sample_neighbors(13, 5, seam_rng,
                          [&](std::uint64_t i) { seam.push_back(i); });
    for (int s = 0; s < 5; ++s) legacy.push_back(legacy_rng.next_below(n));
    EXPECT_EQ(seam, legacy);
    EXPECT_EQ(seam_rng(), legacy_rng());
  }
  {
    FloydSampler seam_sampler, legacy_sampler;
    Rng seam_rng(43), legacy_rng(43);
    std::vector<std::uint64_t> seam, legacy;
    topo.sample_neighbors_distinct(
        13, 5, seam_rng, seam_sampler,
        [&](std::uint64_t i) { seam.push_back(i); });
    legacy_sampler.sample(n, 5, legacy_rng,
                          [&](std::uint64_t i) { legacy.push_back(i); });
    EXPECT_EQ(seam, legacy);
    EXPECT_EQ(seam_rng(), legacy_rng());
  }
}

}  // namespace
}  // namespace bitspread
