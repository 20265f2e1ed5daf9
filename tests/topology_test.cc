// The Topology subsystem: generator shape laws (ring/torus/d-regular/ER/BA),
// CSR invariants (sorted simple rows), seeded determinism — including
// byte-identical CSRs when several threads build the same graph
// concurrently — identity digests (cached once, carried by copies and
// moves, agreed on by concurrent first callers), the partition-cut report,
// and the sampling seam's edge cases at ell in {degree-1, degree}.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "random/rng.h"
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
