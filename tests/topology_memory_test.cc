// Set-up memory of the graph generators: each builds its CSR in place
// (DESIGN.md §3.10), so its heap peak stays near the graph it returns. This
// executable replaces the global operator new and delete to count live heap
// bytes, which is why it is its own test binary. Bounds, with CSR the final
// offsets and adjacency bytes and n the agent count:
//   ER (p < 1 and p = 1), ring, torus  <= 1.1 CSR + 4 n
//   Barabási–Albert                    <= that + its target list (8 B/edge)
//   random d-regular                   <= that + its pair list (8 B/edge)
// The 4 B per agent is the lower rows' count array, alive during the build.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "topology/topology.h"

namespace {

std::atomic<std::uint64_t> g_live{0};
std::atomic<std::uint64_t> g_peak{0};

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  const std::uint64_t live =
      g_live.fetch_add(malloc_usable_size(p), std::memory_order_relaxed) +
      malloc_usable_size(p);
  std::uint64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live,
                                       std::memory_order_relaxed)) {
  }
  return p;
}

void uncounted(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

void* aligned(std::size_t size, std::align_val_t align) {
  void* p = nullptr;
  const std::size_t a = std::max(static_cast<std::size_t>(align),
                                 sizeof(void*));
  if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0) p = nullptr;
  return counted(p);
}

}  // namespace

void* operator new(std::size_t size) {
  return counted(std::malloc(size == 0 ? 1 : size));
}
void* operator new[](std::size_t size) {
  return counted(std::malloc(size == 0 ? 1 : size));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return aligned(size, align);
}
void operator delete(void* p) noexcept { uncounted(p); }
void operator delete[](void* p) noexcept { uncounted(p); }
void operator delete(void* p, std::size_t) noexcept { uncounted(p); }
void operator delete[](void* p, std::size_t) noexcept { uncounted(p); }
void operator delete(void* p, std::align_val_t) noexcept { uncounted(p); }
void operator delete[](void* p, std::align_val_t) noexcept { uncounted(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  uncounted(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  uncounted(p);
}

namespace bitspread {
namespace {

struct Footprint {
  double peak_bytes = 0.0;  // Heap high-water above the call's start.
  double csr_bytes = 0.0;   // The returned graph's offsets + adjacency.
  std::uint64_t n = 0;
  std::uint64_t edges = 0;
};

template <typename Build>
Footprint measure(Build&& build) {
  const std::uint64_t before = g_live.load();
  g_peak.store(before);
  const Topology topo = build();
  Footprint f;
  f.peak_bytes = static_cast<double>(g_peak.load() - before);
  f.csr_bytes = static_cast<double>(topo.offsets().size() * 8 +
                                    topo.adjacency().size() * 4);
  f.n = topo.size();
  f.edges = topo.edge_count();
  return f;
}

// 1.1 CSR + 4 B per agent, plus `extra_per_edge` bytes per edge.
void expect_within(const Footprint& f, double extra_per_edge,
                   const std::string& what) {
  const double bound = 1.1 * f.csr_bytes + 4.0 * static_cast<double>(f.n) +
                       extra_per_edge * static_cast<double>(f.edges);
  EXPECT_LE(f.peak_bytes, bound)
      << what << ": peak " << f.peak_bytes << " B, CSR " << f.csr_bytes
      << " B (" << f.peak_bytes / f.csr_bytes << "x)";
}

constexpr std::uint64_t kN = std::uint64_t{1} << 16;

TEST(TopologyMemory, ErdosRenyiPeaksNearItsCsr) {
  expect_within(measure([] {
                  return Topology::erdos_renyi(kN, 16.0 / kN, 203);
                }),
                0.0, "erdos_renyi(p = 16/n)");
  // p = 1 takes the complete branch; n is small enough for n^2/2 edges.
  expect_within(measure([] { return Topology::erdos_renyi(1024, 1.0, 1); }),
                0.0, "erdos_renyi(p = 1)");
}

TEST(TopologyMemory, RingAndTorusPeakNearTheirCsr) {
  expect_within(measure([] { return Topology::ring(kN); }), 0.0, "ring");
  expect_within(measure([] { return Topology::torus(256, 2); }), 0.0,
                "torus(256, 2)");
}

TEST(TopologyMemory, BarabasiAlbertPeaksNearItsCsrPlusTargets) {
  expect_within(measure([] { return Topology::barabasi_albert(kN, 8, 9); }),
                8.0, "barabasi_albert(m = 8)");
}

TEST(TopologyMemory, RandomRegularPeaksNearItsCsrPlusPairs) {
  expect_within(measure([] { return Topology::random_regular(kN, 8, 102); }),
                8.0, "random_regular(d = 8)");
}

}  // namespace
}  // namespace bitspread
