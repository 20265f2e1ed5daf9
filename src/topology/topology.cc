#include "topology/topology.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "random/seeding.h"

namespace bitspread {
namespace {

// Stream-phase tag separating graph generation from every other consumer of
// a SeedSequence-derived stream ("topo").
constexpr std::uint64_t kTopologyPhase = 0x746f706f;

Rng generator_stream(GraphKind kind, std::uint64_t seed) {
  return SeedSequence(seed).stream(static_cast<std::uint64_t>(kind), 0,
                                   kTopologyPhase);
}

// Frees a vector's buffer now (clear() keeps the capacity).
template <typename T>
void release(std::vector<T>& v) noexcept {
  std::vector<T>().swap(v);
}

// One repair pass's bad pairs for random_regular, in ascending order: every
// self-loop, and every pair whose edge an earlier pair (not a self-loop)
// already holds. Pair e is (stubs[2e], stubs[2e + 1]). The pairs are
// bucketed under their smaller endpoint by a counting sort, so each bucket
// lists its larger endpoints in pair order; a per-node stamp marks each
// repeat within a bucket, replacing it by the bucket's own id (never a
// larger endpoint). A second walk in pair order reads each bucket back in
// the same order and so finds, per pair, whether it was a repeat. The
// scratch vectors keep their buffers from pass to pass.
class RepairScan {
 public:
  RepairScan(std::uint64_t n, std::uint64_t pairs)
      : next_(n + 1), larger_(pairs), stamp_(n) {}

  void find_bad(const std::vector<std::uint32_t>& stubs,
                std::vector<std::uint64_t>& bad) {
    const std::uint64_t pairs = stubs.size() / 2;
    const std::uint64_t n = stamp_.size();
    // next_[u + 1] counts bucket u, so the prefix sum leaves bucket u's
    // start in next_[u]; filling advances it to bucket u's end.
    std::fill(next_.begin(), next_.end(), 0);
    for (std::uint64_t e = 0; e < pairs; ++e) {
      const std::uint32_t u = stubs[2 * e];
      const std::uint32_t v = stubs[2 * e + 1];
      if (u != v) ++next_[std::min(u, v) + 1];
    }
    for (std::uint64_t u = 1; u <= n; ++u) next_[u] += next_[u - 1];
    for (std::uint64_t e = 0; e < pairs; ++e) {
      const std::uint32_t u = stubs[2 * e];
      const std::uint32_t v = stubs[2 * e + 1];
      if (u != v) larger_[next_[std::min(u, v)]++] = std::max(u, v);
    }
    // Buckets are u-ascending: bucket u spans [next_[u - 1], next_[u]).
    // No smaller endpoint reaches n - 1, so ~0 is no bucket's stamp.
    std::fill(stamp_.begin(), stamp_.end(), ~std::uint32_t{0});
    std::uint64_t begin = 0;
    for (std::uint64_t u = 0; u < n; ++u) {
      const std::uint32_t id = static_cast<std::uint32_t>(u);
      for (std::uint64_t k = begin; k < next_[u]; ++k) {
        if (stamp_[larger_[k]] == id) {
          larger_[k] = id;
        } else {
          stamp_[larger_[k]] = id;
        }
      }
      begin = next_[u];
    }
    // Rewind every bucket's cursor to its start: next_[u] <- next_[u - 1].
    for (std::uint64_t u = n; u > 0; --u) next_[u] = next_[u - 1];
    next_[0] = 0;
    bad.clear();
    for (std::uint64_t e = 0; e < pairs; ++e) {
      const std::uint32_t u = stubs[2 * e];
      const std::uint32_t v = stubs[2 * e + 1];
      const std::uint32_t lo = std::min(u, v);
      if (u == v || larger_[next_[lo]++] == lo) bad.push_back(e);
    }
  }

 private:
  std::vector<std::uint64_t> next_;
  std::vector<std::uint32_t> larger_;
  std::vector<std::uint32_t> stamp_;
};

}  // namespace

const char* to_string(GraphKind kind) noexcept {
  switch (kind) {
    case GraphKind::kComplete:
      return "complete";
    case GraphKind::kRing:
      return "ring";
    case GraphKind::kTorus:
      return "torus";
    case GraphKind::kRandomRegular:
      return "random_regular";
    case GraphKind::kErdosRenyi:
      return "erdos_renyi";
    case GraphKind::kBarabasiAlbert:
      return "barabasi_albert";
  }
  return "unknown";
}

void Topology::finalize_degrees() noexcept {
  min_degree_ = ~std::uint64_t{0};
  max_degree_ = 0;
  for (std::uint64_t i = 0; i < n_; ++i) {
    const std::uint64_t deg = offsets_[i + 1] - offsets_[i];
    min_degree_ = std::min(min_degree_, deg);
    max_degree_ = std::max(max_degree_, deg);
  }
  if (n_ == 0) min_degree_ = 0;
}

Topology Topology::from_lower_rows(GraphKind kind, std::uint64_t n,
                                   LowerRows&& rows) {
  assert(n <= kMaxStructuredAgents && rows.count.size() == n);
  Topology topo;
  topo.kind_ = kind;
  topo.n_ = n;
  const std::uint32_t* count = rows.count.data();
  const std::uint64_t edges = rows.neighbors.size();
  // Degrees, two slots up: deg(v) accumulates in offsets_[v + 2], so the
  // prefix sum leaves row v's start in offsets_[v + 1]. deg(n - 1) is never
  // needed, and an upper neighbour w < v <= n - 1 always has a slot.
  std::vector<std::uint64_t>& offsets = topo.offsets_;
  offsets.assign(n + 1, 0);
  {
    const std::uint32_t* lower = rows.neighbors.data();
    std::uint64_t k = 0;
    for (std::uint64_t v = 0; v < n; ++v) {
      const std::uint64_t end = k + count[v];
      assert(end <= edges);
      for (; k < end; ++k) {
        assert(lower[k] < v);
        assert(k + count[v] == end || lower[k - 1] < lower[k]);
        ++offsets[lower[k] + 2];
      }
      if (v + 2 <= n) offsets[v + 2] += count[v];
    }
    assert(k == edges);
  }
  for (std::uint64_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];

  // The lower list moves to the back half of the adjacency it ends in
  // (growing in place: generators reserve 2E entries). Then one
  // v-ascending pass appends v to the row of each lower neighbour, reading
  // row v's run from the back half, and moves the run to the start of row
  // v. Row v's upper neighbours arrive in increasing order after its lower
  // run, so each row comes out sorted with no sort (sorted rows make the
  // CSR a canonical byte form: one edge set, one digest). offsets_[v + 1]
  // is row v's insertion cursor and ends as its final offset.
  //
  // In place because row v starts at 2 lo(v) + B(v) <= E + lo(v), where
  // lo(v) is row v's position in the lower list and B(v) counts the edges
  // with one endpoint below v: the appends land in rows below v, so below
  // the entry being read, and the run's move ends by E + lo(v + 1), where
  // the next row's run begins. The scattered writes are prefetched a fixed
  // distance ahead, their targets read from list entries not yet reached,
  // which nothing has overwritten.
  constexpr std::uint64_t kPrefetchAhead = 32;
  topo.adjacency_ = std::move(rows.neighbors);
  topo.adjacency_.resize(2 * edges);
  std::uint32_t* adjacency = topo.adjacency_.data();
  const std::uint32_t* lower = adjacency + edges;
  std::copy(adjacency, adjacency + edges, adjacency + edges);
  std::uint64_t* cursor = offsets.data() + 1;
  std::uint64_t k = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t begin = k;
    const std::uint64_t end = k + count[v];
    for (; k < end; ++k) {
      const std::uint64_t ahead = std::min(k + kPrefetchAhead, edges - 1);
      __builtin_prefetch(adjacency + cursor[lower[ahead]], 1);
      adjacency[cursor[lower[k]]++] = static_cast<std::uint32_t>(v);
    }
    if (count[v] != 0) {
      std::memmove(adjacency + cursor[v], lower + begin,
                   count[v] * sizeof(std::uint32_t));
      cursor[v] += count[v];
    }
  }
  topo.finalize_degrees();
  return topo;
}

Topology Topology::from_edges(GraphKind kind, std::uint64_t n,
                              std::vector<std::uint32_t> endpoints) {
  // Bucket each edge under its larger endpoint, filling every bucket from
  // its back, then sort the (short) buckets into lower rows.
  const std::uint64_t edges = endpoints.size() / 2;
  LowerRows rows;
  rows.count.assign(n, 0);
  for (std::uint64_t e = 0; e < edges; ++e) {
    assert(endpoints[2 * e] < n && endpoints[2 * e + 1] < n);
    ++rows.count[std::max(endpoints[2 * e], endpoints[2 * e + 1])];
  }
  std::vector<std::uint64_t> start(n);
  std::uint64_t total = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    total += rows.count[v];
    start[v] = total;
  }
  rows.neighbors.reserve(2 * edges);
  rows.neighbors.resize(edges);
  for (std::uint64_t e = 0; e < edges; ++e) {
    const std::uint32_t u = endpoints[2 * e];
    const std::uint32_t v = endpoints[2 * e + 1];
    rows.neighbors[--start[std::max(u, v)]] = std::min(u, v);
  }
  release(endpoints);
  for (std::uint64_t v = 0; v < n; ++v) {
    const auto row = rows.neighbors.begin() +
                     static_cast<std::ptrdiff_t>(start[v]);
    std::sort(row, row + rows.count[v]);
  }
  release(start);
  return from_lower_rows(kind, n, std::move(rows));
}

Topology Topology::complete(std::uint64_t n) {
  Topology topo;
  topo.kind_ = GraphKind::kComplete;
  topo.n_ = n;
  return topo;
}

Topology Topology::ring(std::uint64_t n) {
  assert(n >= 3 && n <= kMaxStructuredAgents);
  // Row v's lower neighbour is v - 1; row n - 1 also holds 0, the edge
  // that closes the cycle.
  LowerRows rows;
  rows.count.assign(n, 1);
  rows.count[0] = 0;
  rows.count[n - 1] = 2;
  rows.neighbors.reserve(2 * n);
  rows.neighbors.resize(n);
  for (std::uint64_t v = 1; v + 1 < n; ++v) {
    rows.neighbors[v - 1] = static_cast<std::uint32_t>(v - 1);
  }
  rows.neighbors[n - 2] = 0;
  rows.neighbors[n - 1] = static_cast<std::uint32_t>(n - 2);
  return from_lower_rows(GraphKind::kRing, n, std::move(rows));
}

Topology Topology::torus(std::uint32_t side, std::uint32_t dims) {
  assert(side >= 3 && dims >= 1);
  std::uint64_t n = 1;
  for (std::uint32_t d = 0; d < dims; ++d) {
    assert(n <= kMaxStructuredAgents / side);
    n *= side;
  }
  // Mixed-radix coordinates: axis d has stride side^d, and node i links to
  // its +1 and -1 neighbours along every axis (2 dims distinct nodes, since
  // side >= 3). Row i keeps those below i, sorted, so each of the n dims
  // edges lands in exactly one row.
  LowerRows rows;
  rows.count.assign(n, 0);
  rows.neighbors.reserve(2 * n * dims);
  rows.neighbors.resize(n * dims);
  auto out = rows.neighbors.begin();
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto row = out;
    std::uint64_t stride = 1;
    for (std::uint32_t d = 0; d < dims; ++d) {
      const std::uint64_t coord = (i / stride) % side;
      const std::uint64_t up =
          coord + 1 == side ? i - coord * stride : i + stride;
      const std::uint64_t down =
          coord == 0 ? i + (side - 1) * stride : i - stride;
      if (up < i) *out++ = static_cast<std::uint32_t>(up);
      if (down < i) *out++ = static_cast<std::uint32_t>(down);
      stride *= side;
    }
    std::sort(row, out);
    rows.count[i] = static_cast<std::uint32_t>(out - row);
  }
  assert(out == rows.neighbors.end());
  Topology topo = from_lower_rows(GraphKind::kTorus, n, std::move(rows));
  topo.param_ = side;
  topo.param2_ = dims;
  return topo;
}

Topology Topology::random_regular(std::uint64_t n, std::uint32_t degree,
                                  std::uint64_t seed) {
  assert(degree >= 1 && degree < n && (n * degree) % 2 == 0);
  assert(n <= kMaxStructuredAgents);
  Rng rng = generator_stream(GraphKind::kRandomRegular, seed);

  // Configuration model: n*d stubs, shuffled, paired consecutively (pair e
  // is stubs[2e], stubs[2e + 1], so the stub array is the pair list). The
  // pairing is then repaired in place: every bad pair (self-loop or
  // duplicate edge) swaps its second endpoint with a uniformly chosen
  // pair, which preserves the stub multiset and drives the bad count to
  // zero quickly in practice. If a pass budget is ever exhausted (adversarial
  // luck), the whole pairing is reshuffled from the same stream — still
  // deterministic in (n, d, seed).
  const std::uint64_t stub_count = n * degree;
  const std::uint64_t pairs = stub_count / 2;
  std::vector<std::uint32_t> stubs(stub_count);
  {
    RepairScan scan(n, pairs);
    std::vector<std::uint64_t> bad;
    bool simple = false;
    while (!simple) {
      for (std::uint64_t k = 0; k < stub_count; ++k) {
        stubs[k] = static_cast<std::uint32_t>(k / degree);
      }
      // Fisher–Yates with the seeded stream.
      for (std::uint64_t k = stub_count - 1; k > 0; --k) {
        std::swap(stubs[k], stubs[rng.next_below(k + 1)]);
      }
      for (int pass = 0; pass < 200 && !simple; ++pass) {
        scan.find_bad(stubs, bad);
        simple = bad.empty();
        for (const std::uint64_t e : bad) {
          const std::uint64_t other = rng.next_below(pairs);
          std::swap(stubs[2 * e + 1], stubs[2 * other + 1]);
        }
      }
    }
  }
  Topology topo =
      from_edges(GraphKind::kRandomRegular, n, std::move(stubs));
  topo.seed_ = seed;
  topo.param_ = degree;
  return topo;
}

Topology Topology::erdos_renyi(std::uint64_t n, double p,
                               std::uint64_t seed) {
  assert(n >= 2 && n <= kMaxStructuredAgents);
  assert(p > 0.0 && p <= 1.0);
  Rng rng = generator_stream(GraphKind::kErdosRenyi, seed);
  // Both branches emit each edge once as (v, w) with w < v, v non-decreasing
  // and w ascending within v: row v's lower neighbours, in order, which is
  // the builder's input as it stands. The list reserves two entries per
  // edge, the adjacency it becomes.
  LowerRows rows;
  rows.count.assign(n, 0);
  const double pairs = 0.5 * static_cast<double>(n) *
                       static_cast<double>(n - 1);
  if (p >= 1.0) {
    rows.neighbors.reserve(2 * static_cast<std::size_t>(pairs));
    for (std::uint64_t v = 1; v < n; ++v) {
      rows.count[v] = static_cast<std::uint32_t>(v);
      for (std::uint64_t w = 0; w < v; ++w) {
        rows.neighbors.push_back(static_cast<std::uint32_t>(w));
      }
    }
  } else {
    // Room for the mean edge count plus eight standard deviations, so the
    // list almost never regrows; the capacity beyond the adjacency's 2E
    // entries is never touched.
    const double mean = pairs * p;
    rows.neighbors.reserve(2 * static_cast<std::size_t>(std::min(
        pairs, mean + 8.0 * std::sqrt(mean * (1.0 - p)) + 16.0)));
    // Batagelj–Brandes: walk the C(n,2) pair space in geometric jumps of
    // law Geom(p), touching only realized edges.
    const double log_q = std::log1p(-p);
    std::int64_t v = 1;
    std::int64_t w = -1;
    while (v < static_cast<std::int64_t>(n)) {
      const double r = rng.next_double();
      w += 1 + static_cast<std::int64_t>(
                   std::floor(std::log1p(-r) / log_q));
      while (w >= v && v < static_cast<std::int64_t>(n)) {
        w -= v;
        ++v;
      }
      if (v < static_cast<std::int64_t>(n)) {
        ++rows.count[static_cast<std::uint64_t>(v)];
        rows.neighbors.push_back(static_cast<std::uint32_t>(w));
      }
    }
  }
  Topology topo = from_lower_rows(GraphKind::kErdosRenyi, n, std::move(rows));
  topo.seed_ = seed;
  topo.prob_ = p;
  return topo;
}

Topology Topology::barabasi_albert(std::uint64_t n, std::uint32_t m,
                                   std::uint64_t seed) {
  assert(m >= 1 && n > static_cast<std::uint64_t>(m) + 1);
  assert(n <= kMaxStructuredAgents);
  Rng rng = generator_stream(GraphKind::kBarabasiAlbert, seed);
  // Every node's edges to earlier nodes are drawn together, so the
  // generator emits lower rows directly: the seed clique's rows in order,
  // then each new node's sorted targets.
  const std::uint64_t edges =
      static_cast<std::uint64_t>(m + 1) * m / 2 + (n - m - 1) * m;
  LowerRows rows;
  rows.count.assign(n, m);
  rows.neighbors.reserve(2 * edges);
  // Degree-proportional sampling via the repeated-endpoint list: every edge
  // contributes both endpoints, so a uniform draw from `targets` IS a
  // degree-weighted draw.
  std::vector<std::uint32_t> targets;
  targets.reserve(2 * edges);
  for (std::uint32_t u = 0; u <= m; ++u) {
    rows.count[u] = u;
    for (std::uint32_t v = 0; v < u; ++v) {
      rows.neighbors.push_back(v);
      targets.push_back(u);
      targets.push_back(v);
    }
  }
  std::vector<std::uint32_t> chosen;
  chosen.reserve(m);
  for (std::uint64_t v = m + 1; v < n; ++v) {
    chosen.clear();
    while (chosen.size() < m) {
      const std::uint32_t t = targets[rng.next_below(targets.size())];
      if (std::find(chosen.begin(), chosen.end(), t) == chosen.end()) {
        chosen.push_back(t);
      }
    }
    for (const std::uint32_t t : chosen) {
      targets.push_back(static_cast<std::uint32_t>(v));
      targets.push_back(t);
    }
    std::sort(chosen.begin(), chosen.end());
    rows.neighbors.insert(rows.neighbors.end(), chosen.begin(), chosen.end());
  }
  release(targets);
  Topology topo =
      from_lower_rows(GraphKind::kBarabasiAlbert, n, std::move(rows));
  topo.seed_ = seed;
  topo.param_ = m;
  return topo;
}

std::uint64_t Topology::edge_count() const noexcept {
  if (is_complete()) return n_ == 0 ? 0 : n_ * (n_ - 1) / 2;
  return adjacency_.size() / 2;
}

bool Topology::connected() const {
  if (is_complete()) return true;
  if (n_ == 0) return true;
  // Depth-first from agent 0, one bit per agent. An agent enters the stack
  // once, when first reached, so the stack never outgrows n: allocated
  // uninitialised up front, it never regrows (which would hold two arrays at
  // once), and only the part used is touched.
  std::vector<std::uint64_t> visited((n_ + 63) / 64, 0);
  const auto stack = std::make_unique_for_overwrite<std::uint32_t[]>(n_);
  std::uint64_t top = 0;
  stack[top++] = 0;
  visited[0] = 1;
  std::uint64_t reached = 1;
  while (top != 0) {
    const std::uint32_t u = stack[--top];
    for (std::uint64_t k = offsets_[u]; k < offsets_[u + 1]; ++k) {
      const std::uint32_t v = adjacency_[k];
      const std::uint64_t bit = std::uint64_t{1} << (v % 64);
      if ((visited[v / 64] & bit) == 0) {
        visited[v / 64] |= bit;
        ++reached;
        stack[top++] = v;
      }
    }
  }
  return reached == n_;
}

std::uint64_t Topology::identity_digest() const noexcept {
  if (is_complete()) return 0;
  return digest_.get([this]() noexcept { return hash_csr(); });
}

std::uint64_t Topology::hash_csr() const noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  const auto fold = [&hash](std::uint64_t v) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (v >> (8 * byte)) & 0xFF;
      hash *= 0x100000001B3ull;
    }
  };
  fold(static_cast<std::uint64_t>(kind_));
  fold(n_);
  for (const std::uint64_t o : offsets_) fold(o);
  for (const std::uint32_t a : adjacency_) fold(a);
  // 0 is reserved for "complete / no topology" in the snapshot TOPO
  // section; remap the (astronomically unlikely) collision.
  return hash == 0 ? 1 : hash;
}

std::string Topology::describe() const {
  char buffer[128];
  switch (kind_) {
    case GraphKind::kComplete:
      std::snprintf(buffer, sizeof(buffer), "complete(n=%llu)",
                    static_cast<unsigned long long>(n_));
      break;
    case GraphKind::kRing:
      std::snprintf(buffer, sizeof(buffer), "ring(n=%llu)",
                    static_cast<unsigned long long>(n_));
      break;
    case GraphKind::kTorus:
      std::snprintf(buffer, sizeof(buffer), "torus(side=%llu, dims=%llu)",
                    static_cast<unsigned long long>(param_),
                    static_cast<unsigned long long>(param2_));
      break;
    case GraphKind::kRandomRegular:
      std::snprintf(buffer, sizeof(buffer),
                    "random_regular(n=%llu, d=%llu, seed=%llu)",
                    static_cast<unsigned long long>(n_),
                    static_cast<unsigned long long>(param_),
                    static_cast<unsigned long long>(seed_));
      break;
    case GraphKind::kErdosRenyi:
      std::snprintf(buffer, sizeof(buffer),
                    "erdos_renyi(n=%llu, p=%g, seed=%llu)",
                    static_cast<unsigned long long>(n_), prob_,
                    static_cast<unsigned long long>(seed_));
      break;
    case GraphKind::kBarabasiAlbert:
      std::snprintf(buffer, sizeof(buffer),
                    "barabasi_albert(n=%llu, m=%llu, seed=%llu)",
                    static_cast<unsigned long long>(n_),
                    static_cast<unsigned long long>(param_),
                    static_cast<unsigned long long>(seed_));
      break;
  }
  return buffer;
}

Topology::PartitionCut Topology::partition_cut(
    std::uint64_t block_agents) const {
  assert(block_agents > 0);
  PartitionCut cut;
  if (n_ == 0) return cut;
  cut.blocks = (n_ + block_agents - 1) / block_agents;
  if (is_complete()) {
    // No CSR to walk: count internal pairs per block analytically.
    std::uint64_t internal = 0;
    for (std::uint64_t b = 0; b < cut.blocks; ++b) {
      const std::uint64_t size =
          std::min(block_agents, n_ - b * block_agents);
      internal += size * (size - 1) / 2;
    }
    cut.internal_edges = internal;
    cut.cut_edges = edge_count() - internal;
  } else {
    for (std::uint64_t u = 0; u < n_; ++u) {
      const std::uint64_t block_u = u / block_agents;
      for (std::uint64_t k = offsets_[u]; k < offsets_[u + 1]; ++k) {
        const std::uint32_t v = adjacency_[k];
        if (v <= u) continue;  // Count each undirected edge once.
        if (v / block_agents == block_u) {
          ++cut.internal_edges;
        } else {
          ++cut.cut_edges;
        }
      }
    }
  }
  const std::uint64_t total = cut.cut_edges + cut.internal_edges;
  cut.cut_fraction =
      total == 0 ? 0.0
                 : static_cast<double>(cut.cut_edges) /
                       static_cast<double>(total);
  return cut;
}

}  // namespace bitspread
