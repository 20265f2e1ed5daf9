// x86 backends: AVX2 and AVX-512F fillers for the kernel/2 index rows.
//
// AVX2: eight xoshiro lanes advanced as two 4x64 vector groups, the Lemire
// index map and plane gather vectorized 8 indices at a time, and the 8
// gathered bits packed straight off movemask. This translation unit is
// compiled with -mavx2 (see src/CMakeLists.txt); resolve() never dispatches
// here unless cpuid reports AVX2.
//
// AVX-512F: one zmm per xoshiro state word holds all eight lanes, so each
// 16-slot row is one vector step, one even/odd vpmuludq pair, one 16-wide
// vpgatherdd, and a vptestmd that leaves the row's 16 sampled bits in a
// mask register. Its filler sits in this file between push_options /
// target("avx512f") / pop_options; resolve() dispatches to it only when
// cpuid reports AVX-512F and AVX2. (A separate avx512.cc measured one 64 KiB page
// more on bench/e2e complete_kernel's peak_rss_mb; DESIGN.md section 3.6.)
//
// On a graph (CsrRows) each word first reads its 64 degrees and row starts
// off its 65 offsets (CsrWord, shared by both fillers); each vector of
// slots then multiplies by the per-slot degrees (vpmuludq), gathers the
// sampled neighbors from the CSR rows (vpgatherdd) and their bits from the
// plane. A word whose rows span 2^31 entries or more (past the gather's
// signed 32-bit index) takes the canonical scalar map instead.
//
// Templates that the scalar backend also runs (the wide-row fallback and
// the without-replacement index stage) are declared extern here and
// instantiated in scalar.cc, so no -mavx2 copy of them exists for the
// linker to pick for the scalar path (DESIGN.md section 3.6).
//
// Bit-identity with the scalar backend (enforced by tests): the vector
// index path reproduces indices_from_row exactly. Lane state lives in
// registers across the block; on the rare Lemire rejection the registers
// are spilled to the canonical LaneRng storage, the vector's slots resolve
// through the canonical map_slot in ascending slot order (redraw_slots,
// slot s from lane s >> 1), and the registers reload — so redraws come from
// the same single-lane stream positions as the scalar schedule.
#include "engine/kernel/backend_impl.h"

#if defined(BITSPREAD_KERNEL_HAVE_AVX2)

#include <immintrin.h>

namespace bitspread {
namespace kernel {

// Instantiated in scalar.cc (see the file comment).
namespace detail {
extern template void fill_lanes_canonical<CsrRows, draw_row>(
    const BlockArgs&, const CsrRows&, LaneRng&, std::uint64_t*) noexcept;
extern template void fill_distinct_indices<CompleteRows>(const BlockArgs&,
                                                         const CompleteRows&,
                                                         LaneRng&,
                                                         std::uint64_t);
extern template void fill_distinct_indices<CsrRows>(const BlockArgs&,
                                                    const CsrRows&, LaneRng&,
                                                    std::uint64_t);
}  // namespace detail

namespace {

// One CSR word's per-slot degrees and row starts, the starts relative to
// the word's first row entry; padding slots of a tail word get degree 1 at
// relative start 0 (as in CsrRows).
struct CsrWord {
  // False, with nothing else set, when the word's rows span 2^31 entries
  // or more: the caller then takes the canonical map.
  bool load(const BlockArgs& a, std::uint64_t word) noexcept {
    const std::uint64_t base = word * 64;
    const std::uint64_t* offsets = a.offsets + base;
    const unsigned valid =
        a.n - base < 64 ? static_cast<unsigned>(a.n - base) : 64u;
    const std::uint64_t first = offsets[0];
    if (offsets[valid] - first >= (std::uint64_t{1} << 31)) return false;
    for (unsigned s = 0; s < 64; ++s) {
      degree[s] =
          s < valid ? static_cast<std::uint32_t>(offsets[s + 1] - offsets[s])
                    : 1;
      start[s] = s < valid ? static_cast<std::uint32_t>(offsets[s] - first)
                           : 0;
    }
    adjacency = reinterpret_cast<const int*>(a.adjacency + first);
    return true;
  }

  alignas(64) std::uint32_t degree[64];
  alignas(64) std::uint32_t start[64];
  const int* adjacency;
};

// The cold rejection path shared by both fillers, run on spilled lanes:
// slots [first, first + count) of a row, given their draw halves and
// bounds, resolve through map_slot in ascending slot order — slot s
// redraws from lane s >> 1. Unrejected slots map to their vector result
// without drawing.
__attribute__((noinline)) void redraw_slots(
    LaneRng& lanes, unsigned first, unsigned count,
    const std::uint32_t* halves, const std::uint32_t* bounds,
    std::uint32_t* out) noexcept {
  for (unsigned s = 0; s < count; ++s) {
    out[s] = map_slot(lanes, (first + s) >> 1, halves[s], bounds[s]);
  }
}

struct Avx2Filler {
  explicit Avx2Filler(LaneRng& lanes) noexcept : lanes_(lanes) { load(); }

  void fill_lanes(const BlockArgs& a, std::uint64_t word,
                  std::uint64_t* L) noexcept {
    if (a.offsets == nullptr) {
      fill_lanes_complete(a, L);
    } else {
      fill_lanes_csr(a, word, L);
    }
  }

  void gather_pack(const BlockArgs& a, std::uint64_t* L) noexcept {
    const int* plane32 = reinterpret_cast<const int*>(a.current);
    for (std::uint32_t j = 0; j < a.ell; ++j) {
      const std::uint32_t* idx_base =
          a.index_scratch + static_cast<std::size_t>(j) * 64;
      std::uint64_t word = 0;
      for (unsigned g = 0; g < 8; ++g) {
        const __m256i idx = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(idx_base + 8 * g));
        word |= static_cast<std::uint64_t>(gather_bits(plane32, idx))
                << (8 * g);
      }
      L[j] = word;
    }
  }

 private:
  // Unsigned 32-bit compare via sign-bias: x < y iff
  // (x ^ 2^31) <s (y ^ 2^31).
  static __m256i less_u32(__m256i x, __m256i y) noexcept {
    const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
    return _mm256_cmpgt_epi32(_mm256_xor_si256(y, bias),
                              _mm256_xor_si256(x, bias));
  }

  // The plane bits of 8 agents, packed into the low 8 bits.
  static std::uint32_t gather_bits(const int* plane32,
                                   __m256i agents) noexcept {
    const __m256i gathered = _mm256_i32gather_epi32(
        plane32, _mm256_srli_epi32(agents, 5), 4);
    const __m256i bit_in_sign = _mm256_slli_epi32(
        _mm256_srlv_epi32(gathered,
                          _mm256_and_si256(agents, _mm256_set1_epi32(31))),
        31);
    return static_cast<std::uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(bit_in_sign)));
  }

  void fill_lanes_complete(const BlockArgs& a, std::uint64_t* L) noexcept {
    const auto n32 = static_cast<std::uint32_t>(a.n);
    const std::uint32_t thresh = a.index_threshold;
    const __m256i vn = _mm256_set1_epi64x(n32);
    const __m256i lowmask = _mm256_set1_epi64x(0xffffffffLL);
    const __m256i vthresh = _mm256_set1_epi32(static_cast<int>(thresh));
    const int* plane32 = reinterpret_cast<const int*>(a.current);

    for (std::uint32_t j = 0; j < a.ell; ++j) {
      std::uint64_t lane_word = 0;
      for (unsigned quartet = 0; quartet < 4; ++quartet) {
        // One canonical row: a draw from every lane, lanes 0..3 then 4..7.
        const __m256i row_a = step_a();
        const __m256i row_b = step_b();
        std::uint32_t bits16 = 0;
        const __m256i halves[2] = {row_a, row_b};
        for (unsigned h = 0; h < 2; ++h) {
          const __m256i v = halves[h];
          // Lemire products of the even (low-half) and odd (high-half)
          // dwords, then interleave the index/low words back to slot order.
          const __m256i prod_even = _mm256_mul_epu32(v, vn);
          const __m256i prod_odd =
              _mm256_mul_epu32(_mm256_srli_epi64(v, 32), vn);
          __m256i idx = _mm256_blend_epi32(
              _mm256_srli_epi64(prod_even, 32),
              _mm256_slli_epi64(_mm256_srli_epi64(prod_odd, 32), 32), 0xAA);
          if (thresh != 0) {
            const __m256i low = _mm256_blend_epi32(
                _mm256_and_si256(prod_even, lowmask),
                _mm256_slli_epi64(_mm256_and_si256(prod_odd, lowmask), 32),
                0xAA);
            const __m256i rejected = less_u32(low, vthresh);
            if (!_mm256_testz_si256(rejected, rejected)) {
              idx = redraw_rejected(v, _mm256_set1_epi32(
                                           static_cast<int>(n32)), h);
            }
          }
          bits16 |= gather_bits(plane32, idx) << (8 * h);
        }
        lane_word |= static_cast<std::uint64_t>(bits16) << (16 * quartet);
      }
      L[j] = lane_word;
    }
  }

  void fill_lanes_csr(const BlockArgs& a, std::uint64_t word,
                      std::uint64_t* L) noexcept {
    CsrWord csr;
    if (!csr.load(a, word)) {
      store();
      detail::fill_lanes_canonical(a, detail::CsrRows(a, word), lanes_, L);
      load();
      return;
    }
    const int* plane32 = reinterpret_cast<const int*>(a.current);

    for (std::uint32_t j = 0; j < a.ell; ++j) {
      std::uint64_t lane_word = 0;
      for (unsigned quartet = 0; quartet < 4; ++quartet) {
        const __m256i row_a = step_a();
        const __m256i row_b = step_b();
        std::uint32_t bits16 = 0;
        const __m256i halves[2] = {row_a, row_b};
        for (unsigned h = 0; h < 2; ++h) {
          const unsigned slot = 16 * quartet + 8 * h;
          const __m256i v = halves[h];
          const __m256i deg = _mm256_load_si256(
              reinterpret_cast<const __m256i*>(csr.degree + slot));
          const __m256i prod_even = _mm256_mul_epu32(v, deg);
          const __m256i prod_odd = _mm256_mul_epu32(
              _mm256_srli_epi64(v, 32), _mm256_srli_epi64(deg, 32));
          __m256i idx = _mm256_blend_epi32(_mm256_srli_epi64(prod_even, 32),
                                           prod_odd, 0xAA);
          const __m256i low = _mm256_blend_epi32(
              prod_even, _mm256_slli_epi64(prod_odd, 32), 0xAA);
          // Only a low half below the degree can be rejected.
          const __m256i suspect = less_u32(low, deg);
          if (!_mm256_testz_si256(suspect, suspect)) [[unlikely]] {
            idx = redraw_rejected(v, deg, h);
          }
          const __m256i row_start = _mm256_load_si256(
              reinterpret_cast<const __m256i*>(csr.start + slot));
          const __m256i neighbors = _mm256_i32gather_epi32(
              csr.adjacency, _mm256_add_epi32(row_start, idx), 4);
          bits16 |= gather_bits(plane32, neighbors) << (8 * h);
        }
        lane_word |= static_cast<std::uint64_t>(bits16) << (16 * quartet);
      }
      L[j] = lane_word;
    }
  }

  // Cold path: spill the register lanes, resolve the 8 slots of half `h`
  // (draw halves `v`, bounds `bound`) through redraw_slots, and reload.
  __attribute__((noinline)) __m256i redraw_rejected(__m256i v, __m256i bound,
                                                    unsigned h) noexcept {
    store();
    alignas(32) std::uint32_t halves[8];
    alignas(32) std::uint32_t bounds[8];
    alignas(32) std::uint32_t idxs[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(halves), v);
    _mm256_store_si256(reinterpret_cast<__m256i*>(bounds), bound);
    redraw_slots(lanes_, 8 * h, 8, halves, bounds, idxs);
    load();
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(idxs));
  }

  static __m256i rotl(__m256i x, int k) noexcept {
    return _mm256_or_si256(_mm256_slli_epi64(x, k),
                           _mm256_srli_epi64(x, 64 - k));
  }
  static __m256i mul5(__m256i x) noexcept {
    return _mm256_add_epi64(x, _mm256_slli_epi64(x, 2));
  }
  static __m256i mul9(__m256i x) noexcept {
    return _mm256_add_epi64(x, _mm256_slli_epi64(x, 3));
  }

  __m256i step_a() noexcept {
    const __m256i result = mul9(rotl(mul5(s1a_), 7));
    const __m256i t = _mm256_slli_epi64(s1a_, 17);
    s2a_ = _mm256_xor_si256(s2a_, s0a_);
    s3a_ = _mm256_xor_si256(s3a_, s1a_);
    s1a_ = _mm256_xor_si256(s1a_, s2a_);
    s0a_ = _mm256_xor_si256(s0a_, s3a_);
    s2a_ = _mm256_xor_si256(s2a_, t);
    s3a_ = rotl(s3a_, 45);
    return result;
  }
  __m256i step_b() noexcept {
    const __m256i result = mul9(rotl(mul5(s1b_), 7));
    const __m256i t = _mm256_slli_epi64(s1b_, 17);
    s2b_ = _mm256_xor_si256(s2b_, s0b_);
    s3b_ = _mm256_xor_si256(s3b_, s1b_);
    s1b_ = _mm256_xor_si256(s1b_, s2b_);
    s0b_ = _mm256_xor_si256(s0b_, s3b_);
    s2b_ = _mm256_xor_si256(s2b_, t);
    s3b_ = rotl(s3b_, 45);
    return result;
  }

  void load() noexcept {
    auto& s = lanes_.state();
    s0a_ = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&s[0][0]));
    s0b_ = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&s[0][4]));
    s1a_ = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&s[1][0]));
    s1b_ = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&s[1][4]));
    s2a_ = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&s[2][0]));
    s2b_ = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&s[2][4]));
    s3a_ = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&s[3][0]));
    s3b_ = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&s[3][4]));
  }
  void store() noexcept {
    auto& s = lanes_.state();
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&s[0][0]), s0a_);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&s[0][4]), s0b_);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&s[1][0]), s1a_);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&s[1][4]), s1b_);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&s[2][0]), s2a_);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&s[2][4]), s2b_);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&s[3][0]), s3a_);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&s[3][4]), s3b_);
  }

  LaneRng& lanes_;
  __m256i s0a_, s1a_, s2a_, s3a_;  // Lanes 0..3, state words 0..3.
  __m256i s0b_, s1b_, s2b_, s3b_;  // Lanes 4..7.
};

#if defined(BITSPREAD_KERNEL_HAVE_AVX512)
#pragma GCC push_options
#pragma GCC target("avx512f")
// GCC 12 reports the _mm512_undefined_* pass-through operands inside
// avx512fintrin.h as maybe-uninitialized; the intrinsics never read them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

struct Avx512Filler {
  explicit Avx512Filler(LaneRng& lanes) noexcept : lanes_(lanes) { load(); }

  void fill_lanes(const BlockArgs& a, std::uint64_t word,
                  std::uint64_t* L) noexcept {
    if (a.offsets == nullptr) {
      fill_lanes_complete(a, L);
    } else {
      fill_lanes_csr(a, word, L);
    }
  }

  void gather_pack(const BlockArgs& a, std::uint64_t* L) noexcept {
    const int* plane32 = reinterpret_cast<const int*>(a.current);
    for (std::uint32_t j = 0; j < a.ell; ++j) {
      const std::uint32_t* idx_base =
          a.index_scratch + static_cast<std::size_t>(j) * 64;
      std::uint64_t word = 0;
      for (unsigned g = 0; g < 4; ++g) {
        const __m512i idx = _mm512_loadu_si512(idx_base + 16 * g);
        word |= static_cast<std::uint64_t>(gather_bits(plane32, idx))
                << (16 * g);
      }
      L[j] = word;
    }
  }

 private:
  // Bit s of the result is the plane bit of agent s: 16 slots, one gather.
  static __mmask16 gather_bits(const int* plane32, __m512i agents) noexcept {
    const __m512i gathered =
        _mm512_i32gather_epi32(_mm512_srli_epi32(agents, 5), plane32, 4);
    const __m512i shifted = _mm512_srlv_epi32(
        gathered, _mm512_and_si512(agents, _mm512_set1_epi32(31)));
    return _mm512_test_epi32_mask(shifted, _mm512_set1_epi32(1));
  }

  // Lemire multiply-shift of a row's 16 dwords by their 16 bounds: the
  // even (low-half) and odd (high-half) products, blended back to slot
  // order. Returns the indices and sets `low` to the products' low halves.
  static __m512i lemire(__m512i v, __m512i bound, __m512i& low) noexcept {
    const __m512i prod_even = _mm512_mul_epu32(v, bound);
    const __m512i prod_odd = _mm512_mul_epu32(_mm512_srli_epi64(v, 32),
                                              _mm512_srli_epi64(bound, 32));
    low = _mm512_mask_blend_epi32(0xAAAA, prod_even,
                                  _mm512_slli_epi64(prod_odd, 32));
    return _mm512_mask_blend_epi32(0xAAAA, _mm512_srli_epi64(prod_even, 32),
                                   prod_odd);
  }

  void fill_lanes_complete(const BlockArgs& a, std::uint64_t* L) noexcept {
    const std::uint32_t thresh = a.index_threshold;
    const __m512i vn = _mm512_set1_epi32(static_cast<int>(a.n));
    const __m512i vthresh = _mm512_set1_epi32(static_cast<int>(thresh));
    const int* plane32 = reinterpret_cast<const int*>(a.current);

    for (std::uint32_t j = 0; j < a.ell; ++j) {
      std::uint64_t lane_word = 0;
      for (unsigned quartet = 0; quartet < 4; ++quartet) {
        // One canonical row: a draw from every lane, dword order = slots.
        const __m512i v = step();
        __m512i low;
        __m512i idx = lemire(v, vn, low);
        if (thresh != 0 && _mm512_cmplt_epu32_mask(low, vthresh) != 0)
            [[unlikely]] {
          idx = redraw_rejected(v, vn);
        }
        lane_word |= static_cast<std::uint64_t>(gather_bits(plane32, idx))
                     << (16 * quartet);
      }
      L[j] = lane_word;
    }
  }

  void fill_lanes_csr(const BlockArgs& a, std::uint64_t word,
                      std::uint64_t* L) noexcept {
    CsrWord csr;
    if (!csr.load(a, word)) {
      store();
      detail::fill_lanes_canonical(a, detail::CsrRows(a, word), lanes_, L);
      load();
      return;
    }
    const int* plane32 = reinterpret_cast<const int*>(a.current);

    for (std::uint32_t j = 0; j < a.ell; ++j) {
      std::uint64_t lane_word = 0;
      for (unsigned quartet = 0; quartet < 4; ++quartet) {
        const unsigned slot = 16 * quartet;
        const __m512i v = step();
        const __m512i deg = _mm512_load_si512(csr.degree + slot);
        __m512i low;
        __m512i idx = lemire(v, deg, low);
        // Only a low half below the degree can be rejected.
        if (_mm512_cmplt_epu32_mask(low, deg) != 0) [[unlikely]] {
          idx = redraw_rejected(v, deg);
        }
        const __m512i row_start = _mm512_load_si512(csr.start + slot);
        const __m512i neighbors = _mm512_i32gather_epi32(
            _mm512_add_epi32(row_start, idx), csr.adjacency, 4);
        lane_word |=
            static_cast<std::uint64_t>(gather_bits(plane32, neighbors))
            << (16 * quartet);
      }
      L[j] = lane_word;
    }
  }

  // Cold path: spill the register lanes, resolve all 16 slots (draw halves
  // `v`, bounds `bound`) through redraw_slots, and reload. Inlined: only
  // lanes_ and the arrays reach the out-of-line call, so the filler never
  // escapes the block loop and its state vectors stay in registers.
  __m512i redraw_rejected(__m512i v, __m512i bound) noexcept {
    store();
    alignas(64) std::uint32_t halves[16];
    alignas(64) std::uint32_t bounds[16];
    alignas(64) std::uint32_t idxs[16];
    _mm512_store_si512(halves, v);
    _mm512_store_si512(bounds, bound);
    redraw_slots(lanes_, 0, 16, halves, bounds, idxs);
    load();
    return _mm512_load_si512(idxs);
  }

  static __m512i mul5(__m512i x) noexcept {
    return _mm512_add_epi64(x, _mm512_slli_epi64(x, 2));
  }
  static __m512i mul9(__m512i x) noexcept {
    return _mm512_add_epi64(x, _mm512_slli_epi64(x, 3));
  }

  __m512i step() noexcept {
    const __m512i result = mul9(_mm512_rol_epi64(mul5(s1_), 7));
    const __m512i t = _mm512_slli_epi64(s1_, 17);
    s2_ = _mm512_xor_si512(s2_, s0_);
    s3_ = _mm512_xor_si512(s3_, s1_);
    s1_ = _mm512_xor_si512(s1_, s2_);
    s0_ = _mm512_xor_si512(s0_, s3_);
    s2_ = _mm512_xor_si512(s2_, t);
    s3_ = _mm512_rol_epi64(s3_, 45);
    return result;
  }

  // LaneRng::state()[k] is the 64 aligned bytes of state word k.
  void load() noexcept {
    auto& s = lanes_.state();
    s0_ = _mm512_load_si512(s[0]);
    s1_ = _mm512_load_si512(s[1]);
    s2_ = _mm512_load_si512(s[2]);
    s3_ = _mm512_load_si512(s[3]);
  }
  void store() noexcept {
    auto& s = lanes_.state();
    _mm512_store_si512(s[0], s0_);
    _mm512_store_si512(s[1], s1_);
    _mm512_store_si512(s[2], s2_);
    _mm512_store_si512(s[3], s3_);
  }

  LaneRng& lanes_;
  __m512i s0_, s1_, s2_, s3_;  // State words 0..3 of lanes 0..7.
};

#pragma GCC diagnostic pop
#pragma GCC pop_options
#endif  // BITSPREAD_KERNEL_HAVE_AVX512

}  // namespace

BlockFn avx2_block_fn() noexcept {
  return &detail::process_block_impl<Avx2Filler>;
}

BlockFn avx512_block_fn() noexcept {
#if defined(BITSPREAD_KERNEL_HAVE_AVX512)
  return &detail::process_block_impl<Avx512Filler>;
#else
  return nullptr;
#endif
}

}  // namespace kernel
}  // namespace bitspread

#else  // !BITSPREAD_KERNEL_HAVE_AVX2

namespace bitspread {
namespace kernel {

BlockFn avx2_block_fn() noexcept { return nullptr; }
BlockFn avx512_block_fn() noexcept { return nullptr; }

}  // namespace kernel
}  // namespace bitspread

#endif  // BITSPREAD_KERNEL_HAVE_AVX2
