// NEON backend (aarch64): the eight xoshiro lanes advance as four 2x64
// vector pairs; index mapping (complete or CSR rows), gather, and pack
// reuse the canonical scalar helpers (NEON has no gather, and the scalar
// Lemire map is already a handful of cycles), so bit-identity with the
// scalar backend follows from the vector step computing exactly the scalar
// recurrence. Lane state stays in the canonical LaneRng storage between
// rows, so the single-lane rejection redraw path needs no spill/reload
// choreography.
#include "engine/kernel/backend_impl.h"

#if defined(BITSPREAD_KERNEL_HAVE_NEON)

#include <arm_neon.h>

namespace bitspread {
namespace kernel {
namespace {

// One draw from every lane (the canonical row), two lanes per vector.
void neon_row(LaneRng& lanes, std::uint64_t* out) noexcept {
  auto& s = lanes.state();
  for (unsigned pair = 0; pair < 4; ++pair) {
    uint64x2_t s0 = vld1q_u64(&s[0][2 * pair]);
    uint64x2_t s1 = vld1q_u64(&s[1][2 * pair]);
    uint64x2_t s2 = vld1q_u64(&s[2][2 * pair]);
    uint64x2_t s3 = vld1q_u64(&s[3][2 * pair]);
    const uint64x2_t x5 = vaddq_u64(s1, vshlq_n_u64(s1, 2));
    const uint64x2_t r7 = vorrq_u64(vshlq_n_u64(x5, 7), vshrq_n_u64(x5, 57));
    const uint64x2_t result = vaddq_u64(r7, vshlq_n_u64(r7, 3));
    const uint64x2_t t = vshlq_n_u64(s1, 17);
    s2 = veorq_u64(s2, s0);
    s3 = veorq_u64(s3, s1);
    s1 = veorq_u64(s1, s2);
    s0 = veorq_u64(s0, s3);
    s2 = veorq_u64(s2, t);
    s3 = vorrq_u64(vshlq_n_u64(s3, 45), vshrq_n_u64(s3, 19));
    vst1q_u64(&s[0][2 * pair], s0);
    vst1q_u64(&s[1][2 * pair], s1);
    vst1q_u64(&s[2][2 * pair], s2);
    vst1q_u64(&s[3][2 * pair], s3);
    vst1q_u64(&out[2 * pair], result);
  }
}

}  // namespace

BlockFn neon_block_fn() noexcept {
  return &detail::process_block_impl<detail::CanonicalFiller<neon_row>>;
}

}  // namespace kernel
}  // namespace bitspread

#else  // !BITSPREAD_KERNEL_HAVE_NEON

namespace bitspread {
namespace kernel {

BlockFn neon_block_fn() noexcept { return nullptr; }

}  // namespace kernel
}  // namespace bitspread

#endif  // BITSPREAD_KERNEL_HAVE_NEON
