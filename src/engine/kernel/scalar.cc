// Portable scalar-word backend: the canonical realization of the kernel/2
// schedule (detail::CanonicalFiller over LaneRng::fill_row and
// indices_from_row). Runs everywhere; the SIMD backends are measured (and
// digest-tested) against it.
#include "engine/kernel/backend_impl.h"

namespace bitspread {
namespace kernel {

BlockFn scalar_block_fn() noexcept {
  return &detail::process_block_impl<detail::CanonicalFiller<>>;
}

// The shared templates that avx2.cc also calls, instantiated here at the
// baseline ISA; avx2.cc declares them extern, so the -mavx2 object holds no
// copy of them that the linker could keep for this backend.
namespace detail {
template void fill_lanes_canonical<CsrRows, draw_row>(const BlockArgs&,
                                                      const CsrRows&, LaneRng&,
                                                      std::uint64_t*) noexcept;
template void fill_distinct_indices<CompleteRows>(const BlockArgs&,
                                                  const CompleteRows&,
                                                  LaneRng&, std::uint64_t);
template void fill_distinct_indices<CsrRows>(const BlockArgs&, const CsrRows&,
                                             LaneRng&, std::uint64_t);
}  // namespace detail

}  // namespace kernel
}  // namespace bitspread
