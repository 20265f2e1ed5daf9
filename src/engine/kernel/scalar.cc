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

}  // namespace kernel
}  // namespace bitspread
