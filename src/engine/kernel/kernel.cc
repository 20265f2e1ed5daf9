#include "engine/kernel/kernel.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "engine/kernel/backend_impl.h"

namespace bitspread {
namespace kernel {
namespace {

bool cpu_has_avx2() noexcept {
#if defined(BITSPREAD_KERNEL_HAVE_AVX2)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// The AVX-512F filler runs inside the -mavx2 translation unit (its block
// loop, CSR word set-up and redraw path are AVX2 code), so it needs both.
bool cpu_has_avx512() noexcept {
#if defined(BITSPREAD_KERNEL_HAVE_AVX512)
  return cpu_has_avx2() && __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

bool build_has_neon() noexcept {
#if defined(BITSPREAD_KERNEL_HAVE_NEON)
  return true;  // NEON is baseline on aarch64; no runtime probe needed.
#else
  return false;
#endif
}

Backend detect_best() noexcept {
  if (cpu_has_avx512()) return Backend::kAvx512;
  if (cpu_has_avx2()) return Backend::kAvx2;
  if (build_has_neon()) return Backend::kNeon;
  return Backend::kScalarWord;
}

// Unrecognized values behave as unset (kAuto): a typo in the env var must
// not silently flip an experiment onto a different code path than "auto".
Backend parse_backend(const char* value) noexcept {
  if (value == nullptr) return Backend::kAuto;
  if (std::strcmp(value, "legacy") == 0) return Backend::kLegacy;
  if (std::strcmp(value, "scalar") == 0) return Backend::kScalarWord;
  if (std::strcmp(value, "avx2") == 0) return Backend::kAvx2;
  if (std::strcmp(value, "neon") == 0) return Backend::kNeon;
  return Backend::kAuto;
}

struct EnvOverrides {
  const char* kernel = nullptr;
  bool force_scalar = false;
};

const EnvOverrides& env_overrides() noexcept {
  static const EnvOverrides overrides = [] {
    EnvOverrides o;
    o.kernel = std::getenv("BITSPREAD_KERNEL");
    const char* force = std::getenv("BITSPREAD_FORCE_SCALAR_KERNEL");
    o.force_scalar = force != nullptr && force[0] != '\0' &&
                     std::strcmp(force, "0") != 0;
    return o;
  }();
  return overrides;
}

}  // namespace

Backend resolve_with(Backend requested, const char* env_kernel,
                     bool force_scalar) noexcept {
  Backend backend = requested;
  // The env var replaces kAuto requests only: code that explicitly pins a
  // backend (digest-equality tests, bench rows) keeps what it asked for.
  if (backend == Backend::kAuto) backend = parse_backend(env_kernel);
  if (backend == Backend::kAuto) backend = detect_best();
  // The CI portable-matrix switch demotes every SIMD choice, including
  // explicit ones — its whole point is to force the scalar path globally.
  if (force_scalar && (backend == Backend::kAvx2 ||
                       backend == Backend::kAvx512 ||
                       backend == Backend::kNeon)) {
    backend = Backend::kScalarWord;
  }
  if (backend == Backend::kAvx2 && !cpu_has_avx2()) {
    backend = Backend::kScalarWord;
  }
  if (backend == Backend::kAvx512 && !cpu_has_avx512()) {
    backend = Backend::kScalarWord;
  }
  if (backend == Backend::kNeon && !build_has_neon()) {
    backend = Backend::kScalarWord;
  }
  return backend;
}

Backend resolve(Backend requested) noexcept {
  const EnvOverrides& env = env_overrides();
  return resolve_with(requested, env.kernel, env.force_scalar);
}

std::vector<Backend> available_backends() {
  std::vector<Backend> backends;
  if (!env_overrides().force_scalar) {
    if (cpu_has_avx512()) backends.push_back(Backend::kAvx512);
    if (cpu_has_avx2()) backends.push_back(Backend::kAvx2);
    if (build_has_neon()) backends.push_back(Backend::kNeon);
  }
  backends.push_back(Backend::kScalarWord);
  return backends;
}

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kAuto:
      return "auto";
    case Backend::kLegacy:
      return "legacy";
    case Backend::kScalarWord:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
    case Backend::kNeon:
      return "neon";
  }
  return "unknown";
}

BlockFn block_fn(Backend resolved) noexcept {
  switch (resolved) {
    case Backend::kScalarWord:
      return scalar_block_fn();
    case Backend::kAvx2:
      return avx2_block_fn();
    case Backend::kAvx512:
      return avx512_block_fn();
    case Backend::kNeon:
      return neon_block_fn();
    default:
      return nullptr;
  }
}

bool CircuitTable::classify(const double* gtable, std::uint32_t ell) {
  constexpr double kTol = 1e-12;
  for (unsigned own = 0; own < 2; ++own) {
    ones_ks[own].clear();
    half_ks[own].clear();
  }
  any_half = false;
  for (unsigned own = 0; own < 2; ++own) {
    for (std::uint32_t k = 0; k <= ell; ++k) {
      const double g = gtable[own * (ell + 1) + k];
      if (std::fabs(g) <= kTol) continue;
      if (std::fabs(g - 1.0) <= kTol) {
        ones_ks[own].push_back(k);
      } else if (std::fabs(g - 0.5) <= kTol) {
        half_ks[own].push_back(k);
        any_half = true;
      } else {
        return false;  // Fractional g: the boolean circuit cannot express it.
      }
    }
  }
  own_dependent =
      ones_ks[0] != ones_ks[1] || half_ks[0] != half_ks[1];
  return true;
}

}  // namespace kernel
}  // namespace bitspread
