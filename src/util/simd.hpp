// The one dispatch seam for pdet's wide-vector kernels (pdet::util::simd).
//
// A kernel family is written once, as a `.inc` body, and compiled twice by
// the source file that owns it (simd_clone.inc): at the build's baseline
// ISA, the portable floor, and — on x86-64 GCC — once more under
// `#pragma GCC target("avx2,fma,pclmul")`. The owner collects each copy's
// function pointers into a Kernels<Table>, and Kernels::active() hands out
// the copy for the ISA this process runs at. The families are the gradient
// and HOG row kernels, the window scoring kernel and util::crc32.
//
// That ISA is picked once per process, from CPUID, and every family shares
// the pick: all kernels of one process run at one ISA, so results are
// deterministic on any given machine even though the float kernels' two
// copies round differently (FMA fusion, lane folds); the CRC copies agree
// bit for bit. The wide copy runs only where CPUID reports AVX2, FMA and
// PCLMULQDQ. No option or environment variable forces a copy;
// tests reach a specific one through Kernels::at() and gate the wide one on
// supported(Isa::kAvx2).
#pragma once

#include <cstddef>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#include <immintrin.h>
#define PDET_SIMD_AVX2_CLONE 1
#endif

namespace pdet::util::simd {

enum class Isa {
  kBaseline,  ///< the build's portable floor
  kAvx2,      ///< AVX2 + FMA + PCLMULQDQ, the `#pragma GCC target` copy
};

const char* to_string(Isa isa);

/// True when this build carries the copy for `isa` and the CPU can run it.
bool supported(Isa isa);

/// The ISA every dual-compiled kernel of this process runs at: kAvx2 when
/// supported, else kBaseline. Decided on the first call, then cached.
Isa active_isa();

/// One kernel family's per-ISA function tables. Builds without the AVX2
/// clone hold the baseline table twice (supported(kAvx2) is false there).
template <class Table>
struct Kernels {
  Table baseline;
  Table avx2;

  const Table& at(Isa isa) const {
    return isa == Isa::kAvx2 ? avx2 : baseline;
  }
  const Table& active() const { return at(active_isa()); }
};

/// Floats per 64-byte boundary.
inline constexpr std::size_t kAlignFloats = 16;

/// `count` rounded up to whole kAlignFloats, so pieces of those sizes carved
/// back to back from an aligned block all start 64-byte aligned.
constexpr std::size_t padded_floats(std::size_t count) {
  return (count + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

/// Grow `storage` (never shrinking it) until `count` floats fit from a
/// 64-byte boundary inside it, and return that boundary. A warm buffer is
/// re-carved without allocating.
float* aligned_floats(std::vector<float>& storage, std::size_t count);

}  // namespace pdet::util::simd
