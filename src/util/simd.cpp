#include "src/util/simd.hpp"

#include <cstdint>

namespace pdet::util::simd {

const char* to_string(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "baseline";
}

bool supported(Isa isa) {
  if (isa == Isa::kBaseline) return true;
#ifdef PDET_SIMD_AVX2_CLONE
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("pclmul");
#else
  return false;
#endif
}

Isa active_isa() {
  static const Isa picked =
      supported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kBaseline;
  return picked;
}

float* aligned_floats(std::vector<float>& storage, std::size_t count) {
  if (storage.size() < count + kAlignFloats) {
    storage.resize(count + kAlignFloats);
  }
  const auto addr = reinterpret_cast<std::uintptr_t>(storage.data());
  const std::uintptr_t aligned = (addr + 63u) & ~std::uintptr_t{63};
  return storage.data() + (aligned - addr) / sizeof(float);
}

}  // namespace pdet::util::simd
