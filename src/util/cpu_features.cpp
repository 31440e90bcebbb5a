#include "util/cpu_features.h"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#include <cpuid.h>
#endif

namespace omega::util {
namespace {

CpuFeatures detect() noexcept {
  CpuFeatures features;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  features.avx2 = __builtin_cpu_supports("avx2") != 0;
  features.fma = __builtin_cpu_supports("fma") != 0;
  features.avx512f = __builtin_cpu_supports("avx512f") != 0;
  features.avx512vpopcntdq = __builtin_cpu_supports("avx512vpopcntdq") != 0;
#endif
  return features;
}

}  // namespace

const CpuFeatures& cpu_features() noexcept {
  static const CpuFeatures features = detect();
  return features;
}

std::string cpu_isa_summary() {
  const CpuFeatures& features = cpu_features();
  if (features.avx512f && features.avx2 && features.fma) {
    return features.avx512vpopcntdq ? "avx512f+vpopcntdq+avx2+fma"
                                    : "avx512f+avx2+fma";
  }
  if (features.avx2 && features.fma) return "avx2+fma";
  if (features.avx2) return "avx2";
  if (features.fma) return "fma";
  return "baseline";
}

std::string cpu_model() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  // CPUID leaves 0x80000002..4 spell out the 48-byte brand string.
  if (__get_cpuid_max(0x80000000U, nullptr) < 0x80000004U) return "unknown";
  unsigned int regs[12] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002U + leaf, &regs[leaf * 4 + 0], &regs[leaf * 4 + 1],
                &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
  }
  char raw[49] = {};
  for (unsigned int i = 0; i < 12; ++i) {
    raw[i * 4 + 0] = static_cast<char>(regs[i] & 0xFF);
    raw[i * 4 + 1] = static_cast<char>((regs[i] >> 8) & 0xFF);
    raw[i * 4 + 2] = static_cast<char>((regs[i] >> 16) & 0xFF);
    raw[i * 4 + 3] = static_cast<char>((regs[i] >> 24) & 0xFF);
  }
  // Normalize: collapse runs of spaces, trim both ends.
  std::string model;
  for (const char* p = raw; *p != '\0'; ++p) {
    if (*p == ' ' && (model.empty() || model.back() == ' ')) continue;
    model.push_back(*p);
  }
  while (!model.empty() && model.back() == ' ') model.pop_back();
  return model.empty() ? "unknown" : model;
#else
  return "unknown";
#endif
}

}  // namespace omega::util
