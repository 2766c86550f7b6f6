#include "common/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace raefs {
namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected CRC32C polynomial

std::array<uint32_t, 256> make_table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& table() {
  static const std::array<uint32_t, 256> t = make_table();
  return t;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes the same reflected CRC32C. Built
// for SSE4.2 through the attribute alone, so the rest of the binary keeps
// the baseline ISA and still runs where the instruction is missing.
__attribute__((target("sse4.2"))) uint32_t crc32c_sse42(const uint8_t* p,
                                                         size_t n,
                                                         uint32_t seed) {
  uint64_t crc = static_cast<uint32_t>(~seed);
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof word);  // any alignment
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

// Resolved on first use: a function-local static is initialized once even
// when threads race to it. __builtin_cpu_init makes the probe valid even if
// that first use runs inside another static initializer.
bool have_sse42() {
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return have;
}
#endif

}  // namespace

uint32_t crc32c_table(std::span<const uint8_t> data, uint32_t seed) {
  const auto& t = table();
  uint32_t crc = ~seed;
  for (uint8_t b : data) {
    crc = (crc >> 8) ^ t[(crc ^ b) & 0xFF];
  }
  return ~crc;
}

uint32_t crc32c(std::span<const uint8_t> data, uint32_t seed) {
#if defined(__x86_64__)
  if (have_sse42()) return crc32c_sse42(data.data(), data.size(), seed);
#endif
  return crc32c_table(data, seed);
}

uint32_t crc32c(const void* data, size_t len, uint32_t seed) {
  return crc32c(
      std::span<const uint8_t>(static_cast<const uint8_t*>(data), len), seed);
}

}  // namespace raefs
