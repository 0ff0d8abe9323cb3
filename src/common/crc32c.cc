#include "common/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace pbitree {

namespace {

// Slice-by-4 tables for the reflected Castagnoli polynomial, built once
// at first use. Table 0 is the classic byte-at-a-time table; tables 1-3
// fold four input bytes per step.
struct Tables {
  uint32_t t[4][256];
};

const Tables& GetTables() {
  static const Tables tables = [] {
    Tables tb;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      tb.t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      tb.t[1][i] = (tb.t[0][i] >> 8) ^ tb.t[0][tb.t[0][i] & 0xFF];
      tb.t[2][i] = (tb.t[1][i] >> 8) ^ tb.t[0][tb.t[1][i] & 0xFF];
      tb.t[3][i] = (tb.t[2][i] >> 8) ^ tb.t[0][tb.t[2][i] & 0xFF];
    }
    return tb;
  }();
  return tables;
}

}  // namespace

namespace internal {

uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t n) {
  const Tables& tb = GetTables();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = tb.t[3][crc & 0xFF] ^ tb.t[2][(crc >> 8) & 0xFF] ^
          tb.t[1][(crc >> 16) & 0xFF] ^ tb.t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xFF];
  }
  return ~crc;
}

#if defined(__x86_64__)
// The `crc32` instruction implements exactly this polynomial and bit
// order, so one 8-byte step replaces two slice-by-4 steps. Words are
// loaded with memcpy: the buffer need not be 8-byte aligned.
__attribute__((target("sse4.2")))
uint32_t Crc32cSse42(uint32_t crc, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t c = ~crc;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
    p += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (n-- > 0) c32 = _mm_crc32_u8(c32, *p++);
  return ~c32;
}
#endif

bool Crc32cUsesHardware() {
#if defined(__x86_64__)
  static const bool hardware = __builtin_cpu_supports("sse4.2");
  return hardware;
#else
  return false;
#endif
}

}  // namespace internal

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
#if defined(__x86_64__)
  if (internal::Crc32cUsesHardware()) {
    return internal::Crc32cSse42(crc, data, n);
  }
#endif
  return internal::Crc32cPortable(crc, data, n);
}

uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

uint32_t Crc32cZeroedField(const void* data, size_t n, size_t field_offset) {
  static constexpr char kZeroes[4] = {};
  const char* p = static_cast<const char*>(data);
  uint32_t crc = Crc32cExtend(0, p, field_offset);
  crc = Crc32cExtend(crc, kZeroes, sizeof(kZeroes));
  return Crc32cExtend(crc, p + field_offset + sizeof(kZeroes),
                      n - field_offset - sizeof(kZeroes));
}

}  // namespace pbitree
