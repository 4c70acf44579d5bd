#include "src/storage/crc32c.h"

#include <string.h>

#include <array>
#include <bit>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LSMCOL_CRC32C_X86 1
#include <nmmintrin.h>
#else
#define LSMCOL_CRC32C_X86 0
#endif

namespace lsmcol {
namespace {

constexpr uint32_t kReflectedPoly = 0x82F63B78u;  // 0x1EDC6F41 reflected

using Table = std::array<std::array<uint32_t, 256>, 8>;

// tables[k][b]: the CRC register after byte b followed by k zero bytes —
// what slice-by-8 needs to fold eight input bytes in one step.
constexpr Table MakeTables() {
  Table tables{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t c = b;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ ((c & 1u) != 0 ? kReflectedPoly : 0u);
    }
    tables[0][b] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      const uint32_t prev = tables[k - 1][b];
      tables[k][b] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr Table kTables = MakeTables();

uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v;
  ::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

#if LSMCOL_CRC32C_X86
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* p,
                                                       size_t n,
                                                       uint32_t crc) {
  uint64_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    ::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

}  // namespace

uint32_t Crc32cSoftware(Slice data, uint32_t crc) {
  const uint8_t* p = data.udata();
  size_t n = data.size();
  uint32_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const uint64_t w = LoadLe64(p) ^ c;
    c = kTables[7][w & 0xff] ^ kTables[6][(w >> 8) & 0xff] ^
        kTables[5][(w >> 16) & 0xff] ^ kTables[4][(w >> 24) & 0xff] ^
        kTables[3][(w >> 32) & 0xff] ^ kTables[2][(w >> 40) & 0xff] ^
        kTables[1][(w >> 48) & 0xff] ^ kTables[0][w >> 56];
  }
  for (; n > 0; ++p, --n) c = (c >> 8) ^ kTables[0][(c ^ *p) & 0xff];
  return ~c;
}

bool Crc32cHardwareAvailable() {
#if LSMCOL_CRC32C_X86
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return available;
#else
  return false;
#endif
}

uint32_t Crc32cHardware(Slice data, uint32_t crc) {
#if LSMCOL_CRC32C_X86
  if (Crc32cHardwareAvailable()) {
    return Crc32cSse42(data.udata(), data.size(), crc);
  }
#endif
  return Crc32cSoftware(data, crc);
}

uint32_t Crc32c(Slice data, uint32_t crc) { return Crc32cHardware(data, crc); }

}  // namespace lsmcol
