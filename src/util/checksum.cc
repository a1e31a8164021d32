#include "src/util/checksum.h"

#include <array>
#include <cstring>
#include <string_view>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RMP_HAVE_X86_CLMUL 1
#include <immintrin.h>
#else
#define RMP_HAVE_X86_CLMUL 0
#endif

namespace rmp {
namespace {

// Eight shifted lookup tables for one reflected polynomial: t[0] is the
// classic byte-at-a-time table, t[k] advances a byte through k+1 zero bytes.
struct SliceTables {
  std::array<std::array<uint32_t, 256>, 8> t;
};

SliceTables BuildTables(uint32_t reflected_poly) {
  SliceTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (reflected_poly ^ (c >> 1)) : (c >> 1);
    }
    tables.t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = tables.t[0][i];
    for (int s = 1; s < 8; ++s) {
      c = tables.t[0][c & 0xffu] ^ (c >> 8);
      tables.t[s][i] = c;
    }
  }
  return tables;
}

const SliceTables& IeeeTables() {
  static const SliceTables tables = BuildTables(0xedb88320u);
  return tables;
}

const SliceTables& CastagnoliTables() {
  static const SliceTables tables = BuildTables(0x82f63b78u);
  return tables;
}

uint32_t SliceBy8(const SliceTables& tables, uint32_t crc, const uint8_t* p, size_t n) {
  const auto& t = tables.t;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
          t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
#endif
  while (n-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RMP_HAVE_X86_CRC32C 1

inline uint64_t HwCrc32q(uint64_t crc, uint64_t val) {
  asm("crc32q %1, %0" : "+r"(crc) : "rm"(val));
  return crc;
}

inline uint32_t HwCrc32b(uint32_t crc, uint8_t val) {
  asm("crc32b %1, %0" : "+r"(crc) : "rm"(val));
  return crc;
}

uint32_t Crc32cHardware(uint32_t crc, const uint8_t* p, size_t n) {
  uint64_t c = crc;
  while (n >= 8) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    c = HwCrc32q(c, v);
    p += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (n-- > 0) {
    c32 = HwCrc32b(c32, *p++);
  }
  return c32;
}

bool DetectSse42() { return __builtin_cpu_supports("sse4.2") != 0; }
#else
#define RMP_HAVE_X86_CRC32C 0
#endif

#if RMP_HAVE_X86_CLMUL

// Carry-less-multiply folding for the reflected IEEE polynomial (Gopal et
// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction", Intel, 2009). Each constant is x^n mod P(x), bit-reflected
// and shifted left one place, for the fold distance n it serves:
//   k1 = x^(4*128+32), k2 = x^(4*128-32)  fold four lanes forward 64 bytes;
//   k3 = x^(128+32),   k4 = x^(128-32)    fold one 16-byte block forward;
//   k5 = x^64                            fold 64 bits into 32;
// and the Barrett pair, P(x) itself and mu = floor(x^64 / P(x)), each
// reflected over 33 bits, reduces the last 64 bits to the 32-bit remainder.
constexpr int64_t kK1 = 0x154442bd4;
constexpr int64_t kK2 = 0x1c6e41596;
constexpr int64_t kK3 = 0x1751997d0;
constexpr int64_t kK4 = 0x0ccaa009e;
constexpr int64_t kK5 = 0x163cd6124;
constexpr int64_t kPoly = 0x1db710641;
constexpr int64_t kMu = 0x1f7011641;

// Carries `x` forward by the distance `k` encodes: its low 64-bit half times
// k's low constant, xor its high half times k's high constant.
__attribute__((target("pclmul"))) inline __m128i Fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11));
}

inline __m128i Load16(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// CRC state over `n` bytes, n >= 64 and a multiple of 16. Takes and returns
// the same un-inverted running state as SliceBy8, so the two compose.
__attribute__((target("pclmul,sse4.1"))) uint32_t Crc32Pclmul(uint32_t crc, const uint8_t* p,
                                                              size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  const __m128i k5 = _mm_set_epi64x(0, kK5);
  const __m128i poly_mu = _mm_set_epi64x(kMu, kPoly);
  const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);

  // Four independent lanes hide the multiply latency.
  __m128i x0 = _mm_xor_si128(Load16(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load16(p + 16);
  __m128i x2 = Load16(p + 32);
  __m128i x3 = Load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = _mm_xor_si128(Fold(x0, k1k2), Load16(p));
    x1 = _mm_xor_si128(Fold(x1, k1k2), Load16(p + 16));
    x2 = _mm_xor_si128(Fold(x2, k1k2), Load16(p + 32));
    x3 = _mm_xor_si128(Fold(x3, k1k2), Load16(p + 48));
  }
  __m128i x = _mm_xor_si128(Fold(x0, k3k4), x1);
  x = _mm_xor_si128(Fold(x, k3k4), x2);
  x = _mm_xor_si128(Fold(x, k3k4), x3);
  for (; n >= 16; p += 16, n -= 16) {
    x = _mm_xor_si128(Fold(x, k3k4), Load16(p));
  }

  // 128 -> 64 bits, then 64 -> 32, each appending 32 zero bits.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett reduction: q = floor(x * mu), remainder = x ^ q * P.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

#endif  // RMP_HAVE_X86_CLMUL

uint32_t Crc32SliceBy8(uint32_t crc, const uint8_t* p, size_t n) {
  return SliceBy8(IeeeTables(), crc, p, n);
}

// Inputs below this length stay on slice-by-8: the fold starts from four
// 16-byte lanes.
constexpr size_t kFoldMinBytes = 64;

#if RMP_HAVE_X86_CLMUL
uint32_t Crc32Folded(uint32_t crc, const uint8_t* p, size_t n) {
  if (n >= kFoldMinBytes) {
    const size_t bulk = n & ~size_t{15};
    crc = Crc32Pclmul(crc, p, bulk);
    p += bulk;
    n -= bulk;
  }
  return Crc32SliceBy8(crc, p, n);
}
#endif

using Crc32Fn = uint32_t (*)(uint32_t, const uint8_t*, size_t);

struct Crc32Impl {
  Crc32Fn fn;
  std::string_view name;
};

Crc32Impl PickCrc32Impl() {
#if RMP_HAVE_X86_CLMUL
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    return {Crc32Folded, "pclmul"};
  }
#endif
  return {Crc32SliceBy8, "scalar"};
}

const Crc32Impl& DispatchedCrc32() {
  static const Crc32Impl impl = PickCrc32Impl();
  return impl;
}

}  // namespace

uint32_t Crc32Init() { return 0xffffffffu; }

uint32_t Crc32Update(uint32_t crc, std::span<const uint8_t> data) {
  return DispatchedCrc32().fn(crc, data.data(), data.size());
}

uint32_t Crc32Scalar(std::span<const uint8_t> data) {
  return Crc32Finalize(Crc32SliceBy8(Crc32Init(), data.data(), data.size()));
}

std::string_view Crc32ImplName() { return DispatchedCrc32().name; }

uint32_t Crc32Finalize(uint32_t crc) { return crc ^ 0xffffffffu; }

uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32Finalize(Crc32Update(Crc32Init(), data));
}

bool Crc32cHardwareAvailable() {
#if RMP_HAVE_X86_CRC32C
  static const bool available = DetectSse42();
  return available;
#else
  return false;
#endif
}

uint32_t Crc32c(std::span<const uint8_t> data) {
#if RMP_HAVE_X86_CRC32C
  if (Crc32cHardwareAvailable()) {
    return Crc32cHardware(0xffffffffu, data.data(), data.size()) ^ 0xffffffffu;
  }
#endif
  return SliceBy8(CastagnoliTables(), 0xffffffffu, data.data(), data.size()) ^ 0xffffffffu;
}

}  // namespace rmp
