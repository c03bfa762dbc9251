#include "common/crc32.h"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace colmr {

namespace {

/// Slice-by-8 tables: table[0] is the classic byte-at-a-time table; the
/// other seven let the hot loop fold 8 input bytes per iteration. The
/// polynomial and bit order are unchanged, so every value matches the old
/// single-table implementation.
struct CrcTable {
  uint32_t entries[8][256];
  CrcTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = entries[0][i];
      for (int t = 1; t < 8; ++t) {
        c = entries[0][c & 0xff] ^ (c >> 8);
        entries[t][i] = c;
      }
    }
  }
};

const CrcTable& Table() {
  static const CrcTable* table = new CrcTable();
  return *table;
}

/// Advances the CRC register `state` (the inverted checksum) over n bytes.
uint32_t SliceBy8(uint32_t state, const uint8_t* p, size_t n) {
  const CrcTable& table = Table();
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= state;
    state = table.entries[7][lo & 0xff] ^ table.entries[6][(lo >> 8) & 0xff] ^
            table.entries[5][(lo >> 16) & 0xff] ^ table.entries[4][lo >> 24] ^
            table.entries[3][hi & 0xff] ^ table.entries[2][(hi >> 8) & 0xff] ^
            table.entries[1][(hi >> 16) & 0xff] ^ table.entries[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    state = table.entries[0][(state ^ *p) & 0xff] ^ (state >> 8);
    ++p;
    --n;
  }
  return state;
}

#if defined(__x86_64__)

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009) in the
// bit-reflected domain of P = 0xEDB88320. Every constant is x^k mod P,
// bit-reflected and shifted left by one, except the Barrett pair, which
// is P itself with its x^32 term and mu = floor(x^64 / P), both reflected.
// The pairs are {low qword, high qword}.
constexpr uint64_t kFold4Lo = 0x154442bd4;   // x^(4*128+32): 64 bytes on
constexpr uint64_t kFold4Hi = 0x1c6e41596;   // x^(4*128-32)
constexpr uint64_t kFold1Lo = 0x1751997d0;   // x^(128+32): 16 bytes on
constexpr uint64_t kFold1Hi = 0x0ccaa009e;   // x^(128-32)
constexpr uint64_t kFold64 = 0x163cd6124;    // x^64: 96 bits to 64
constexpr uint64_t kPoly = 0x1db710641;      // P with x^32
constexpr uint64_t kMu = 0x1f7011641;        // floor(x^64 / P)

/// Multiplies acc's low half by k's low and its high half by k's high —
/// moving acc 128 bits further along the message — and adds `next`.
__attribute__((target("pclmul"))) inline __m128i Fold(__m128i acc, __m128i k,
                                                       __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

/// How far ahead of the fold the 64-byte steps prefetch. A job folds each
/// 4 MiB block on its first read, from DRAM; of 256 B, 1 KiB and 4 KiB,
/// 4 KiB ahead ran fastest on bench_codecs' BM_Crc32 (DESIGN.md §7).
constexpr size_t kPrefetchAhead = 4096;

/// Advances the CRC register `state` over n bytes, n a multiple of 16
/// and at least 64: four 128-bit lanes fold 64 bytes per step, fold into
/// one lane, take any 16-byte blocks left, and a Barrett reduction brings
/// the 128-bit remainder down to the 32-bit register.
__attribute__((target("pclmul"))) uint32_t FoldClmul(uint32_t state,
                                                     const uint8_t* p,
                                                     size_t n) {
  const auto load = [](const uint8_t* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(state));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;
  const __m128i fold4 = _mm_set_epi64x(kFold4Hi, kFold4Lo);
  for (; n >= 64; p += 64, n -= 64) {
    // Only a step whose prefetch target lies inside the buffer prefetches,
    // so no pointer past its end is ever formed.
    if (n >= kPrefetchAhead + 64) {
      _mm_prefetch(reinterpret_cast<const char*>(p + kPrefetchAhead),
                   _MM_HINT_T0);
    }
    x0 = Fold(x0, fold4, load(p));
    x1 = Fold(x1, fold4, load(p + 16));
    x2 = Fold(x2, fold4, load(p + 32));
    x3 = Fold(x3, fold4, load(p + 48));
  }
  const __m128i fold1 = _mm_set_epi64x(kFold1Hi, kFold1Lo);
  x0 = Fold(x0, fold1, x1);
  x0 = Fold(x0, fold1, x2);
  x0 = Fold(x0, fold1, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = Fold(x0, fold1, load(p));

  // 128 bits to 96: fold the low qword onto the high one.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, fold1, 0x10));
  // 96 bits to 64: fold the low 32 bits onto the rest.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32),
                                          _mm_set_epi64x(0, kFold64), 0x00));
  // Barrett, 64 bits to 32: q = low 32 bits * mu, truncated to 32 bits;
  // the register is the high half of x0 ^ q * P.
  const __m128i barrett = _mm_set_epi64x(kMu, kPoly);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<uint32_t>(
      _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x0, q), 4)));
}

/// One-time CPU check for the folding kernel.
bool HasClmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return has;
}

#endif  // __x86_64__

}  // namespace

uint32_t Crc32Extend(uint32_t crc, Slice data) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data.data());
  size_t n = data.size();
  uint32_t state = ~crc;
#if defined(__x86_64__)
  if (n >= 64 && HasClmul()) {
    const size_t folded = n & ~size_t{15};
    state = FoldClmul(state, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return ~SliceBy8(state, p, n);
}

uint32_t Crc32(Slice data) { return Crc32Extend(0, data); }

namespace internal {

uint32_t Crc32ExtendPortable(uint32_t crc, Slice data) {
  return ~SliceBy8(~crc, reinterpret_cast<const uint8_t*>(data.data()),
                   data.size());
}

}  // namespace internal

}  // namespace colmr
