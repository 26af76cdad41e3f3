#include "rng/philox.hpp"

#include <algorithm>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define CDD_PHILOX_AVX2 1
#endif

namespace cdd::rng {
namespace {

#if CDD_PHILOX_AVX2

/// Per-lane 32x32 -> 64-bit products of \p x and \p m, split into the low
/// and high words: vpmuludq multiplies the even lanes, the odd lanes go
/// through a 32-bit shift.
__attribute__((target("avx2"))) inline void MulLoHi(__m256i x, __m256i m,
                                                     __m256i& lo,
                                                     __m256i& hi) {
  const __m256i even = _mm256_mul_epu32(x, m);
  const __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), m);
  lo = _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0xAA);
  hi = _mm256_blend_epi32(_mm256_srli_epi64(even, 32), odd, 0xAA);
}

/// kGroups x 8 Philox4x32-10 blocks, counters (c0 + lane, c1, c2, c3)
/// with lane = 0 .. 8 kGroups - 1; lane k's four words go to
/// out[4k .. 4k + 4).  The groups run interleaved, so one group's
/// multiplies hide the latency of the other's.  Requires c0 + lane not to
/// wrap.
template <int kGroups>
__attribute__((target("avx2"))) void BlocksAvx2(
    const std::array<std::uint32_t, 4>& counter,
    std::array<std::uint32_t, 2> key, std::uint32_t* out) {
  __m256i x0[kGroups], x1[kGroups], x2[kGroups], x3[kGroups];
  for (int g = 0; g < kGroups; ++g) {
    x0[g] = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(counter[0] + 8 * g)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    x1[g] = _mm256_set1_epi32(static_cast<int>(counter[1]));
    x2[g] = _mm256_set1_epi32(static_cast<int>(counter[2]));
    x3[g] = _mm256_set1_epi32(static_cast<int>(counter[3]));
  }
  const __m256i m0 = _mm256_set1_epi64x(kPhiloxM0);
  const __m256i m1 = _mm256_set1_epi64x(kPhiloxM1);
  for (int round = 0; round < 10; ++round) {
    const __m256i k0 = _mm256_set1_epi32(static_cast<int>(key[0]));
    const __m256i k1 = _mm256_set1_epi32(static_cast<int>(key[1]));
    for (int g = 0; g < kGroups; ++g) {
      __m256i lo0, hi0, lo1, hi1;
      MulLoHi(x0[g], m0, lo0, hi0);
      MulLoHi(x2[g], m1, lo1, hi1);
      x0[g] = _mm256_xor_si256(_mm256_xor_si256(hi1, x1[g]), k0);
      x1[g] = lo1;
      x2[g] = _mm256_xor_si256(_mm256_xor_si256(hi0, x3[g]), k1);
      x3[g] = lo0;
    }
    key[0] += kPhiloxW0;
    key[1] += kPhiloxW1;
  }
  // 4x8 transpose per group: word w of lane k lands at out[4k + w].
  for (int g = 0; g < kGroups; ++g) {
    const __m256i t01lo = _mm256_unpacklo_epi32(x0[g], x1[g]);  // k0 k1|k4 k5
    const __m256i t23lo = _mm256_unpacklo_epi32(x2[g], x3[g]);
    const __m256i t01hi = _mm256_unpackhi_epi32(x0[g], x1[g]);  // k2 k3|k6 k7
    const __m256i t23hi = _mm256_unpackhi_epi32(x2[g], x3[g]);
    const __m256i b04 = _mm256_unpacklo_epi64(t01lo, t23lo);
    const __m256i b15 = _mm256_unpackhi_epi64(t01lo, t23lo);
    const __m256i b26 = _mm256_unpacklo_epi64(t01hi, t23hi);
    const __m256i b37 = _mm256_unpackhi_epi64(t01hi, t23hi);
    auto* dst = reinterpret_cast<__m256i*>(out + 32 * g);
    _mm256_storeu_si256(dst + 0, _mm256_permute2x128_si256(b04, b15, 0x20));
    _mm256_storeu_si256(dst + 1, _mm256_permute2x128_si256(b26, b37, 0x20));
    _mm256_storeu_si256(dst + 2, _mm256_permute2x128_si256(b04, b15, 0x31));
    _mm256_storeu_si256(dst + 3, _mm256_permute2x128_si256(b26, b37, 0x31));
  }
}

bool HostHasAvx2() {
  static const bool avx2 = __builtin_cpu_supports("avx2");
  return avx2;
}

#endif  // CDD_PHILOX_AVX2

}  // namespace

std::size_t Philox4x32BlocksWide(std::array<std::uint32_t, 4>& counter,
                                 std::array<std::uint32_t, 2> key,
                                 std::uint32_t* out, std::size_t blocks) {
#if CDD_PHILOX_AVX2
  if (!HostHasAvx2()) return 0;
  // A group starting at c0 needs c0 + 8 <= 2^32 - 1: neither its lanes
  // nor the counter after it carry into counter[1].
  const std::size_t groups = std::min<std::size_t>(
      blocks / 8, (0xFFFFFFFFu - counter[0]) / 8);
  std::size_t g = 0;
  for (; g + 2 <= groups; g += 2) {
    BlocksAvx2<2>(counter, key, out + 32 * g);
    counter[0] += 16;
  }
  if (g < groups) {
    BlocksAvx2<1>(counter, key, out + 32 * g);
    counter[0] += 8;
  }
  return 8 * groups;
#else
  (void)counter;
  (void)key;
  (void)out;
  (void)blocks;
  return 0;
#endif
}

void Xoshiro256::LongJump() {
  static constexpr std::uint64_t kJump[] = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (const std::uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (1ULL << b)) {
        s0 ^= state_[0];
        s1 ^= state_[1];
        s2 ^= state_[2];
        s3 ^= state_[3];
      }
      (*this)();
    }
  }
  state_ = {s0, s1, s2, s3};
}

}  // namespace cdd::rng
