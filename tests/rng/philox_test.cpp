/// Philox4x32-10 and companion generator tests: known-answer vectors,
/// stream independence, random access, and uniformity.

#include "rng/philox.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <vector>

namespace cdd::rng {
namespace {

TEST(Philox, KnownAnswerVectorZero) {
  // Random123 reference: philox4x32-10 of all-zero counter and key.
  const auto out = Philox4x32Block({0, 0, 0, 0}, {0, 0});
  EXPECT_EQ(out[0], 0x6627e8d5u);
  EXPECT_EQ(out[1], 0xe169c58du);
  EXPECT_EQ(out[2], 0xbc57ac4cu);
  EXPECT_EQ(out[3], 0x9b00dbd8u);
}

TEST(Philox, KnownAnswerVectorOnes) {
  // Random123 reference: all-ones counter and key.
  const auto out = Philox4x32Block(
      {0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu},
      {0xffffffffu, 0xffffffffu});
  EXPECT_EQ(out[0], 0x408f276du);
  EXPECT_EQ(out[1], 0x41c83b0eu);
  EXPECT_EQ(out[2], 0xa20bc7c6u);
  EXPECT_EQ(out[3], 0x6d5451fdu);
}

TEST(Philox, DeterministicPerSeedAndStream) {
  Philox4x32 a(42, 7);
  Philox4x32 b(42, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Philox, DifferentStreamsDiffer) {
  Philox4x32 a(42, 0);
  Philox4x32 b(42, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);  // collisions of independent uniforms are rare
}

TEST(Philox, DifferentSeedsDiffer) {
  Philox4x32 a(1, 0);
  Philox4x32 b(2, 0);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Philox, SeekIsRandomAccess) {
  Philox4x32 sequential(9, 3);
  std::vector<std::uint32_t> expected;
  for (int i = 0; i < 64; ++i) expected.push_back(sequential());

  for (const std::uint64_t pos : {0ull, 1ull, 3ull, 4ull, 17ull, 63ull}) {
    Philox4x32 seeker(9, 3);
    seeker.Seek(pos);
    EXPECT_EQ(seeker(), expected[pos]) << "position " << pos;
  }
}

/// Fill(count) from \p start against count calls of operator() from a
/// copy of it, then a few more draws to show both left the same state.
void ExpectFillMatchesCalls(const Philox4x32& start, std::size_t count) {
  Philox4x32 bulk = start;
  Philox4x32 single = start;
  std::vector<std::uint32_t> got(count + 1, 0xdeadbeefu);
  bulk.Fill(got.data(), count);
  for (std::size_t k = 0; k < count; ++k) {
    ASSERT_EQ(got[k], single()) << "count " << count << " draw " << k;
  }
  ASSERT_EQ(got[count], 0xdeadbeefu) << "count " << count << " overran";
  for (int k = 0; k < 9; ++k) {
    ASSERT_EQ(bulk(), single()) << "count " << count << " after " << k;
  }
}

TEST(Philox, FillMatchesSuccessiveCalls) {
  // Seeds and streams with high words set, from every offset in a block.
  for (const std::uint64_t seed : {0ull, 7ull, 0x9e3779b97f4a7c15ull}) {
    for (const std::uint64_t stream : {0ull, 3ull, 0xfedcba9876543210ull}) {
      for (unsigned used = 0; used < 4; ++used) {
        Philox4x32 start(seed, stream);
        for (unsigned k = 0; k < used; ++k) start();
        for (std::size_t count = 0; count <= 130; ++count) {
          ExpectFillMatchesCalls(start, count);
        }
      }
    }
  }
  // Seeked to within a few blocks of the low counter word's carry (block
  // 2^32 - 1 - back), at every offset, and past 2^32 blocks.
  for (std::uint64_t back = 0; back < 40; ++back) {
    for (std::uint64_t offset = 0; offset < 4; ++offset) {
      Philox4x32 start(0x0123456789abcdefull, 0xfedcba9876543210ull);
      start.Seek(4 * (0xffffffffull - back) + offset);
      ExpectFillMatchesCalls(start, 130);
      Philox4x32 high(11, 12);
      high.Seek((5ull << 34) + 4 * back + offset);
      ExpectFillMatchesCalls(high, 130);
    }
  }
}

TEST(Philox, UniformFloatInHalfOpenUnitInterval) {
  Philox4x32 rng(2718);
  for (int i = 0; i < 100000; ++i) {
    const float u = rng.NextUniform();
    EXPECT_GT(u, 0.0f);
    EXPECT_LE(u, 1.0f);
  }
  EXPECT_FLOAT_EQ(Philox4x32::ToUniformFloat(0xffffffffu), 1.0f);
  EXPECT_GT(Philox4x32::ToUniformFloat(0), 0.0f);
}

TEST(Philox, ChiSquareUniformityOf16Buckets) {
  Philox4x32 rng(31415);
  constexpr int kBuckets = 16;
  constexpr int kSamples = 160000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng() >> 28];
  }
  double chi2 = 0.0;
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 15 degrees of freedom; 99.9th percentile ~ 37.7.
  EXPECT_LT(chi2, 37.7);
}

TEST(Philox, MonobitBalance) {
  Philox4x32 rng(161803);
  std::int64_t bits = 0;
  constexpr int kWords = 100000;
  for (int i = 0; i < kWords; ++i) {
    bits += std::popcount(rng());
  }
  const double mean = static_cast<double>(bits) / (kWords * 32.0);
  EXPECT_NEAR(mean, 0.5, 0.002);
}

TEST(SplitMix64, KnownFirstOutputs) {
  // Reference values for seed 1234567 (Vigna's splitmix64.c).
  SplitMix64 rng(1234567);
  EXPECT_EQ(rng(), 6457827717110365317ull);
  EXPECT_EQ(rng(), 3203168211198807973ull);
}

TEST(Xoshiro256, DeterministicAndNonDegenerate) {
  Xoshiro256 a(99);
  Xoshiro256 b(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = a();
    EXPECT_EQ(v, b());
    seen.insert(v);
  }
  EXPECT_GT(seen.size(), 995u);
}

TEST(Xoshiro256, LongJumpDecorrelates) {
  Xoshiro256 a(5);
  Xoshiro256 b(5);
  b.LongJump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

}  // namespace
}  // namespace cdd::rng
