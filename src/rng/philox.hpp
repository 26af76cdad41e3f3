#pragma once
/// \file philox.hpp
/// \brief Philox4x32-10 counter-based random number generator.
///
/// Philox (Salmon et al., SC'11) is the algorithm behind cuRAND's default
/// XORWOW alternative `CURAND_RNG_PSEUDO_PHILOX4_32_10` and the natural
/// choice for a CUDA-style runtime: a generator is just a (key, counter)
/// pair, so every simulated GPU thread owns an independent stream derived
/// from (seed, thread id) with zero shared state — exactly how the paper's
/// kernels consume cuRAND sequences (Sections VI-B, VI-C).
///
/// Being counter-based also makes runs bit-for-bit reproducible regardless
/// of how the simulator schedules blocks, which the determinism tests rely
/// on.

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace cdd::rng {

/// SplitMix64 — tiny mixing generator used to expand seeds (Vigna).
/// Satisfies std::uniform_random_bit_generator.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** — fast general-purpose host-side generator (Blackman &
/// Vigna).  Used by the serial CPU baselines where stream independence per
/// thread is not needed.  Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) {
    SplitMix64 mix(seed);
    for (auto& s : state_) s = mix();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Equivalent to 2^128 calls; used to give worker threads disjoint
  /// subsequences.
  void LongJump();

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

inline constexpr std::uint32_t kPhiloxM0 = 0xD2511F53u;
inline constexpr std::uint32_t kPhiloxM1 = 0xCD9E8D57u;
inline constexpr std::uint32_t kPhiloxW0 = 0x9E3779B9u;  // golden ratio
inline constexpr std::uint32_t kPhiloxW1 = 0xBB67AE85u;  // sqrt(3) - 1

/// Philox4x32-10 block function: encrypts a 128-bit counter under a 64-bit
/// key producing four 32-bit outputs.  Inline: the generators call it once
/// per four draws.
inline std::array<std::uint32_t, 4> Philox4x32Block(
    std::array<std::uint32_t, 4> ctr, std::array<std::uint32_t, 2> key) {
  for (int round = 0; round < 10; ++round) {
    const std::uint64_t p0 = std::uint64_t{kPhiloxM0} * ctr[0];
    const std::uint64_t p1 = std::uint64_t{kPhiloxM1} * ctr[2];
    ctr = {static_cast<std::uint32_t>(p1 >> 32) ^ ctr[1] ^ key[0],
           static_cast<std::uint32_t>(p1),
           static_cast<std::uint32_t>(p0 >> 32) ^ ctr[3] ^ key[1],
           static_cast<std::uint32_t>(p0)};
    key[0] += kPhiloxW0;
    key[1] += kPhiloxW1;
  }
  return ctr;
}

/// Writes the blocks for counters (counter[0] + k, counter[1..3]) into
/// out[4k .. 4k + 4) with AVX2 when the host has it, for as many whole
/// groups of eight as fit in \p blocks without carrying out of
/// counter[0]; advances counter[0] past them and returns how many blocks
/// it wrote (a multiple of 8, 0 without AVX2).
std::size_t Philox4x32BlocksWide(std::array<std::uint32_t, 4>& counter,
                                 std::array<std::uint32_t, 2> key,
                                 std::uint32_t* out, std::size_t blocks);

/// \brief Philox4x32-10 stream generator.
///
/// Constructed from (seed, stream): the seed keys the cipher, the stream id
/// (e.g. the simulated GPU thread index) is baked into the high counter
/// words, so all streams of one seed are provably disjoint.  Satisfies
/// std::uniform_random_bit_generator with 32-bit output.
class Philox4x32 {
 public:
  using result_type = std::uint32_t;

  explicit Philox4x32(std::uint64_t seed, std::uint64_t stream = 0)
      : key_{static_cast<std::uint32_t>(seed),
             static_cast<std::uint32_t>(seed >> 32)},
        counter_{0, 0, static_cast<std::uint32_t>(stream),
                 static_cast<std::uint32_t>(stream >> 32)} {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    if (index_ == 4) {
      NextBlock();
      index_ = 0;
    }
    return block_[index_++];
  }

  /// Writes the next \p count outputs to \p out and leaves the generator
  /// where \p count calls of operator() would: every later draw is the
  /// same.  Whole blocks come from Philox4x32BlocksWide where it applies;
  /// the rest, including any stretch that would carry out of the low
  /// counter word, block by block.
  void Fill(std::uint32_t* out, std::size_t count) {
    for (; count > 0 && index_ < 4; --count) *out++ = block_[index_++];
    if (count == 0) return;
    std::size_t blocks = count / 4;
    count %= 4;
    if (blocks >= 8) {
      const std::size_t wide =
          Philox4x32BlocksWide(counter_, key_, out, blocks);
      out += 4 * wide;
      blocks -= wide;
    }
    for (; blocks > 0; --blocks) {
      NextBlock();
      for (unsigned k = 0; k < 4; ++k) *out++ = block_[k];
    }
    if (count > 0) {
      NextBlock();
      index_ = 0;
      for (; count > 0; --count) *out++ = block_[index_++];
    }
  }

  /// Jumps to absolute position \p n in the stream (counts 32-bit outputs).
  /// O(1): counter-based generators are randomly addressable.
  void Seek(std::uint64_t n) {
    counter_[0] = static_cast<std::uint32_t>(n / 4);
    counter_[1] = static_cast<std::uint32_t>((n / 4) >> 32);
    NextBlock();
    index_ = static_cast<unsigned>(n % 4);
  }

  /// cuRAND-style conversion: 32-bit integer to float in (0, 1].
  /// The paper normalizes cuRAND integers into [0,1] for the metropolis
  /// test; this matches curand_uniform's convention of excluding 0 so that
  /// log()/division by the result stay safe.
  static float ToUniformFloat(std::uint32_t v) {
    return (static_cast<float>(v) + 1.0f) * (1.0f / 4294967296.0f);
  }

  /// Next uniform float in (0, 1].
  float NextUniform() { return ToUniformFloat((*this)()); }

 private:
  void NextBlock() {
    block_ = Philox4x32Block(counter_, key_);
    AdvanceCounter();
  }

  void AdvanceCounter() {
    if (++counter_[0] == 0 && ++counter_[1] == 0 && ++counter_[2] == 0) {
      ++counter_[3];
    }
  }

  std::array<std::uint32_t, 2> key_;
  std::array<std::uint32_t, 4> counter_;
  std::array<std::uint32_t, 4> block_{};
  unsigned index_ = 4;
};

}  // namespace cdd::rng
