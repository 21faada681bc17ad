// Deterministic random streams for Monte-Carlo experiments.
//
// Every stochastic experiment in this library takes an explicit 64-bit
// seed and derives independent sub-streams from it, so results reproduce
// bit-for-bit across runs and machines.
//
// The generator formulas (splitmix64 mixing, xoshiro256** step and
// output, fork seeding) are templates over the integer type, so the
// batched samplers (stats/batch_simd.hpp) run the very same expressions
// on GCC vectors of uint64 lanes.  They use only wrapping unsigned
// arithmetic, shifts and bitwise ops, which are element-wise identical
// in both forms.
#pragma once

#include <cstdint>

namespace sttram {

/// Counter-based 64-bit mixer (splitmix64).  Used both as a fast PRNG and
/// to derive decorrelated child seeds from a master seed.
class SplitMix64 {
 public:
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// The splitmix64 output function of an already-advanced state.
  template <class U>
  static constexpr U mix(U z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Next 64 uniformly distributed bits.
  constexpr std::uint64_t next_u64() { return mix(state_ += kGamma); }

 private:
  std::uint64_t state_;
};

/// xoshiro256** — the workhorse generator.  Small, fast, and passes BigCrush;
/// seeded through SplitMix64 so a zero seed is safe.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) {
    for (int i = 0; i < 4; ++i) s_[i] = seed_word(seed, i);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next_u64(); }

  std::uint64_t next_u64() {
    const std::uint64_t result = scramble(s_[1]);
    step(s_[0], s_[1], s_[2], s_[3]);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Derives a decorrelated child generator; `stream` distinguishes
  /// siblings derived from the same parent.
  [[nodiscard]] Xoshiro256 fork(std::uint64_t stream) const {
    return Xoshiro256(fork_seed(stream));
  }

  /// The seed fork(stream) builds its child from.
  template <class U>
  [[nodiscard]] U fork_seed(U stream) const {
    return SplitMix64::mix((s_[0] ^ (s_[3] + SplitMix64::kGamma *
                                                 (stream + 1))) +
                           SplitMix64::kGamma);
  }

  /// State word `i` (0..3) of the generator built from `seed` (the
  /// splitmix64 sequence of `seed`).
  template <class U>
  static constexpr U seed_word(U seed, int i) {
    return SplitMix64::mix(
        seed + SplitMix64::kGamma * static_cast<std::uint64_t>(i + 1));
  }

  /// The ** output of state word s1: rotl(s1 * 5, 7) * 9, the multiplies
  /// written as shift-adds.
  template <class U>
  static constexpr U scramble(U s1) {
    const U x = (s1 << 2) + s1;
    const U r = rotl(x, 7);
    return (r << 3) + r;
  }

  /// One xoshiro256 state transition.
  template <class U>
  static constexpr void step(U& s0, U& s1, U& s2, U& s3) {
    const U t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = rotl(s3, 45);
  }

 private:
  template <class U>
  static constexpr U rotl(U x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4] = {};
};

}  // namespace sttram
