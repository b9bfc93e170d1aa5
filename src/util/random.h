// Deterministic pseudo-random generation used by workload generators,
// property tests and benchmarks. Seeded xoshiro256**: fast, reproducible
// across platforms (unlike std::mt19937 distributions).
#ifndef PDTSTORE_UTIL_RANDOM_H_
#define PDTSTORE_UTIL_RANDOM_H_

#include <cstdint>
#include <string>

namespace pdtstore {

/// Deterministic 64-bit PRNG (xoshiro256**) with convenience samplers.
class Random {
 public:
  /// Seeds the generator; the same seed yields the same sequence on any
  /// platform.
  explicit Random(uint64_t seed = 42);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n);

  /// Uniform in [lo, hi] inclusive.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p.
  bool Bernoulli(double p);

  /// Random lowercase ASCII string of the given length.
  std::string NextString(size_t length);

 private:
  uint64_t s_[4];
};

}  // namespace pdtstore

#endif  // PDTSTORE_UTIL_RANDOM_H_
