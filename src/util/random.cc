#include "util/random.h"

namespace pdtstore {

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// splitmix64, used to expand the seed into generator state.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Random::Random(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Random::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Random::Uniform(uint64_t n) { return n == 0 ? 0 : Next() % n; }

int64_t Random::UniformRange(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
}

double Random::NextDouble() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

bool Random::Bernoulli(double p) { return NextDouble() < p; }

std::string Random::NextString(size_t length) {
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    out.push_back(static_cast<char>('a' + Uniform(26)));
  }
  return out;
}

}  // namespace pdtstore
