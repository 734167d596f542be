#include "common/rng.hpp"

#include <cmath>

namespace psmgen::common {

namespace {
std::uint64_t splitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t rotl64(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitMix64(sm);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl64(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl64(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  // Rejection sampling to remove modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) {
  return lo + uniform(hi - lo + 1);
}

double Rng::uniformReal() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::gaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = uniformReal();
  } while (u1 <= 0.0);
  const double u2 = uniformReal();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  have_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::gaussian(double mean, double stddev) {
  return mean + stddev * gaussian();
}

bool Rng::chance(double probability) {
  return uniformReal() < probability;
}

BitVector Rng::bits(unsigned width) {
  BitVector v(width);
  for (unsigned base = 0; base < width; base += 64) {
    v.setField(base, std::min(64u, width - base), next());
  }
  return v;
}

}  // namespace psmgen::common
