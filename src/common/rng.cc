#include "src/common/rng.h"

#include <cassert>

namespace alaya {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  return Mix64(*state += 0x9e3779b97f4a7c15ULL);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
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

double Rng::Uniform() {
  // 53 random mantissa bits.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::UniformInt(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1, u2;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

void Rng::FillGaussian(float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = GaussianFloat();
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  assert(k <= n);
  // Floyd's algorithm: O(k) expected memory, no O(n) permutation.
  std::vector<size_t> out;
  out.reserve(k);
  std::vector<bool> seen;
  if (k * 16 >= n) {
    // Dense case: partial Fisher-Yates over an index array.
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = i;
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + UniformInt(n - i);
      std::swap(idx[i], idx[j]);
      out.push_back(idx[i]);
    }
    return out;
  }
  seen.assign(n, false);
  for (size_t j = n - k; j < n; ++j) {
    size_t t = UniformInt(j + 1);
    if (seen[t]) t = j;
    seen[t] = true;
    out.push_back(t);
  }
  return out;
}

Rng Rng::Fork() { return Rng(Next() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace alaya
