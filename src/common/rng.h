// Deterministic pseudo-random number generation (xoshiro256**).
//
// All randomness in AlayaDB (synthetic workloads, index construction, sampling)
// flows through Rng so that tests and benchmarks are reproducible run-to-run.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace alaya {

/// SplitMix64 finalizer: a high-quality, stateless 64->64-bit mixer. Use it to
/// hash small structured inputs (ids, step counters) into well-spread values —
/// e.g. Mix64(Mix64(a) ^ b) for a two-field hash — instead of ad-hoc
/// multiply/modulo schemes, which collide on regular inputs.
constexpr uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// xoshiro256** generator with SplitMix64 seeding. Not thread-safe; create one
/// per thread (see Fork()).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();
  /// Uniform float in [0, 1).
  float UniformFloat() { return static_cast<float>(Uniform()); }
  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t UniformInt(uint64_t bound);

  /// Standard normal via Box-Muller (caches the second deviate).
  double Gaussian();
  float GaussianFloat() { return static_cast<float>(Gaussian()); }
  /// Log-normal with the given parameters of the underlying normal.
  double LogNormal(double mu, double sigma) { return std::exp(mu + sigma * Gaussian()); }

  /// Fills `out[0..n)` with i.i.d. N(0, 1) floats.
  void FillGaussian(float* out, size_t n);

  /// Returns k distinct indices drawn uniformly from [0, n). k <= n required.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = UniformInt(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Derives an independent child generator (for per-thread use).
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace alaya
