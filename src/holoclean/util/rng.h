#ifndef HOLOCLEAN_UTIL_RNG_H_
#define HOLOCLEAN_UTIL_RNG_H_

#include <cstdint>
#include <vector>

namespace holoclean {

/// Deterministic 64-bit PRNG (xoshiro256** seeded via splitmix64).
///
/// Every randomized component in the library (error injection, SGD shuffling,
/// Gibbs sampling) takes an explicit seed and draws from this generator so
/// whole experiments are reproducible bit-for-bit.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    // splitmix64 seeding, as recommended by the xoshiro authors.
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit value.
  uint64_t Next() {
    uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Requires bound > 0.
  uint64_t Below(uint64_t bound) {
    // Debiased via rejection sampling on the top of the range.
    uint64_t threshold = (0ULL - bound) % bound;
    while (true) {
      uint64_t r = Next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double Uniform() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with success probability p.
  bool Chance(double p) { return Uniform() < p; }

  /// Samples an index proportionally to non-negative `weights`.
  /// Falls back to uniform when all weights are zero. Requires non-empty.
  /// A positive (or NaN) total draws exactly one Uniform(), the value
  /// CategoricalFromUniform then maps to an index.
  size_t Categorical(const std::vector<double>& weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    if (total <= 0.0) return Below(weights.size());
    return CategoricalFromUniform(Uniform(), weights);
  }

  /// The index Categorical(weights) picks when its draw is `u` in [0, 1):
  /// the first whose running weight sum exceeds u × total, else the last.
  /// Lets a caller draw its uniforms ahead of the weights they apply to.
  static size_t CategoricalFromUniform(double u,
                                       const std::vector<double>& weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    double r = u * total;
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
      acc += weights[i];
      if (r < acc) return i;
    }
    return weights.size() - 1;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      size_t j = Below(i);
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

  /// Picks a uniformly random element. Requires non-empty.
  template <typename T>
  const T& Pick(const std::vector<T>& items) {
    return items[Below(items.size())];
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace holoclean

#endif  // HOLOCLEAN_UTIL_RNG_H_
