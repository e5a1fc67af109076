/**
 * @file
 * Deterministic random number generation for gencache.
 *
 * Every stochastic component in the library draws from an explicitly
 * seeded Rng so that a (profile, seed) pair always reproduces the exact
 * same workload, simulation, and benchmark output. The core generator is
 * xoshiro256** seeded through splitmix64, which is both fast and has no
 * hidden global state.
 */

#ifndef GENCACHE_SUPPORT_RNG_H
#define GENCACHE_SUPPORT_RNG_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace gencache {

/** splitmix64 step: used for seeding and for cheap hash mixing. */
std::uint64_t splitmix64(std::uint64_t &state);

/** Parse all of @p text as a decimal seed. @return false for an
 *  empty string, a sign, a blank, any other non-digit, or a value
 *  past 2^64 - 1 (the command-line tools' usage errors). */
bool parseSeed(const std::string &text, std::uint64_t &seed);

/**
 * xoshiro256** pseudo random generator with explicit state.
 *
 * Satisfies the UniformRandomBitGenerator requirements so it can also be
 * plugged into <random> distributions if ever needed.
 */
class Xoshiro256
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed, expanded via splitmix64. */
    explicit Xoshiro256(std::uint64_t seed);

    /** @return the next 64 random bits. */
    std::uint64_t next();

    std::uint64_t operator()() { return next(); }

    static constexpr std::uint64_t min() { return 0; }
    static constexpr std::uint64_t max() { return ~0ULL; }

  private:
    std::array<std::uint64_t, 4> state_;
};

/**
 * Convenience facade bundling the generator with the distributions the
 * library needs. All methods are deterministic functions of the seed and
 * the call sequence.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** @return a fresh Rng whose seed is derived from this one. */
    Rng fork();

    /** @return uniformly distributed double in [0, 1). */
    double uniform01();

    /** @return uniformly distributed double in [lo, hi). */
    double uniform(double lo, double hi);

    /** @return uniformly distributed integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** @return true with probability @p p. */
    bool bernoulli(double p);

    /** @return a standard-normal sample (Box-Muller, cached pair). */
    double normal();

    /** @return a normal sample with the given mean and stddev. */
    double normal(double mean, double stddev);

    /** @return a lognormal sample: exp(N(mu, sigma)). */
    double lognormal(double mu, double sigma);

    /** @return an exponential sample with the given mean. */
    double exponential(double mean);

    /** @return raw 64 random bits. */
    std::uint64_t bits();

  private:
    Xoshiro256 gen_;
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

/**
 * O(1) sampling from an arbitrary discrete distribution using Walker's
 * alias method. Construction is O(n).
 */
class DiscreteSampler
{
  public:
    /** @param weights non-negative, not all zero. */
    explicit DiscreteSampler(const std::vector<double> &weights);

    /** @return an index in [0, size()) drawn per the weights. */
    std::size_t sample(Rng &rng) const;

    std::size_t size() const { return prob_.size(); }

    /** @return the normalized probability of index @p i. */
    double probability(std::size_t i) const { return normalized_[i]; }

  private:
    std::vector<double> prob_;
    std::vector<std::uint32_t> alias_;
    std::vector<double> normalized_;
};

/**
 * Zipf-distributed ranks 1..n with exponent s: P(r) proportional to
 * 1 / r^s. Backed by a DiscreteSampler, so sampling is O(1).
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::size_t n, double s);

    /** @return a rank in [1, n]. */
    std::size_t sample(Rng &rng) const;

    std::size_t size() const { return sampler_.size(); }

    /** @return the probability mass of rank @p r (1-based). */
    double probability(std::size_t r) const
    {
        return sampler_.probability(r - 1);
    }

  private:
    DiscreteSampler sampler_;
};

} // namespace gencache

#endif // GENCACHE_SUPPORT_RNG_H
