#include "support/rng.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "support/logging.h"

namespace gencache {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

bool
parseSeed(const std::string &text, std::uint64_t &seed)
{
    // strtoull itself would skip blanks, accept a sign, and wrap a
    // negative value, so the first character must be a digit.
    if (text.empty() || text[0] < '0' || text[0] > '9') {
        return false;
    }
    char *end = nullptr;
    errno = 0;
    seed = std::strtoull(text.c_str(), &end, 10);
    return *end == '\0' && errno != ERANGE;
}

namespace {

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : state_) {
        word = splitmix64(sm);
    }
}

std::uint64_t
Xoshiro256::next()
{
    std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

Rng::Rng(std::uint64_t seed)
    : gen_(seed)
{
}

Rng
Rng::fork()
{
    return Rng(gen_.next());
}

double
Rng::uniform01()
{
    // 53-bit mantissa: uniform in [0, 1).
    return static_cast<double>(gen_.next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform01();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi) {
        GENCACHE_PANIC("uniformInt: empty range [{}, {}]", lo, hi);
    }
    std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) { // full 64-bit range
        return static_cast<std::int64_t>(gen_.next());
    }
    // Rejection sampling to avoid modulo bias.
    std::uint64_t limit = ~0ULL - (~0ULL % span);
    std::uint64_t draw;
    do {
        draw = gen_.next();
    } while (draw >= limit);
    return lo + static_cast<std::int64_t>(draw % span);
}

bool
Rng::bernoulli(double p)
{
    return uniform01() < p;
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1, u2;
    do {
        u1 = uniform01();
    } while (u1 <= 0.0);
    u2 = uniform01();
    double radius = std::sqrt(-2.0 * std::log(u1));
    double angle = 2.0 * M_PI * u2;
    cachedNormal_ = radius * std::sin(angle);
    hasCachedNormal_ = true;
    return radius * std::cos(angle);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

double
Rng::exponential(double mean)
{
    double u;
    do {
        u = uniform01();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

std::uint64_t
Rng::bits()
{
    return gen_.next();
}

DiscreteSampler::DiscreteSampler(const std::vector<double> &weights)
{
    std::size_t n = weights.size();
    if (n == 0) {
        GENCACHE_PANIC("DiscreteSampler: empty weight vector");
    }
    double total = 0.0;
    for (double w : weights) {
        if (w < 0.0 || !std::isfinite(w)) {
            GENCACHE_PANIC("DiscreteSampler: invalid weight {}", w);
        }
        total += w;
    }
    if (total <= 0.0) {
        GENCACHE_PANIC("DiscreteSampler: all weights are zero");
    }

    normalized_.resize(n);
    prob_.resize(n);
    alias_.assign(n, 0);

    std::vector<double> scaled(n);
    for (std::size_t i = 0; i < n; ++i) {
        normalized_[i] = weights[i] / total;
        scaled[i] = normalized_[i] * static_cast<double>(n);
    }

    std::vector<std::uint32_t> small, large;
    small.reserve(n);
    large.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (scaled[i] < 1.0) {
            small.push_back(static_cast<std::uint32_t>(i));
        } else {
            large.push_back(static_cast<std::uint32_t>(i));
        }
    }

    while (!small.empty() && !large.empty()) {
        std::uint32_t s = small.back();
        small.pop_back();
        std::uint32_t l = large.back();
        large.pop_back();
        prob_[s] = scaled[s];
        alias_[s] = l;
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        if (scaled[l] < 1.0) {
            small.push_back(l);
        } else {
            large.push_back(l);
        }
    }
    for (std::uint32_t i : large) {
        prob_[i] = 1.0;
    }
    for (std::uint32_t i : small) {
        prob_[i] = 1.0; // numerical leftovers
    }
}

std::size_t
DiscreteSampler::sample(Rng &rng) const
{
    std::size_t column =
        static_cast<std::size_t>(rng.uniformInt(0,
            static_cast<std::int64_t>(prob_.size()) - 1));
    if (rng.uniform01() < prob_[column]) {
        return column;
    }
    return alias_[column];
}

namespace {

std::vector<double>
zipfWeights(std::size_t n, double s)
{
    if (n == 0) {
        GENCACHE_PANIC("ZipfSampler: n must be positive");
    }
    std::vector<double> weights(n);
    for (std::size_t r = 1; r <= n; ++r) {
        weights[r - 1] = 1.0 / std::pow(static_cast<double>(r), s);
    }
    return weights;
}

} // namespace

ZipfSampler::ZipfSampler(std::size_t n, double s)
    : sampler_(zipfWeights(n, s))
{
}

std::size_t
ZipfSampler::sample(Rng &rng) const
{
    return sampler_.sample(rng) + 1;
}

} // namespace gencache
