#include "util/rng.hh"

#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "util/memo.hh"

namespace tps {

uint64_t
stableHash64(std::string_view bytes)
{
    // FNV-1a, 64-bit variant.
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

uint64_t
hashCombine(uint64_t a, uint64_t b)
{
    // splitmix64 finalizer over the xored pair; cheap and well mixed.
    uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
cellSeed(std::string_view workload, double scale, uint64_t footprint_bytes)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(scale));
    std::memcpy(&bits, &scale, sizeof(bits));
    return hashCombine(hashCombine(stableHash64(workload), bits),
                       footprint_bytes);
}

namespace {

/**
 * Generalized harmonic number H(n, theta) = sum_{i=1..n} 1/i^theta,
 * computed exactly up to a cap and extended with the Euler-Maclaurin
 * integral approximation beyond it so construction stays O(1)-ish for
 * billion-element universes.
 */
constexpr uint64_t kExactZetaCap = 1u << 20;

/** Normalisers by (n, theta's bit pattern), built once per process. */
util::Memo<std::pair<uint64_t, uint64_t>, double> &
zetaMemo()
{
    static util::Memo<std::pair<uint64_t, uint64_t>, double> memo;
    return memo;
}

} // namespace

double
ZipfSampler::zeta(uint64_t n, double theta)
{
    return zetaMemo().get({n, std::bit_cast<uint64_t>(theta)},
                          [&] { return zetaSum(n, theta); });
}

uint64_t
ZipfSampler::zetaBuilds()
{
    return zetaMemo().builds();
}

double
ZipfSampler::zetaSum(uint64_t n, double theta)
{
    uint64_t exact = n < kExactZetaCap ? n : kExactZetaCap;
    double sum = 0.0;
    for (uint64_t i = 1; i <= exact; ++i)
        sum += std::pow(1.0 / static_cast<double>(i), theta);
    if (n > exact) {
        // Integral tail: int_{exact}^{n} x^-theta dx.
        double a = static_cast<double>(exact);
        double b = static_cast<double>(n);
        if (theta == 1.0) {
            sum += std::log(b / a);
        } else {
            sum += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) /
                   (1.0 - theta);
        }
    }
    return sum;
}

ZipfSampler::ZipfSampler(uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    tps_assert(n_ > 0);
    if (theta_ <= 0.0) {
        // Degenerate to uniform; sample() special-cases this.
        alpha_ = zetan_ = eta_ = zeta2_ = 0.0;
        return;
    }
    alpha_ = 1.0 / (1.0 - theta_);
    zetan_ = zeta(n_, theta_);
    zeta2_ = zetaSum(2, theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2_ / zetan_);
}

uint64_t
ZipfSampler::sample(Pcg32 &rng) const
{
    if (theta_ <= 0.0)
        return rng.below64(n_);
    // Standard YCSB/Gray et al. quick Zipf sampling.
    double u = rng.uniform();
    double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 1;
    double v = static_cast<double>(n_) *
               std::pow(eta_ * u - eta_ + 1.0, alpha_);
    uint64_t r = static_cast<uint64_t>(v);
    return r >= n_ ? n_ - 1 : r;
}

} // namespace tps
