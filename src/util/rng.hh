/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All randomness in the library flows through seeded Pcg32 streams so that
 * every simulation and benchmark is exactly reproducible run to run.  PCG32
 * (Melissa O'Neill, "PCG: A Family of Simple Fast Space-Efficient
 * Statistically Good Algorithms for Random Number Generation") is small,
 * fast, and has independent streams selected by the sequence constant.
 */

#ifndef TPS_UTIL_RNG_HH
#define TPS_UTIL_RNG_HH

#include <cstdint>
#include <string_view>

#include "util/logging.hh"

namespace tps {

/**
 * Stable 64-bit FNV-1a hash of a byte string.  The constants are fixed
 * by the FNV specification, so the value is identical across runs,
 * platforms and build modes -- safe to persist in golden files.
 */
uint64_t stableHash64(std::string_view bytes);

/** Mix two stable hashes into one (order-sensitive). */
uint64_t hashCombine(uint64_t a, uint64_t b);

/**
 * The deterministic RNG seed for one experiment cell.
 *
 * Derived purely from what the cell simulates -- workload name, scale
 * factor (by bit pattern) and footprint override in bytes (0 = the
 * workload's default) -- never from global state, submission order or
 * thread identity.  This is what makes a parallel sweep bit-identical
 * to the same sweep run serially.  The design is not an argument: the
 * cells of one workload that differ only in design, TLB or OS knobs
 * replay one access stream, so every comparison between them is
 * paired.
 */
uint64_t cellSeed(std::string_view workload, double scale,
                  uint64_t footprint_bytes);

/** A PCG-XSH-RR 32-bit generator with a 64-bit state and stream. */
class Pcg32
{
  public:
    /** Construct from a seed and an independent stream id. */
    explicit Pcg32(uint64_t seed = 0x853c49e6748fea9bULL,
                   uint64_t stream = 0xda3e39cb94b95bdbULL)
    {
        state_ = 0;
        inc_ = (stream << 1) | 1;
        next();
        state_ += seed;
        next();
    }

    /** Next 32 uniformly distributed bits. */
    uint32_t
    next()
    {
        uint64_t old = state_;
        state_ = old * kMultiplier + inc_;
        uint32_t xorshifted =
            static_cast<uint32_t>(((old >> 18) ^ old) >> 27);
        uint32_t rot = static_cast<uint32_t>(old >> 59);
        return (xorshifted >> rot) | (xorshifted << ((-rot) & 31));
    }

    /** Next 64 uniformly distributed bits. */
    uint64_t
    next64()
    {
        return (static_cast<uint64_t>(next()) << 32) | next();
    }

    /** Uniform integer in [0, bound); bound must be nonzero. */
    uint32_t
    below(uint32_t bound)
    {
        tps_assert(bound != 0);
        // Debiased via threshold rejection.
        uint32_t threshold = (-bound) % bound;
        for (;;) {
            uint32_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform 64-bit integer in [0, bound); bound must be nonzero. */
    uint64_t
    below64(uint64_t bound)
    {
        tps_assert(bound != 0);
        uint64_t threshold = (-bound) % bound;
        for (;;) {
            uint64_t r = next64();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next64() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Skip @p delta outputs of next() in O(log delta) steps: the state
     * afterwards is the one @p delta calls to next() would leave.
     * Brown, "Random Number Generation with Arbitrary Strides" (1994):
     * square the LCG step (multiplier, increment) once per bit of
     * @p delta and fold in the steps whose bits are set.  The period
     * is 2^64, so advance(2^64 - 1) steps back by one.
     */
    void
    advance(uint64_t delta)
    {
        uint64_t mult = kMultiplier, plus = inc_;
        uint64_t acc_mult = 1, acc_plus = 0;
        for (; delta != 0; delta >>= 1) {
            if (delta & 1) {
                acc_mult *= mult;
                acc_plus = acc_plus * mult + plus;
            }
            plus *= mult + 1;
            mult *= mult;
        }
        state_ = acc_mult * state_ + acc_plus;
    }

    /** Same state and stream: the two produce the same outputs. */
    bool operator==(const Pcg32 &) const = default;

  private:
    static constexpr uint64_t kMultiplier = 6364136223846793005ULL;

    uint64_t state_;
    uint64_t inc_;
};

/**
 * A Zipf-distributed integer sampler over [0, n) with parameter theta,
 * using the Gray/Jim rejection-inversion-free CDF-table-free method for
 * moderate n (precomputes the normalization constant only, and sums it
 * once per (n, theta) per process: every sampler of a key shares it).
 *
 * Used by the DBx1000-like workload (YCSB skew) and by locality-shaped
 * synthetic SPEC generators.
 */
class ZipfSampler
{
  public:
    /** Construct for universe size @p n and skew @p theta (0 = uniform). */
    ZipfSampler(uint64_t n, double theta);

    /** Sample a value in [0, n). */
    uint64_t sample(Pcg32 &rng) const;

    uint64_t universe() const { return n_; }
    double theta() const { return theta_; }
    /** The normaliser H(n, theta) (0 when theta <= 0). */
    double zetan() const { return zetan_; }

    /** Normaliser sums computed so far in this process (tests). */
    static uint64_t zetaBuilds();

  private:
    uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;
    double zeta2_;

    /** zetaSum(n, theta), summed once per (n, theta) per process. */
    static double zeta(uint64_t n, double theta);
    /** The generalized harmonic number H(n, theta). */
    static double zetaSum(uint64_t n, double theta);
};

} // namespace tps

#endif // TPS_UTIL_RNG_HH
