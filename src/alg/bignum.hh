/**
 * @file
 * Arbitrary-precision unsigned integers and modular arithmetic: the
 * public-key cryptography substrate (RSA / Diffie-Hellman / DSA).
 * The paper's crypto function drives the BF-2 PKA accelerator or the
 * host's QAT through OpenSSL; our functional equivalent computes the
 * same modular exponentiations with a from-scratch bignum.
 */

#ifndef HALSIM_ALG_BIGNUM_HH
#define HALSIM_ALG_BIGNUM_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/rng.hh"

namespace halsim::alg {

struct BigUintDivMod;

/**
 * Unsigned big integer, little-endian 32-bit limbs, always
 * normalized (no leading zero limbs; zero is an empty limb vector).
 */
class BigUint
{
  public:
    BigUint() = default;
    explicit BigUint(std::uint64_t v);

    /** Parse from big-endian hex (no 0x prefix, case-insensitive). */
    static BigUint fromHex(const std::string &hex);

    /** Parse from big-endian bytes. */
    static BigUint fromBytes(std::span<const std::uint8_t> bytes);

    /** Uniform random value with exactly @p bits bits (MSB set). */
    static BigUint randomBits(unsigned bits, halsim::Rng &rng);

    /** Uniform random value in [1, n-1]. @pre n >= 2. */
    static BigUint randomBelow(const BigUint &n, halsim::Rng &rng);

    std::string toHex() const;
    std::vector<std::uint8_t> toBytes() const;

    bool isZero() const { return limbs_.empty(); }
    bool isOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }

    /** Number of significant bits (0 for zero). */
    unsigned bitLength() const;

    /** Value of bit @p i (0 = LSB). */
    bool bit(unsigned i) const;

    /** Low 64 bits. */
    std::uint64_t toUint64() const;

    int compare(const BigUint &o) const;
    bool operator==(const BigUint &o) const { return compare(o) == 0; }
    bool operator!=(const BigUint &o) const { return compare(o) != 0; }
    bool operator<(const BigUint &o) const { return compare(o) < 0; }
    bool operator<=(const BigUint &o) const { return compare(o) <= 0; }
    bool operator>(const BigUint &o) const { return compare(o) > 0; }
    bool operator>=(const BigUint &o) const { return compare(o) >= 0; }

    BigUint operator+(const BigUint &o) const;
    /** @pre *this >= o (unsigned subtraction). */
    BigUint operator-(const BigUint &o) const;
    BigUint operator*(const BigUint &o) const;
    BigUint operator<<(unsigned n) const;
    BigUint operator>>(unsigned n) const;

    /** Quotient and remainder in one pass. @pre !d.isZero(). */
    BigUintDivMod divmod(const BigUint &d) const;

    BigUint operator/(const BigUint &d) const;
    BigUint operator%(const BigUint &d) const;

    /** (this ^ e) mod m: Montgomery square-and-multiply for odd m
     *  (a MontgomeryContext per call; keep one per modulus when it is
     *  reused), divmod reduction otherwise. */
    BigUint modexp(const BigUint &e, const BigUint &m) const;

    /** Modular inverse via extended Euclid; zero when none exists. */
    BigUint modinv(const BigUint &m) const;

    /** Greatest common divisor. */
    static BigUint gcd(BigUint a, BigUint b);

    /** Miller-Rabin probable-prime test with @p rounds witnesses. */
    bool isProbablePrime(halsim::Rng &rng, int rounds = 16) const;

  private:
    friend class MontgomeryContext;

    void trim();

    std::vector<std::uint32_t> limbs_;
};

/**
 * Montgomery arithmetic for one odd modulus: R^2 mod m and
 * -m^-1 mod 2^64 are computed once, so an exponentiation needs no
 * division. Works on 64-bit words (product-scanning Comba kernels
 * with 128-bit products and a dedicated squaring) in fixed stack
 * arrays, for moduli up to kMaxBits bits. The Words overloads never
 * touch the heap, for per-packet callers.
 */
class MontgomeryContext
{
  public:
    static constexpr unsigned kMaxBits = 4096;
    static constexpr std::size_t kMaxWords = kMaxBits / 64;

    /** A fixed-width operand: little-endian 64-bit words, zero above
     *  the modulus width. */
    using Words = std::array<std::uint64_t, kMaxWords>;

    /** True when @p m is odd, above 1, and at most kMaxBits bits. */
    static bool supports(const BigUint &m);

    /** @pre supports(m). */
    explicit MontgomeryContext(const BigUint &m);

    const BigUint &modulus() const { return m_; }

    /** (base ^ e) mod m; the same value as base.modexp(e, m). */
    BigUint modexp(const BigUint &base, const BigUint &e) const;

    /** out = (base ^ e) mod m with @p e as little-endian words.
     *  @pre base < m. @p out may alias @p base. */
    void modexpWords(const Words &base, std::span<const std::uint64_t> e,
                     Words &out) const;

    /** out = a * b mod m. @pre a, b < m. @p out may alias either. */
    void mulModWords(const Words &a, const Words &b, Words &out) const;

  private:
    /** OR @p x (below 2^kMaxBits) into zeroed 64-bit words. */
    static void toWords(const BigUint &x, Words &out);

    /** out = (b ^ e) mod m for b < m, the exponent's @p ebits bits
     *  read MSB first through @p bit(i). */
    template <typename BitFn>
    void powWords(const Words &b, unsigned ebits, BitFn bit,
                  Words &out) const;

    /** out = a * b / R mod m; a, b < m. @p out may alias either. */
    void montMul(const std::uint64_t *a, const std::uint64_t *b,
                 std::uint64_t *out) const;

    /** out = a * a / R mod m; a < m. @p out may alias @p a. */
    void montSqr(const std::uint64_t *a, std::uint64_t *out) const;

    BigUint m_;
    std::size_t n_ = 0;          //!< 64-bit words in m
    std::uint64_t minv_ = 0;     //!< -m^-1 mod 2^64
    Words m64_{};                //!< m
    Words r2_{};                 //!< R^2 mod m, R = 2^(64 n)
    Words r1_{};                 //!< R mod m (1 in Montgomery form)
};

/** Result pair of BigUint::divmod(). */
struct BigUintDivMod
{
    BigUint quotient;
    BigUint remainder;
};

inline BigUint
BigUint::operator/(const BigUint &d) const
{
    return divmod(d).quotient;
}

inline BigUint
BigUint::operator%(const BigUint &d) const
{
    return divmod(d).remainder;
}

/**
 * Well-known safe prime groups for DH/DSA-style operations, so the
 * crypto function need not generate primes per run.
 */
namespace groups {

/** RFC 2409 Oakley Group 1: 768-bit MODP prime (generator 2). */
BigUint oakley768();

/** A fixed 512-bit probable prime for fast unit tests. */
BigUint prime512();

} // namespace groups

} // namespace halsim::alg

#endif // HALSIM_ALG_BIGNUM_HH
