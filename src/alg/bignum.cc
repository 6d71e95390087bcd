#include "alg/bignum.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace halsim::alg {

namespace {

using Limb = std::uint32_t;
using DLimb = std::uint64_t;
constexpr unsigned kLimbBits = 32;

__extension__ typedef unsigned __int128 Wide;   // 64x64 -> 128 products

/** -m^-1 mod 2^64 for odd m, by Newton iteration. */
std::uint64_t
montInverse(std::uint64_t m0)
{
    assert(m0 & 1);
    std::uint64_t x = m0;   // m0 * m0 == 1 mod 8: 3 correct bits
    for (int i = 0; i < 5; ++i)
        x *= 2 - m0 * x;    // doubles correct bits each round
    return 0 - x;
}

} // namespace

BigUint::BigUint(std::uint64_t v)
{
    if (v != 0)
        limbs_.push_back(static_cast<Limb>(v));
    if (v >> 32)
        limbs_.push_back(static_cast<Limb>(v >> 32));
}

void
BigUint::trim()
{
    while (!limbs_.empty() && limbs_.back() == 0)
        limbs_.pop_back();
}

BigUint
BigUint::fromHex(const std::string &hex)
{
    BigUint r;
    for (char ch : hex) {
        if (ch == ' ' || ch == '_')
            continue;
        int v;
        if (ch >= '0' && ch <= '9')
            v = ch - '0';
        else if (ch >= 'a' && ch <= 'f')
            v = ch - 'a' + 10;
        else if (ch >= 'A' && ch <= 'F')
            v = ch - 'A' + 10;
        else
            throw std::invalid_argument("bad hex digit");
        r = (r << 4) + BigUint(static_cast<std::uint64_t>(v));
    }
    return r;
}

BigUint
BigUint::fromBytes(std::span<const std::uint8_t> bytes)
{
    BigUint r;
    r.limbs_.assign((bytes.size() + 3) / 4, 0);
    for (std::size_t k = 0; k < bytes.size(); ++k)   // k-th byte from the end
        r.limbs_[k / 4] |= static_cast<Limb>(bytes[bytes.size() - 1 - k])
                           << (8 * (k % 4));
    r.trim();
    return r;
}

BigUint
BigUint::randomBits(unsigned bits, halsim::Rng &rng)
{
    assert(bits > 0);
    BigUint r;
    const unsigned nlimbs = (bits + kLimbBits - 1) / kLimbBits;
    r.limbs_.resize(nlimbs);
    for (auto &l : r.limbs_)
        l = static_cast<Limb>(rng.next());
    const unsigned top = (bits - 1) % kLimbBits;
    r.limbs_.back() &= (top == 31) ? ~Limb{0} : ((Limb{1} << (top + 1)) - 1);
    r.limbs_.back() |= Limb{1} << top;   // force exact bit length
    r.trim();
    return r;
}

BigUint
BigUint::randomBelow(const BigUint &n, halsim::Rng &rng)
{
    assert(n >= BigUint(2));
    const unsigned bits = n.bitLength();
    for (;;) {
        BigUint c = randomBits(bits, rng);
        // randomBits forces the MSB; also try with it cleared for
        // uniformity over the low range.
        if (rng.chance(0.5) && bits > 1)
            c = c - (BigUint(1) << (bits - 1));
        if (!c.isZero() && c < n)
            return c;
    }
}

std::string
BigUint::toHex() const
{
    if (isZero())
        return "0";
    static const char *digits = "0123456789abcdef";
    std::string s;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
        for (int shift = 28; shift >= 0; shift -= 4)
            s.push_back(digits[(limbs_[i] >> shift) & 0xf]);
    }
    const std::size_t nz = s.find_first_not_of('0');
    return s.substr(nz);
}

std::vector<std::uint8_t>
BigUint::toBytes() const
{
    std::vector<std::uint8_t> out((bitLength() + 7) / 8);
    for (std::size_t k = 0; k < out.size(); ++k)   // k-th byte from the end
        out[out.size() - 1 - k] =
            static_cast<std::uint8_t>(limbs_[k / 4] >> (8 * (k % 4)));
    return out;
}

unsigned
BigUint::bitLength() const
{
    if (limbs_.empty())
        return 0;
    unsigned bits = static_cast<unsigned>(limbs_.size()) * kLimbBits;
    Limb top = limbs_.back();
    for (Limb probe = Limb{1} << 31; probe != 0 && !(top & probe);
         probe >>= 1) {
        --bits;
    }
    return bits;
}

bool
BigUint::bit(unsigned i) const
{
    const std::size_t limb = i / kLimbBits;
    if (limb >= limbs_.size())
        return false;
    return (limbs_[limb] >> (i % kLimbBits)) & 1;
}

std::uint64_t
BigUint::toUint64() const
{
    std::uint64_t v = 0;
    if (!limbs_.empty())
        v = limbs_[0];
    if (limbs_.size() > 1)
        v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
    return v;
}

int
BigUint::compare(const BigUint &o) const
{
    if (limbs_.size() != o.limbs_.size())
        return limbs_.size() < o.limbs_.size() ? -1 : 1;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
        if (limbs_[i] != o.limbs_[i])
            return limbs_[i] < o.limbs_[i] ? -1 : 1;
    }
    return 0;
}

BigUint
BigUint::operator+(const BigUint &o) const
{
    BigUint r;
    const std::size_t n = std::max(limbs_.size(), o.limbs_.size());
    r.limbs_.resize(n + 1, 0);
    DLimb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const DLimb a = i < limbs_.size() ? limbs_[i] : 0;
        const DLimb b = i < o.limbs_.size() ? o.limbs_[i] : 0;
        const DLimb sum = a + b + carry;
        r.limbs_[i] = static_cast<Limb>(sum);
        carry = sum >> kLimbBits;
    }
    r.limbs_[n] = static_cast<Limb>(carry);
    r.trim();
    return r;
}

BigUint
BigUint::operator-(const BigUint &o) const
{
    assert(*this >= o && "unsigned underflow");
    BigUint r;
    r.limbs_.resize(limbs_.size(), 0);
    DLimb borrow = 0;
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        const DLimb b = i < o.limbs_.size() ? o.limbs_[i] : 0;
        const DLimb diff = static_cast<DLimb>(limbs_[i]) - b - borrow;
        r.limbs_[i] = static_cast<Limb>(diff);
        borrow = (diff >> kLimbBits) & 1;
    }
    r.trim();
    return r;
}

BigUint
BigUint::operator*(const BigUint &o) const
{
    if (isZero() || o.isZero())
        return BigUint();
    BigUint r;
    r.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        DLimb carry = 0;
        for (std::size_t j = 0; j < o.limbs_.size(); ++j) {
            const DLimb cur = r.limbs_[i + j] +
                              static_cast<DLimb>(limbs_[i]) * o.limbs_[j] +
                              carry;
            r.limbs_[i + j] = static_cast<Limb>(cur);
            carry = cur >> kLimbBits;
        }
        r.limbs_[i + o.limbs_.size()] += static_cast<Limb>(carry);
    }
    r.trim();
    return r;
}

BigUint
BigUint::operator<<(unsigned n) const
{
    if (isZero() || n == 0)
        return *this;
    const unsigned limb_shift = n / kLimbBits;
    const unsigned bit_shift = n % kLimbBits;
    BigUint r;
    r.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        r.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
        if (bit_shift != 0) {
            r.limbs_[i + limb_shift + 1] |=
                static_cast<Limb>(static_cast<DLimb>(limbs_[i]) >>
                                  (kLimbBits - bit_shift));
        }
    }
    r.trim();
    return r;
}

BigUint
BigUint::operator>>(unsigned n) const
{
    const unsigned limb_shift = n / kLimbBits;
    const unsigned bit_shift = n % kLimbBits;
    if (limb_shift >= limbs_.size())
        return BigUint();
    BigUint r;
    r.limbs_.assign(limbs_.size() - limb_shift, 0);
    for (std::size_t i = 0; i < r.limbs_.size(); ++i) {
        r.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
        if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
            r.limbs_[i] |= static_cast<Limb>(
                static_cast<DLimb>(limbs_[i + limb_shift + 1])
                << (kLimbBits - bit_shift));
        }
    }
    r.trim();
    return r;
}

BigUintDivMod
BigUint::divmod(const BigUint &d) const
{
    assert(!d.isZero() && "division by zero");
    BigUintDivMod res;
    if (*this < d) {
        res.remainder = *this;
        return res;
    }

    // Single-limb divisor: simple schoolbook pass.
    if (d.limbs_.size() == 1) {
        const DLimb v = d.limbs_[0];
        res.quotient.limbs_.assign(limbs_.size(), 0);
        DLimb rem = 0;
        for (std::size_t i = limbs_.size(); i-- > 0;) {
            const DLimb cur = (rem << kLimbBits) | limbs_[i];
            res.quotient.limbs_[i] = static_cast<Limb>(cur / v);
            rem = cur % v;
        }
        res.quotient.trim();
        res.remainder = BigUint(static_cast<std::uint64_t>(rem));
        return res;
    }

    // Knuth TAOCP vol. 2, Algorithm D (base 2^32).
    const std::size_t n = d.limbs_.size();
    const std::size_t m = limbs_.size() - n;

    // D1: normalize so the divisor's top limb has its MSB set.
    unsigned shift = 0;
    for (Limb top = d.limbs_.back(); !(top & 0x80000000u); top <<= 1)
        ++shift;
    const BigUint vn = d << shift;
    BigUint un = *this << shift;
    un.limbs_.resize(limbs_.size() + 1, 0);   // u has m+n+1 limbs

    const std::vector<Limb> &v = vn.limbs_;
    std::vector<Limb> &u = un.limbs_;
    res.quotient.limbs_.assign(m + 1, 0);

    for (std::size_t j = m + 1; j-- > 0;) {
        // D3: estimate qhat from the top two dividend limbs.
        const DLimb num =
            (static_cast<DLimb>(u[j + n]) << kLimbBits) | u[j + n - 1];
        DLimb qhat = num / v[n - 1];
        DLimb rhat = num % v[n - 1];
        while (qhat >= (DLimb{1} << kLimbBits) ||
               qhat * v[n - 2] >
                   ((rhat << kLimbBits) | u[j + n - 2])) {
            --qhat;
            rhat += v[n - 1];
            if (rhat >= (DLimb{1} << kLimbBits))
                break;
        }

        // D4: multiply-subtract qhat * v from u[j .. j+n].
        std::int64_t borrow = 0;
        DLimb carry = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const DLimb prod = qhat * v[i] + carry;
            carry = prod >> kLimbBits;
            const std::int64_t diff =
                static_cast<std::int64_t>(u[i + j]) -
                static_cast<std::int64_t>(prod & 0xffffffffu) + borrow;
            u[i + j] = static_cast<Limb>(diff);
            borrow = diff >> kLimbBits;   // arithmetic shift: 0 or -1
        }
        const std::int64_t diff =
            static_cast<std::int64_t>(u[j + n]) -
            static_cast<std::int64_t>(carry) + borrow;
        u[j + n] = static_cast<Limb>(diff);

        // D5/D6: qhat was (rarely) one too large; add the divisor
        // back and decrement.
        if (diff < 0) {
            --qhat;
            DLimb add_carry = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const DLimb sum =
                    static_cast<DLimb>(u[i + j]) + v[i] + add_carry;
                u[i + j] = static_cast<Limb>(sum);
                add_carry = sum >> kLimbBits;
            }
            u[j + n] = static_cast<Limb>(u[j + n] + add_carry);
        }
        res.quotient.limbs_[j] = static_cast<Limb>(qhat);
    }

    // D8: the remainder is u[0..n) shifted back.
    BigUint rem;
    rem.limbs_.assign(u.begin(), u.begin() + static_cast<long>(n));
    rem.trim();
    res.remainder = rem >> shift;
    res.quotient.trim();
    return res;
}

BigUint
BigUint::modexp(const BigUint &e, const BigUint &m) const
{
    assert(!m.isZero());
    if (m == BigUint(1))
        return BigUint();
    if (e.isZero())
        return BigUint(1);
    if (MontgomeryContext::supports(m))
        return MontgomeryContext(m).modexp(*this, e);

    // Even (or oversized) modulus: plain square-and-multiply with
    // divmod reduction.
    BigUint result(1);
    BigUint b = *this < m ? *this : *this % m;
    for (unsigned i = 0; i < e.bitLength(); ++i) {
        if (e.bit(i))
            result = (result * b) % m;
        b = (b * b) % m;
    }
    return result;
}

BigUint
BigUint::modinv(const BigUint &m) const
{
    // Extended Euclid on (a, m) tracking x where a*x = g (mod m).
    // Signs handled by tracking (value, negative) pairs.
    BigUint a = *this % m;
    if (a.isZero())
        return BigUint();
    BigUint r0 = m, r1 = a;
    BigUint s0(0), s1(1);
    bool neg0 = false, neg1 = false;
    while (!r1.isZero()) {
        const BigUintDivMod dm = r0.divmod(r1);
        // s2 = s0 - q * s1 (signed).
        const BigUint qs1 = dm.quotient * s1;
        BigUint s2;
        bool neg2;
        if (neg0 == !neg1) {
            // s0 and q*s1 have the same effective sign after the minus:
            // s0 - q*s1 where signs differ -> addition.
            s2 = s0 + qs1;
            neg2 = neg0;
        } else if (s0 >= qs1) {
            s2 = s0 - qs1;
            neg2 = neg0;
        } else {
            s2 = qs1 - s0;
            neg2 = !neg0;
        }
        r0 = r1;
        r1 = dm.remainder;
        s0 = s1;
        neg0 = neg1;
        s1 = std::move(s2);
        neg1 = neg2;
    }
    if (r0 != BigUint(1))
        return BigUint();   // not invertible
    if (neg0)
        return m - (s0 % m);
    return s0 % m;
}

BigUint
BigUint::gcd(BigUint a, BigUint b)
{
    while (!b.isZero()) {
        BigUint r = a % b;
        a = std::move(b);
        b = std::move(r);
    }
    return a;
}

bool
BigUint::isProbablePrime(halsim::Rng &rng, int rounds) const
{
    if (*this < BigUint(2))
        return false;
    for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull,
                            19ull, 23ull, 29ull, 31ull, 37ull}) {
        const BigUint bp(p);
        if (*this == bp)
            return true;
        if ((*this % bp).isZero())
            return false;
    }
    // Write n-1 = d * 2^r.
    const BigUint n1 = *this - BigUint(1);
    BigUint d = n1;
    unsigned r = 0;
    while (!d.isOdd()) {
        d = d >> 1;
        ++r;
    }
    for (int i = 0; i < rounds; ++i) {
        const BigUint a = randomBelow(*this, rng);
        BigUint x = a.modexp(d, *this);
        if (x == BigUint(1) || x == n1)
            continue;
        bool witness = true;
        for (unsigned j = 1; j < r; ++j) {
            x = x.modexp(BigUint(2), *this);
            if (x == n1) {
                witness = false;
                break;
            }
        }
        if (witness)
            return false;
    }
    return true;
}

bool
MontgomeryContext::supports(const BigUint &m)
{
    // bitLength() >= 2 stands in for m > 1 without building a BigUint
    // temporary, so the assert in the constructor allocates nothing.
    return m.isOdd() && m.bitLength() >= 2 && m.bitLength() <= kMaxBits;
}

MontgomeryContext::MontgomeryContext(const BigUint &m) : m_(m)
{
    assert(supports(m));
    n_ = (m.limbs_.size() + 1) / 2;
    toWords(m, m64_);
    minv_ = montInverse(m64_[0]);
    toWords((BigUint(1) << static_cast<unsigned>(128 * n_)) % m, r2_);
    Words one{};
    one[0] = 1;
    montMul(one.data(), r2_.data(), r1_.data());
}

void
MontgomeryContext::toWords(const BigUint &x, Words &out)
{
    for (std::size_t i = 0; i < x.limbs_.size(); ++i)
        out[i / 2] |= static_cast<std::uint64_t>(x.limbs_[i])
                      << (32 * (i % 2));
}

namespace {

/** Crypto's 512-bit prime: the one width compiled with a fixed count. */
constexpr std::size_t kFixedWords = 8;

/** A 192-bit column accumulator: 128 low bits and a carry word. */
struct Accumulator
{
    Wide lo = 0;
    std::uint64_t hi = 0;

    void
    add(Wide p)
    {
        lo += p;
        hi += lo < p;
    }

    void
    mac(std::uint64_t x, std::uint64_t y)
    {
        add(static_cast<Wide>(x) * y);
    }

    /** Take the low word and shift the accumulator down one word. */
    std::uint64_t
    shift()
    {
        const auto w = static_cast<std::uint64_t>(lo);
        lo = lo >> 64 | static_cast<Wide>(hi) << 64;
        hi = 0;
        return w;
    }
};

/**
 * Product-scanning (Comba) Montgomery reduction: out = x * R^-1 mod m
 * for the 2n-word product x < m * R whose column i (the terms
 * x_j * y_(i-j) for j in [lo, i - lo], lo = max(0, i - n + 1))
 * @p column adds to the accumulator. Each column also takes its
 * reduction terms q_j * m_(i-j), so the accumulator is the only
 * running state. @p out is written after the last call to @p column,
 * so it may alias the operands. @p N is the word count, or 0 to use
 * @p n.
 */
template <std::size_t N, typename Column>
void
combaRedc(std::size_t n, const std::uint64_t *m, std::uint64_t minv,
          Column column, std::uint64_t *out)
{
    if constexpr (N != 0)
        n = N;
    constexpr std::size_t kWords =
        N != 0 ? N : MontgomeryContext::kMaxWords;
    std::array<std::uint64_t, kWords> q{};   // reduction multipliers
    std::array<std::uint64_t, kWords> r{};   // x * R^-1, below 2m
    Accumulator acc;
    for (std::size_t i = 0; i < n; ++i) {
        column(acc, 0, i);
        for (std::size_t j = 0; j < i; ++j)
            acc.mac(q[j], m[i - j]);
        q[i] = static_cast<std::uint64_t>(acc.lo) * minv;
        acc.mac(q[i], m[0]);   // clears the low word
        acc.shift();
    }
    for (std::size_t i = n; i < 2 * n; ++i) {
        column(acc, i - n + 1, i);
        for (std::size_t j = i - n + 1; j < n; ++j)
            acc.mac(q[j], m[i - j]);
        r[i - n] = acc.shift();
    }

    // r plus the carry word below 2^(64 n) is under 2m; subtract m
    // once if needed.
    bool ge = acc.lo != 0;
    if (!ge) {
        ge = true;
        for (std::size_t i = n; i-- > 0;) {
            if (r[i] != m[i]) {
                ge = r[i] > m[i];
                break;
            }
        }
    }
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t sub = ge ? m[i] : 0;
        const Wide diff = static_cast<Wide>(r[i]) - sub - borrow;
        out[i] = static_cast<std::uint64_t>(diff);
        borrow = static_cast<std::uint64_t>(diff >> 64) & 1;
    }
}

} // namespace

void
MontgomeryContext::montMul(const std::uint64_t *a, const std::uint64_t *b,
                           std::uint64_t *out) const
{
    const auto column = [a, b](Accumulator &acc, std::size_t lo,
                               std::size_t i) {
        for (std::size_t j = lo; j <= i - lo; ++j)
            acc.mac(a[j], b[i - j]);
    };
    if (n_ == kFixedWords)
        combaRedc<kFixedWords>(n_, m64_.data(), minv_, column, out);
    else
        combaRedc<0>(n_, m64_.data(), minv_, column, out);
}

void
MontgomeryContext::montSqr(const std::uint64_t *a, std::uint64_t *out) const
{
    // a_j * a_k and a_k * a_j are one product, added twice.
    const auto column = [a](Accumulator &acc, std::size_t lo,
                            std::size_t i) {
        for (std::size_t j = lo; 2 * j < i; ++j) {
            const Wide p = static_cast<Wide>(a[j]) * a[i - j];
            acc.add(p);
            acc.add(p);
        }
        if (i % 2 == 0)
            acc.mac(a[i / 2], a[i / 2]);
    };
    if (n_ == kFixedWords)
        combaRedc<kFixedWords>(n_, m64_.data(), minv_, column, out);
    else
        combaRedc<0>(n_, m64_.data(), minv_, column, out);
}

template <typename BitFn>
void
MontgomeryContext::powWords(const Words &b, unsigned ebits, BitFn bit,
                            Words &out) const
{
    // Into Montgomery form: b * R^2 / R = b * R mod m.
    Words bm{};
    montMul(b.data(), r2_.data(), bm.data());

    Words acc = r1_;
    for (unsigned i = ebits; i-- > 0;) {
        montSqr(acc.data(), acc.data());
        if (bit(i))
            montMul(acc.data(), bm.data(), acc.data());
    }
    // Out of Montgomery form: multiply by 1.
    Words one{};
    one[0] = 1;
    montMul(acc.data(), one.data(), out.data());
    std::fill(out.begin() + static_cast<long>(n_), out.end(), 0);
}

BigUint
MontgomeryContext::modexp(const BigUint &base, const BigUint &e) const
{
    if (e.isZero())
        return BigUint(1);
    const BigUint reduced = base < m_ ? BigUint() : base % m_;
    Words b{};
    toWords(base < m_ ? base : reduced, b);
    Words acc{};
    powWords(b, e.bitLength(), [&e](unsigned i) { return e.bit(i); },
             acc);

    BigUint out;
    out.limbs_.resize(2 * n_);
    for (std::size_t i = 0; i < 2 * n_; ++i)
        out.limbs_[i] = static_cast<Limb>(acc[i / 2] >> (32 * (i % 2)));
    out.trim();
    return out;
}

// halint: hotpath
void
MontgomeryContext::modexpWords(const Words &base,
                               std::span<const std::uint64_t> e,
                               Words &out) const
{
    std::size_t top = e.size();
    while (top > 0 && e[top - 1] == 0)
        --top;
    if (top == 0) {
        out = Words{};
        out[0] = 1;
        return;
    }
    const unsigned ebits = static_cast<unsigned>(
        64 * top - static_cast<unsigned>(std::countl_zero(e[top - 1])));
    powWords(base, ebits,
             [e](unsigned i) { return (e[i / 64] >> (i % 64)) & 1; }, out);
}

// halint: hotpath
void
MontgomeryContext::mulModWords(const Words &a, const Words &b,
                               Words &out) const
{
    // a * b / R, then * R^2 / R: a * b mod m.
    Words t{};
    montMul(a.data(), b.data(), t.data());
    montMul(t.data(), r2_.data(), out.data());
    std::fill(out.begin() + static_cast<long>(n_), out.end(), 0);
}

namespace groups {

BigUint
oakley768()
{
    // RFC 2409 First Oakley Group (768-bit MODP), generator 2.
    static const BigUint p = BigUint::fromHex(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
        "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
        "4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF");
    return p;
}

BigUint
prime512()
{
    // The first probable prime at or above the odd 512-bit start
    // randomBits(512) draws from Rng(0x512512), committed as a
    // constant so that no modexp runs to find it (test_alg_bignum
    // repeats the search, bounded by this value).
    static const BigUint p = BigUint::fromHex(
        "CFECD491AEB2AAF04D590A1BCC4BBE11C2E43401B7967208C6D225F366682FD2"
        "7FA549D54AC51E5CA684E10E5952D57A77469EEE272017D578300FC9407E31D9");
    return p;
}

} // namespace groups

} // namespace halsim::alg
