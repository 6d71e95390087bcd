/**
 * @file
 * Differential tests of the payload kernels against independent
 * oracles: system zlib for DEFLATE and its zlib/gzip framing (both
 * directions), a schoolbook
 * square-and-multiply for modexp, and a naive multi-pattern scan for
 * Aho-Corasick.
 */

#include <gtest/gtest.h>
#include <zlib.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "alg/aho_corasick.hh"
#include "alg/bignum.hh"
#include "alg/corpus.hh"
#include "alg/deflate.hh"
#include "alg/zstream.hh"
#include "funcs/content.hh"
#include "sim/rng.hh"

using namespace halsim;
using alg::AhoCorasick;
using alg::BigUint;
using alg::DeflateConfig;
using alg::Match;

namespace {

using Bytes = std::vector<std::uint8_t>;

// --- DEFLATE ---------------------------------------------------------

/** Inflate @p stream with zlib; throws on any zlib error.
 *  @p window_bits picks the framing: -15 raw, 15 zlib, 31 gzip. */
Bytes
zlibInflate(const Bytes &stream, std::size_t expect,
            int window_bits = -15)
{
    z_stream zs{};
    if (inflateInit2(&zs, window_bits) != Z_OK)
        throw std::runtime_error("inflateInit2");
    Bytes out(expect + 64);
    zs.next_in = const_cast<Bytes::value_type *>(stream.data());
    zs.avail_in = static_cast<uInt>(stream.size());
    zs.next_out = out.data();
    zs.avail_out = static_cast<uInt>(out.size());
    const int rc = inflate(&zs, Z_FINISH);
    const std::string msg = zs.msg ? zs.msg : "";
    out.resize(zs.total_out);
    inflateEnd(&zs);
    if (rc != Z_STREAM_END)
        throw std::runtime_error("zlib inflate: " + std::to_string(rc) +
                                 " " + msg);
    return out;
}

/** Deflate @p data with zlib at @p level, framed as in
 *  zlibInflate(). */
Bytes
zlibDeflate(const Bytes &data, int level, int window_bits = -15)
{
    z_stream zs{};
    if (deflateInit2(&zs, level, Z_DEFLATED, window_bits, 8,
                     Z_DEFAULT_STRATEGY) != Z_OK)
        throw std::runtime_error("deflateInit2");
    Bytes out(deflateBound(&zs, static_cast<uLong>(data.size())));
    zs.next_in = const_cast<Bytes::value_type *>(data.data());
    zs.avail_in = static_cast<uInt>(data.size());
    zs.next_out = out.data();
    zs.avail_out = static_cast<uInt>(out.size());
    const int rc = deflate(&zs, Z_FINISH);
    out.resize(zs.total_out);
    deflateEnd(&zs);
    if (rc != Z_STREAM_END)
        throw std::runtime_error("zlib deflate failed");
    return out;
}

void
expectZlibInflates(const Bytes &data, const DeflateConfig &cfg)
{
    const Bytes stream = alg::deflateCompress(data, cfg);
    Bytes back;
    ASSERT_NO_THROW(back = zlibInflate(stream, data.size()))
        << "input of " << data.size() << " bytes";
    ASSERT_EQ(back, data);
}

/** Bytes with a geometric symbol distribution (P(k) = 2^-(k+1)):
 *  rare symbols get Huffman depths well past 15 bits. */
Bytes
skewedBytes(std::size_t n, Rng &rng)
{
    Bytes out(n);
    for (auto &b : out) {
        const std::uint64_t r = rng.next() | (std::uint64_t{1} << 40);
        b = static_cast<std::uint8_t>(std::countr_zero(r) * 5 + 1);
    }
    return out;
}

DeflateConfig
compConfig()
{
    DeflateConfig dc;
    dc.max_chain = funcs::CompressFunction::Config{}.max_chain;
    dc.allow_dynamic = false;
    return dc;
}

/** Bit packer for hand-built DEFLATE streams. */
class Bits
{
  public:
    void
    put(std::uint32_t v, int n)
    {
        for (int i = 0; i < n; ++i)
            putBit((v >> i) & 1u);
    }

    /** A Huffman code, MSB first. */
    void
    code(std::uint32_t c, int n)
    {
        for (int i = n - 1; i >= 0; --i)
            putBit((c >> i) & 1u);
    }

    Bytes bytes() const { return out_; }

  private:
    void
    putBit(std::uint32_t b)
    {
        if (fill_ == 0)
            out_.push_back(0);
        out_.back() |= static_cast<std::uint8_t>(b << fill_);
        fill_ = (fill_ + 1) % 8;
    }

    Bytes out_;
    int fill_ = 0;
};

/**
 * Dynamic-block header whose code-length code gives symbol 18 one
 * bit ("0") and symbols 1 and 2 two bits ("10", "11"), a complete
 * code. HLIT = 257, HDIST = 1.
 */
Bits
dynamicHeader()
{
    Bits b;
    b.put(1, 1);    // BFINAL
    b.put(2, 2);    // dynamic
    b.put(0, 5);    // HLIT - 257
    b.put(0, 5);    // HDIST - 1
    b.put(14, 4);   // HCLEN - 4: 18 entries, through symbol 1
    // Permuted order 16 17 18 0 8 7 9 6 10 5 11 4 12 3 13 2 14 1.
    const int len[18] = {0, 0, 1, 0, 0, 0, 0, 0, 0,
                         0, 0, 0, 0, 0, 0, 2, 0, 2};
    for (int l : len)
        b.put(static_cast<std::uint32_t>(l), 3);
    return b;
}

} // namespace

TEST(DeflateOracle, ZlibInflatesCompConfigPackets)
{
    const DeflateConfig dc = compConfig();
    const Bytes corpus = alg::makeSilesiaLike(1 << 18, 6);
    Rng rng(31);
    for (int i = 0; i < 300; ++i) {
        const std::size_t n = 1 + rng.uniformInt(1500);
        const std::size_t off = rng.uniformInt(corpus.size() - n);
        expectZlibInflates(Bytes(corpus.begin() + static_cast<long>(off),
                                 corpus.begin() +
                                     static_cast<long>(off + n)),
                           dc);
    }
}

TEST(DeflateOracle, ZlibInflatesDefaultConfig)
{
    Rng rng(32);
    std::vector<Bytes> inputs = {{}, {0x41}, alg::makeSilesiaLike(70000, 3)};
    Bytes random(5000), runs(100000, 0x61);
    for (auto &b : random)
        b = static_cast<std::uint8_t>(rng.next());
    inputs.push_back(random);
    inputs.push_back(runs);
    inputs.push_back(skewedBytes(20000, rng));
    for (const Bytes &in : inputs) {
        expectZlibInflates(in, DeflateConfig{});
        DeflateConfig coded;
        coded.allow_stored = false;
        expectZlibInflates(in, coded);
    }
}

TEST(DeflateOracle, ZlibInflatesSkewedLargeInputs)
{
    // 138-182 KB of geometric bytes: the literal/length trees run
    // deeper than 15 bits, so zlib accepts these dynamic blocks only
    // if length limiting keeps the code complete.
    Rng rng(33);
    for (int i = 0; i < 12; ++i) {
        const Bytes in = skewedBytes(138000 + rng.uniformInt(44000), rng);
        expectZlibInflates(in, DeflateConfig{});
    }
}

TEST(DeflateOracle, InflatesZlibOutputAtEveryLevel)
{
    Rng rng(34);
    std::vector<Bytes> inputs = {{}, alg::makeSilesiaLike(1458, 9),
                                 alg::makeSilesiaLike(100000, 10),
                                 skewedBytes(50000, rng)};
    Bytes random(3000);
    for (auto &b : random)
        b = static_cast<std::uint8_t>(rng.next());
    inputs.push_back(random);
    for (int level = 0; level <= 9; ++level)
        for (const Bytes &in : inputs)
            EXPECT_EQ(alg::deflateDecompress(zlibDeflate(in, level)), in)
                << "level " << level << ", " << in.size() << " bytes";
}

// --- zlib / gzip framing ----------------------------------------------

namespace {

std::vector<Bytes>
framingInputs()
{
    Rng rng(35);
    std::vector<Bytes> inputs = {{}, {0x41}, alg::makeSilesiaLike(1458, 11),
                                 alg::makeSilesiaLike(70000, 12),
                                 skewedBytes(20000, rng)};
    Bytes random(5000);
    for (auto &b : random)
        b = static_cast<std::uint8_t>(rng.next());
    inputs.push_back(random);
    return inputs;
}

} // namespace

TEST(ZstreamOracle, ZlibInflatesOurZlibAndGzipStreams)
{
    // windowBits 15 makes zlib check the RFC 1950 header and Adler-32
    // trailer; 31 the RFC 1952 header, CRC-32 and ISIZE.
    for (const Bytes &in : framingInputs()) {
        for (const DeflateConfig &cfg : {DeflateConfig{}, compConfig()}) {
            Bytes back;
            ASSERT_NO_THROW(
                back = zlibInflate(alg::zlibCompress(in, cfg), in.size(),
                                   15))
                << in.size() << " bytes";
            EXPECT_EQ(back, in);
            ASSERT_NO_THROW(
                back = zlibInflate(alg::gzipCompress(in, cfg), in.size(),
                                   31))
                << in.size() << " bytes";
            EXPECT_EQ(back, in);
        }
        EXPECT_EQ(alg::adler32(in),
                  ::adler32(1, in.data(), static_cast<uInt>(in.size())));
        EXPECT_EQ(alg::crc32(in),
                  ::crc32(0, in.data(), static_cast<uInt>(in.size())));
    }
}

TEST(ZstreamOracle, DecodesZlibStreamsAtEveryLevel)
{
    const std::vector<Bytes> inputs = framingInputs();
    for (int level = 0; level <= 9; ++level) {
        for (const Bytes &in : inputs) {
            EXPECT_EQ(alg::zlibDecompress(zlibDeflate(in, level, 15)), in)
                << "zlib level " << level << ", " << in.size()
                << " bytes";
            EXPECT_EQ(alg::gzipDecompress(zlibDeflate(in, level, 31)), in)
                << "gzip level " << level << ", " << in.size()
                << " bytes";
        }
    }
}

TEST(DeflateOracle, RejectsOverSubscribedCodeLengthCode)
{
    Bits b;
    b.put(1, 1);
    b.put(2, 2);
    b.put(0, 5);
    b.put(0, 5);
    b.put(0, 4);   // 4 entries: symbols 16 17 18 0
    for (int l : {1, 1, 1, 0})
        b.put(static_cast<std::uint32_t>(l), 3);
    b.put(0, 16);
    try {
        alg::deflateDecompress(b.bytes());
        FAIL() << "over-subscribed code accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("over-subscribed"),
                  std::string::npos)
            << e.what();
    }
}

TEST(DeflateOracle, RejectsIncompleteLiteralCode)
{
    // Literal 0 and end-of-block at two bits each: half the code space.
    Bits b = dynamicHeader();
    b.code(3, 2);       // length 2 (symbol 0)
    b.code(0, 1);       // 18: 138 zeros
    b.put(127, 7);
    b.code(0, 1);       // 18: 117 zeros
    b.put(106, 7);
    b.code(3, 2);       // length 2 (symbol 256)
    b.code(2, 2);       // distance 0: length 1
    b.put(0, 16);
    try {
        alg::deflateDecompress(b.bytes());
        FAIL() << "incomplete code accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("incomplete"),
                  std::string::npos)
            << e.what();
    }
}

TEST(DeflateOracle, AcceptsLoneLengthOneCode)
{
    // End-of-block as the only literal/length code, one bit long, and
    // a single one-bit distance code: both incomplete, both allowed.
    Bits b = dynamicHeader();
    b.code(0, 1);       // 18: 138 zeros
    b.put(127, 7);
    b.code(0, 1);       // 18: 118 zeros
    b.put(107, 7);
    b.code(2, 2);       // length 1 (symbol 256)
    b.code(2, 2);       // distance 0: length 1
    b.code(0, 1);       // end of block
    EXPECT_TRUE(alg::deflateDecompress(b.bytes()).empty());
    EXPECT_TRUE(zlibInflate(b.bytes(), 0).empty());
}

// --- modexp ----------------------------------------------------------

namespace {

/** Right-to-left square-and-multiply with divmod reduction. */
BigUint
schoolbookModexp(const BigUint &base, const BigUint &e, const BigUint &m)
{
    BigUint result = BigUint(1) % m;
    BigUint b = base % m;
    for (unsigned i = 0; i < e.bitLength(); ++i) {
        if (e.bit(i))
            result = (result * b) % m;
        b = (b * b) % m;
    }
    return result;
}

} // namespace

TEST(ModexpOracle, MatchesSchoolbookAcrossSizes)
{
    Rng rng(41);
    // 33..4096 bits (MontgomeryContext::kMaxBits): odd and even 32-bit
    // limb counts on either side of each 64-bit word boundary.
    for (unsigned bits : {33u, 63u, 64u, 65u, 96u, 127u, 160u, 255u, 256u,
                          257u, 512u, 513u, 768u, 1023u, 1056u, 2048u,
                          3000u, 4095u, 4096u}) {
        for (int parity = 0; parity < 2; ++parity) {
            BigUint m = BigUint::randomBits(bits, rng);
            if (m.isOdd() != (parity == 1))
                m = m + BigUint(1);
            if (m.bitLength() != bits)
                m = m - BigUint(2);
            const BigUint bases[] = {BigUint(), BigUint(1),
                                     BigUint::randomBelow(m, rng),
                                     m - BigUint(1), m,
                                     m + BigUint::randomBits(bits, rng)};
            const BigUint exps[] = {
                BigUint(), BigUint(1), BigUint(2), BigUint(65537),
                BigUint::randomBits(std::min(bits, 64u), rng)};
            for (const BigUint &b : bases)
                for (const BigUint &e : exps)
                    ASSERT_EQ(b.modexp(e, m), schoolbookModexp(b, e, m))
                        << bits << "-bit m=" << m.toHex()
                        << " b=" << b.toHex() << " e=" << e.toHex();
            if (m.isOdd()) {
                const alg::MontgomeryContext ctx(m);
                const BigUint b = BigUint::randomBits(bits + 7, rng);
                const BigUint e = BigUint::randomBits(bits, rng);
                EXPECT_EQ(ctx.modexp(b, e), schoolbookModexp(b, e, m))
                    << bits << "-bit full exponent";
            }
        }
    }
}

namespace {

using Words = alg::MontgomeryContext::Words;

Words
wordsOf(const BigUint &x)
{
    Words w{};
    const Bytes be = x.toBytes();
    for (std::size_t k = 0; k < be.size(); ++k)
        w[k / 8] |= std::uint64_t{be[be.size() - 1 - k]} << (8 * (k % 8));
    return w;
}

BigUint
bigOf(const Words &w)
{
    Bytes be;
    for (std::size_t k = 8 * w.size(); k-- > 0;)
        be.push_back(static_cast<std::uint8_t>(w[k / 8] >> (8 * (k % 8))));
    return BigUint::fromBytes(be);
}

/** A random odd modulus of exactly @p bits bits. Not a prime: a
 *  prime search would itself run modexp, which these tests check. */
BigUint
oddModulus(unsigned bits, Rng &rng)
{
    const BigUint m = BigUint::randomBits(bits, rng);
    return m.isOdd() ? m : m + BigUint(1);
}

} // namespace

TEST(ModexpOracle, WordsOutputMayAliasInputs)
{
    // The Words overloads write their result after the last read of
    // their operands, so a == b == out is a squaring in place.
    Rng rng(44);
    const BigUint m = oddModulus(512, rng);
    const alg::MontgomeryContext ctx(m);
    for (int k = 0; k < 16; ++k) {
        const BigUint a = BigUint::randomBelow(m, rng);
        Words w = wordsOf(a);
        ctx.mulModWords(w, w, w);
        EXPECT_EQ(bigOf(w), (a * a) % m);

        const BigUint e = BigUint::randomBits(64, rng);
        w = wordsOf(a);
        const std::uint64_t ew[] = {e.toUint64()};
        ctx.modexpWords(w, ew, w);
        EXPECT_EQ(bigOf(w), schoolbookModexp(a, e, m));
    }
}

TEST(ModexpOracle, SquaringMatchesGenericMultiply)
{
    // modexpWords(a, 2) squares a's Montgomery form with montSqr;
    // mulModWords(a, a) takes the generic product. At 512 bits both
    // run the fixed 8-word kernels, at 768 bits the runtime-width
    // ones.
    Rng rng(45);
    for (unsigned bits : {512u, 768u}) {
        const BigUint m = oddModulus(bits, rng);
        const alg::MontgomeryContext ctx(m);
        const std::uint64_t two[] = {2};
        for (int k = 0; k < 64; ++k) {
            BigUint a = BigUint::randomBelow(m, rng);
            if (k == 0)
                a = m - BigUint(1);   // the largest operand
            Words sq{}, mul{};
            ctx.modexpWords(wordsOf(a), two, sq);
            ctx.mulModWords(wordsOf(a), wordsOf(a), mul);
            ASSERT_EQ(sq, mul) << bits << "-bit a=" << a.toHex();
            EXPECT_EQ(bigOf(sq), (a * a) % m);
        }
    }
}

TEST(ModexpOracle, SmallModuli)
{
    Rng rng(42);
    for (std::uint64_t m = 1; m < 200; ++m)
        for (int k = 0; k < 8; ++k) {
            const BigUint b(rng.uniformInt(1000));
            const BigUint e(rng.uniformInt(70));
            EXPECT_EQ(b.modexp(e, BigUint(m)),
                      schoolbookModexp(b, e, BigUint(m)))
                << b.toHex() << "^" << e.toHex() << " mod " << m;
        }
}

TEST(ModexpOracle, BytesRoundTripKeepsValue)
{
    Rng rng(43);
    for (unsigned bits = 1; bits <= 300; bits += 7) {
        const BigUint x = BigUint::randomBits(bits, rng);
        const Bytes be = x.toBytes();
        EXPECT_EQ(be.size(), (bits + 7) / 8);
        EXPECT_EQ(BigUint::fromBytes(be), x);
        Bytes padded(5, 0);
        padded.insert(padded.end(), be.begin(), be.end());
        EXPECT_EQ(BigUint::fromBytes(padded), x);
    }
    EXPECT_TRUE(BigUint().toBytes().empty());
    EXPECT_EQ(BigUint::fromBytes(Bytes(9, 0)), BigUint());
}

// --- Aho-Corasick ----------------------------------------------------

namespace {

std::vector<Match>
naiveFindAll(const std::vector<std::string> &patterns, const Bytes &text)
{
    std::vector<Match> out;
    for (std::size_t end = 1; end <= text.size(); ++end)
        for (std::uint32_t pi = 0; pi < patterns.size(); ++pi) {
            const std::string &p = patterns[pi];
            if (p.size() <= end &&
                std::equal(p.begin(), p.end(),
                           text.begin() +
                               static_cast<long>(end - p.size()),
                           [](char a, std::uint8_t b) {
                               return static_cast<std::uint8_t>(a) == b;
                           }))
                out.push_back(Match{pi, end});
        }
    return out;
}

void
expectAgreesWithNaive(const AhoCorasick &ac,
                      const std::vector<std::string> &patterns,
                      const Bytes &text)
{
    const std::vector<Match> want = naiveFindAll(patterns, text);
    ASSERT_EQ(ac.countMatches(text), want.size())
        << text.size() << " bytes";
    std::vector<Match> got = ac.findAll(text);
    ASSERT_EQ(got, want) << text.size() << " bytes";
    ASSERT_EQ(ac.contains(text), !want.empty()) << text.size() << " bytes";
}

/**
 * Random text over a small alphabet with @p patterns planted so that
 * one straddles each lane boundary (n/4, n/2, 3n/4) at every offset
 * in turn.
 */
Bytes
plantedText(std::size_t n, const std::vector<std::string> &patterns,
            std::size_t shift, Rng &rng)
{
    Bytes t(n);
    for (auto &c : t)
        c = static_cast<std::uint8_t>('a' + rng.uniformInt(4));
    for (std::size_t lane = 1; lane < 4; ++lane) {
        const std::string &p = patterns[(lane + shift) % patterns.size()];
        const std::size_t edge = lane * (n / 4);
        const std::size_t back = 1 + shift % p.size();
        if (edge >= back && edge - back + p.size() <= n)
            std::copy(p.begin(), p.end(),
                      t.begin() + static_cast<long>(edge - back));
    }
    return t;
}

} // namespace

TEST(AhoOracle, LengthsAndLaneBoundaries)
{
    const std::vector<std::string> patterns = {"ab",   "abca", "bcab",
                                               "cabd", "dddd", "abcdabcd",
                                               "a",    "bdbdbdbdbd"};
    const AhoCorasick ac(patterns);
    Rng rng(51);
    for (std::size_t n = 0; n <= 300; ++n)
        expectAgreesWithNaive(ac, patterns,
                              plantedText(n, patterns, n, rng));
    for (std::size_t shift = 0; shift < 40; ++shift)
        expectAgreesWithNaive(ac, patterns,
                              plantedText(1458, patterns, shift, rng));
}

TEST(AhoOracle, RemRulesetOnPayloadWindows)
{
    const funcs::RemFunction::Config cfg;
    const auto rules = alg::makeRuleset(cfg.ruleset, 300, cfg.seed);
    const AhoCorasick ac(rules);
    const Bytes corpus = alg::makeScanStream(1 << 16, rules, 0.5, 52);
    Rng rng(53);
    for (std::size_t n : {0u, 1u, 255u, 256u, 257u, 300u, 1458u}) {
        for (int k = 0; k < 6; ++k) {
            const std::size_t off = rng.uniformInt(corpus.size() - n);
            expectAgreesWithNaive(
                ac, rules,
                Bytes(corpus.begin() + static_cast<long>(off),
                      corpus.begin() + static_cast<long>(off + n)));
        }
    }
}

TEST(AhoOracle, EveryByteValueUsed)
{
    // 256 used bytes leave no spare class: each byte is its own class.
    Rng rng(54);
    std::vector<std::string> patterns;
    for (int c = 0; c < 256; c += 4)
        patterns.push_back(std::string{static_cast<char>(c),
                                       static_cast<char>(c + 1),
                                       static_cast<char>(c + 2),
                                       static_cast<char>(c + 3)});
    for (int i = 0; i < 40; ++i) {
        std::string p;
        for (std::size_t j = 0, len = 1 + rng.uniformInt(3); j < len; ++j)
            p.push_back(static_cast<char>(rng.uniformInt(256)));
        patterns.push_back(p);
    }
    const AhoCorasick ac(patterns);
    for (std::size_t n : {0u, 100u, 256u, 299u, 1458u}) {
        Bytes t(n);
        for (auto &c : t)
            c = static_cast<std::uint8_t>(rng.uniformInt(256));
        for (std::size_t i = 0; i + 4 <= n; i += 97)
            std::copy_n(patterns[rng.uniformInt(64)].begin(), 4,
                        t.begin() + static_cast<long>(i));
        expectAgreesWithNaive(ac, patterns, t);
    }
}

TEST(AhoOracle, PatternLongerThanALane)
{
    // A 120-byte pattern over a 300-byte text: the warm-up would start
    // before the text, so the scan runs as one lane.
    const std::string longp(120, 'a');
    const std::vector<std::string> patterns = {longp, "ab", "ba"};
    const AhoCorasick ac(patterns);
    EXPECT_EQ(ac.longestPattern(), 120u);
    Rng rng(55);
    for (std::size_t n : {256u, 300u, 600u, 1458u}) {
        Bytes t(n, 'a');
        for (std::size_t i = 0; i < n; i += 1 + rng.uniformInt(300))
            t[i] = 'b';
        expectAgreesWithNaive(ac, patterns, t);
    }
}
