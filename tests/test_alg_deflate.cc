/**
 * @file
 * DEFLATE codec: round-trip property over many data shapes,
 * compression-ratio expectations, and malformed-stream rejection.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "alg/corpus.hh"
#include "alg/deflate.hh"
#include "sim/rng.hh"

using halsim::Rng;
using halsim::alg::deflateCompress;
using halsim::alg::DeflateConfig;
using halsim::alg::deflateDecompress;

namespace {

std::vector<std::uint8_t>
bytesOf(const std::string &s)
{
    return {s.begin(), s.end()};
}

void
expectRoundTrip(const std::vector<std::uint8_t> &data)
{
    const auto compressed = deflateCompress(data);
    const auto restored = deflateDecompress(compressed);
    ASSERT_EQ(restored, data);
}

} // namespace

TEST(Deflate, EmptyInput)
{
    expectRoundTrip({});
}

TEST(Deflate, SingleByte)
{
    expectRoundTrip({0x42});
}

TEST(Deflate, ShortText)
{
    expectRoundTrip(bytesOf("hello, deflate world"));
}

TEST(Deflate, HighlyRepetitive)
{
    std::vector<std::uint8_t> data(100000, 'a');
    const auto compressed = deflateCompress(data);
    EXPECT_LT(compressed.size(), data.size() / 50)
        << "runs should compress enormously";
    EXPECT_EQ(deflateDecompress(compressed), data);
}

TEST(Deflate, AllByteValues)
{
    std::vector<std::uint8_t> data;
    for (int rep = 0; rep < 10; ++rep)
        for (int b = 0; b < 256; ++b)
            data.push_back(static_cast<std::uint8_t>(b));
    expectRoundTrip(data);
}

TEST(Deflate, IncompressibleFallsBackToStored)
{
    Rng rng(5);
    std::vector<std::uint8_t> data(65536 + 1234);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    const auto compressed = deflateCompress(data);
    // Stored blocks cost 5 bytes per 64 KiB chunk; allow slack for a
    // near-miss fixed encoding.
    EXPECT_LT(compressed.size(), data.size() + 64);
    EXPECT_EQ(deflateDecompress(compressed), data);
}

TEST(Deflate, SilesiaLikeCorpusCompresses)
{
    const auto data = halsim::alg::makeSilesiaLike(200000, 3);
    const auto compressed = deflateCompress(data);
    // The paper's Silesia-mozilla compresses around 2.5-3x with
    // deflate; our synthetic stand-in should land in that regime.
    const double ratio = static_cast<double>(data.size()) /
                         static_cast<double>(compressed.size());
    EXPECT_GT(ratio, 2.0) << "ratio " << ratio;
    EXPECT_EQ(deflateDecompress(compressed), data);
}

TEST(Deflate, OverlappingCopies)
{
    // Distance < length forces the self-overlap copy path.
    std::vector<std::uint8_t> data;
    for (int i = 0; i < 1000; ++i)
        data.push_back(static_cast<std::uint8_t>("ab"[i % 2]));
    expectRoundTrip(data);
}

TEST(Deflate, LongRangeMatchAtWindowEdge)
{
    // Two copies of a block separated by nearly the full window.
    std::vector<std::uint8_t> data;
    const auto block = halsim::alg::makeSilesiaLike(500, 9);
    data.insert(data.end(), block.begin(), block.end());
    std::vector<std::uint8_t> filler = halsim::alg::makeSilesiaLike(32000, 10);
    data.insert(data.end(), filler.begin(), filler.end());
    data.insert(data.end(), block.begin(), block.end());
    expectRoundTrip(data);
}

TEST(Deflate, NoLazyMatchingStillCorrect)
{
    DeflateConfig cfg;
    cfg.lazy_match = false;
    const auto data = halsim::alg::makeSilesiaLike(50000, 12);
    const auto compressed = deflateCompress(data, cfg);
    EXPECT_EQ(deflateDecompress(compressed), data);
}

TEST(Deflate, TruncatedStreamThrows)
{
    const auto compressed =
        deflateCompress(halsim::alg::makeSilesiaLike(5000, 2));
    auto truncated = compressed;
    truncated.resize(truncated.size() / 2);
    EXPECT_THROW(deflateDecompress(truncated), std::runtime_error);
}

TEST(Deflate, MalformedDynamicBlockRejected)
{
    // BFINAL=1, BTYPE=10 (dynamic) followed by a truncated header.
    const std::vector<std::uint8_t> stream = {0x05, 0x00, 0x00};
    EXPECT_THROW(deflateDecompress(stream), std::runtime_error);
}

TEST(Deflate, ReservedBlockTypeRejected)
{
    // BFINAL=1, BTYPE=11 (reserved) => first byte 0b00000111.
    const std::vector<std::uint8_t> stream = {0x07, 0x00, 0x00};
    EXPECT_THROW(deflateDecompress(stream), std::runtime_error);
}

TEST(Deflate, DynamicBeatsFixedOnSkewedData)
{
    // Text over a tiny alphabet: dynamic Huffman should win clearly.
    std::vector<std::uint8_t> data;
    Rng rng(21);
    for (int i = 0; i < 60000; ++i)
        data.push_back(static_cast<std::uint8_t>(
            "eeeeeeettaoinshr"[rng.uniformInt(16)]));

    DeflateConfig dynamic_cfg;
    DeflateConfig fixed_cfg;
    fixed_cfg.allow_dynamic = false;
    const auto dyn = deflateCompress(data, dynamic_cfg);
    const auto fix = deflateCompress(data, fixed_cfg);
    EXPECT_LT(dyn.size(), fix.size() * 0.80)
        << "dynamic tables must exploit the skewed alphabet";
    EXPECT_EQ(deflateDecompress(dyn), data);
    EXPECT_EQ(deflateDecompress(fix), data);
}

TEST(Deflate, FixedOnlyModeStillRoundTrips)
{
    DeflateConfig cfg;
    cfg.allow_dynamic = false;
    const auto data = halsim::alg::makeSilesiaLike(30000, 14);
    EXPECT_EQ(deflateDecompress(deflateCompress(data, cfg)), data);
}

TEST(Deflate, DynamicHandlesAllLiteralData)
{
    // No matches at all: the distance alphabet is empty, which the
    // encoder must still transmit legally.
    std::vector<std::uint8_t> data;
    Rng rng(22);
    for (int i = 0; i < 4000; ++i)
        data.push_back(static_cast<std::uint8_t>(rng.next()));
    DeflateConfig cfg;
    cfg.allow_stored = false;   // force a coded block
    const auto compressed = deflateCompress(data, cfg);
    EXPECT_EQ(deflateDecompress(compressed), data);
}

TEST(Deflate, StoredLenMismatchRejected)
{
    // BFINAL=1 BTYPE=00, then LEN=1 but NLEN not its complement.
    const std::vector<std::uint8_t> stream = {0x01, 0x01, 0x00, 0x00,
                                              0x00, 0xaa};
    EXPECT_THROW(deflateDecompress(stream), std::runtime_error);
}

// Locks the encoder's output bytes for every config shape, not only
// comp's (ByteIdentity.CompressResponses). The digests were recorded
// from the encoder that inserted each position into the hash chains
// just before matching past it; the one-pass chain build must keep
// every token, so any change here means the tokenizer moved.
TEST(Deflate, OutputBytesPinnedAcrossConfigs)
{
    using halsim::alg::makeSilesiaLike;
    std::vector<std::vector<std::uint8_t>> inputs = {
        {},
        bytesOf("ab"),
        bytesOf("abc"),
        makeSilesiaLike(1458, 5),
        makeSilesiaLike(40000, 6),    // past the 32 KiB window
        makeSilesiaLike(100000, 7),   // past 64 KiB
        std::vector<std::uint8_t>(3000, 0),
    };
    std::vector<std::uint8_t> cycle;
    for (int i = 0; i < 5000; ++i)
        cycle.push_back(static_cast<std::uint8_t>("abcab"[i % 5]));
    inputs.push_back(cycle);
    Rng rng(31);
    for (std::size_t size : {std::size_t{1458}, std::size_t{70000}}) {
        // Incompressible: the stored fallback, in two blocks at 70000.
        std::vector<std::uint8_t> noise(size);
        for (auto &b : noise)
            b = static_cast<std::uint8_t>(rng.next());
        inputs.push_back(noise);
    }
    // One block repeated just inside the window's reach.
    auto edge = makeSilesiaLike(500, 9);
    const auto filler = makeSilesiaLike(32000, 10);
    const auto block = edge;
    edge.insert(edge.end(), filler.begin(), filler.end());
    edge.insert(edge.end(), block.begin(), block.end());
    inputs.push_back(edge);

    struct Case
    {
        const char *name;
        DeflateConfig cfg;
        std::uint64_t digest;
    };
    DeflateConfig lazy_off;
    lazy_off.lazy_match = false;
    DeflateConfig chain1_fixed;
    chain1_fixed.max_chain = 1;
    chain1_fixed.allow_dynamic = false;
    DeflateConfig chain16_fixed;
    chain16_fixed.max_chain = 16;
    chain16_fixed.allow_dynamic = false;
    const Case cases[] = {
        {"default", DeflateConfig{}, 0x43ef49b4b51679d3ull},
        {"lazy off", lazy_off, 0xfa68a0a1184ad1ecull},
        {"max_chain 1, fixed", chain1_fixed, 0x8b6e35d90b777ff3ull},
        {"max_chain 16, fixed", chain16_fixed, 0xd7e322eb4d96f268ull},
    };

    // One Deflater for every call, so the head-table tags of earlier
    // inputs are in play too.
    halsim::alg::Deflater deflater;
    for (const Case &c : cases) {
        std::uint64_t h = 0xcbf29ce484222325ull;   // FNV-1a 64
        for (const auto &in : inputs) {
            const auto out = deflater.compress(in, c.cfg);
            ASSERT_EQ(deflateDecompress({out.begin(), out.end()}), in)
                << c.name << ", " << in.size() << " B";
            for (std::uint8_t b : out) {
                h ^= b;
                h *= 0x100000001b3ull;
            }
        }
        EXPECT_EQ(h, c.digest) << c.name << ": 0x" << std::hex << h;
    }
}

/** Round-trip sweep across sizes and chain depths. */
class DeflateSweep
    : public ::testing::TestWithParam<std::tuple<int, unsigned>>
{
};

TEST_P(DeflateSweep, RoundTrip)
{
    const auto [size, chain] = GetParam();
    DeflateConfig cfg;
    cfg.max_chain = chain;
    const auto data =
        halsim::alg::makeSilesiaLike(static_cast<std::size_t>(size),
                                     static_cast<std::uint64_t>(size));
    const auto compressed = deflateCompress(data, cfg);
    EXPECT_EQ(deflateDecompress(compressed), data);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndEffort, DeflateSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 100, 1000, 40000,
                                         100000),
                       ::testing::Values(1u, 8u, 128u)));
