/**
 * @file
 * SHA-256 against FIPS 180-4 published vectors plus structural
 * properties (incremental == one-shot, avalanche).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "alg/sha256.hh"

using halsim::alg::Sha256;
using halsim::alg::Sha256Digest;

namespace {

Sha256Digest
hashStr(const std::string &s)
{
    return Sha256::hash(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t *>(s.data()), s.size()));
}

} // namespace

TEST(Sha256, EmptyString)
{
    EXPECT_EQ(Sha256::toHex(hashStr("")),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b"
              "7852b855");
}

TEST(Sha256, Abc)
{
    EXPECT_EQ(Sha256::toHex(hashStr("abc")),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
              "f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    EXPECT_EQ(Sha256::toHex(hashStr(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                  "nopq")),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd4"
              "19db06c1");
}

TEST(Sha256, MillionA)
{
    // FIPS 180-4 long vector: one million 'a' bytes.
    std::vector<std::uint8_t> data(1000000, 'a');
    EXPECT_EQ(Sha256::toHex(Sha256::hash(data)),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39cc"
              "c7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    std::vector<std::uint8_t> data(100000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 131 + 7);

    const Sha256Digest whole = Sha256::hash(data);

    // Feed in awkward chunk sizes straddling block boundaries.
    Sha256 ctx;
    std::size_t off = 0;
    std::size_t chunk = 1;
    while (off < data.size()) {
        const std::size_t take = std::min(chunk, data.size() - off);
        ctx.update(std::span<const std::uint8_t>(data.data() + off, take));
        off += take;
        chunk = (chunk * 3 + 1) % 200 + 1;
    }
    EXPECT_EQ(ctx.finish(), whole);
}

TEST(Sha256, SingleBitFlipChangesDigest)
{
    std::vector<std::uint8_t> data(256, 0x5a);
    const Sha256Digest base = Sha256::hash(data);
    for (int byte : {0, 63, 64, 255}) {
        auto mutated = data;
        mutated[byte] ^= 1;
        EXPECT_NE(Sha256::hash(mutated), base)
            << "flip at byte " << byte;
    }
}

TEST(Sha256, ResetReusesContext)
{
    Sha256 ctx;
    const std::string a = "first message";
    ctx.update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t *>(a.data()), a.size()));
    (void)ctx.finish();

    ctx.reset();
    const std::string b = "abc";
    ctx.update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t *>(b.data()), b.size()));
    EXPECT_EQ(Sha256::toHex(ctx.finish()),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
              "f20015ad");
}

/** Lengths straddling the padding boundary (55/56/57, 63/64/65). */
class Sha256PaddingTest : public ::testing::TestWithParam<int>
{
};

TEST_P(Sha256PaddingTest, PaddingBoundaryConsistency)
{
    const int len = GetParam();
    std::vector<std::uint8_t> data(len, 'x');
    const Sha256Digest whole = Sha256::hash(data);

    Sha256 ctx;
    for (int i = 0; i < len; ++i)
        ctx.update(std::span<const std::uint8_t>(&data[i], 1));
    EXPECT_EQ(ctx.finish(), whole) << "len " << len;
}

INSTANTIATE_TEST_SUITE_P(Boundaries, Sha256PaddingTest,
                         ::testing::Values(0, 1, 54, 55, 56, 57, 63, 64,
                                           65, 119, 120, 121, 127, 128));

namespace {

/** Message byte i of the known-answer vectors: (7 i + 1) mod 256. */
std::vector<std::uint8_t>
katMessage(std::size_t len)
{
    std::vector<std::uint8_t> m(len);
    for (std::size_t i = 0; i < len; ++i)
        m[i] = static_cast<std::uint8_t>(i * 7 + 1);
    return m;
}

} // namespace

TEST(Sha256, PaddingKnownAnswers)
{
    // Digests from Python's hashlib.sha256 over katMessage(len), at
    // the lengths where padding takes one block or spills into two.
    const struct
    {
        std::size_t len;
        const char *hex;
    } kats[] = {
        {0,
         "e3b0c44298fc1c149afbf4c8996fb924"
         "27ae41e4649b934ca495991b7852b855"},
        {1,
         "4bf5122f344554c53bde2ebb8cd2b7e3"
         "d1600ad631c385a5d7cce23c7785459a"},
        {55,
         "16fa57a0a3423a715d594516339f3618"
         "9d6b5f93754a9714fef202616a9fabfe"},
        {56,
         "c37b44e5f1b18554b36966f4f8e08bfb"
         "f3164c4b6c10374d12d89850892073c5"},
        {57,
         "12b234922502022f755ab8550a3d4e20"
         "2ad39c81d961a4f59ec39d5fd83d15a7"},
        {63,
         "bbba992d2c85af960fb2987a1fd05e0a"
         "a82a3db3c740dd8982a9e273b75e36a3"},
        {64,
         "66bd4633ed6f71c4ecfa4763bf7ba1c8"
         "ec7612de9aa6c0578a7b675207c71e0b"},
        {65,
         "9f7dc47107b750a1f3d35db5d9547f24"
         "ef40da5b731b9540d4f43710a154f6c9"},
        {119,
         "a3ed307b730fa77c07531300c6e4a282"
         "330011d4d4caf6bb7b63ae05950f4b66"},
        {120,
         "8e3b15d9fea7472655aa069620b7f8c2"
         "e55ee1499f763200a7515fe826e99d20"},
        {128,
         "e462c130fef8c97e34f7dc3ff3ad2f8b"
         "3533ab849af21c10531552a2852387a4"},
        {256,
         "2d7f580fd47106545e24f104f1eef10e"
         "75818a87473ffe9a43ac698a39dde7f2"},
    };
    for (const auto &k : kats)
        EXPECT_EQ(Sha256::toHex(Sha256::hash(katMessage(k.len))), k.hex)
            << "len " << k.len;
}

TEST(Sha256, SplitAtEveryOffsetMatchesKnownAnswer)
{
    const std::vector<std::uint8_t> m = katMessage(130);
    for (std::size_t cut = 0; cut <= m.size(); ++cut) {
        Sha256 ctx;
        ctx.update(std::span<const std::uint8_t>(m.data(), cut));
        ctx.update(std::span<const std::uint8_t>(m.data() + cut,
                                                 m.size() - cut));
        EXPECT_EQ(Sha256::toHex(ctx.finish()),
                  "a234574a31eaa90ec795dcd0a21f34674b8ae54f47912ae62cb0571c"
                  "1cb6b9ab")
            << "cut at " << cut;
    }
}
