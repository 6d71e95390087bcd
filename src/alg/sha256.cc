#include "alg/sha256.hh"

#include <cstring>

namespace halsim::alg {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

std::uint32_t
rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

/** Big-endian 32-bit load; compilers emit one load and a byte swap. */
std::uint32_t
loadBe32(const std::uint8_t *p)
{
    return std::uint32_t{p[0]} << 24 | std::uint32_t{p[1]} << 16 |
           std::uint32_t{p[2]} << 8 | p[3];
}

/**
 * One compression round with the working variables passed in their
 * current roles: the new e lands in @p d and the new a in @p h, so
 * the caller rotates the roles instead of moving eight values.
 */
inline void
round(std::uint32_t a, std::uint32_t b, std::uint32_t c, std::uint32_t &d,
      std::uint32_t e, std::uint32_t f, std::uint32_t g, std::uint32_t &h,
      std::uint32_t kw)
{
    const std::uint32_t t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                             ((e & f) ^ (~e & g)) + kw;
    d += t1;
    h = t1 + (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
        ((a & b) ^ (a & c) ^ (b & c));
}

} // namespace

void
Sha256::reset()
{
    h_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
          0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    bufLen_ = 0;
    totalBits_ = 0;
}

void
Sha256::update(std::span<const std::uint8_t> data)
{
    totalBits_ += static_cast<std::uint64_t>(data.size()) * 8;
    std::size_t off = 0;
    if (bufLen_ > 0) {
        const std::size_t take = std::min(data.size(), 64 - bufLen_);
        std::memcpy(buf_.data() + bufLen_, data.data(), take);
        bufLen_ += take;
        off = take;
        if (bufLen_ == 64) {
            processBlock(buf_.data());
            bufLen_ = 0;
        }
    }
    while (off + 64 <= data.size()) {
        processBlock(data.data() + off);
        off += 64;
    }
    if (off < data.size()) {
        std::memcpy(buf_.data(), data.data() + off, data.size() - off);
        bufLen_ = data.size() - off;
    }
}

Sha256Digest
Sha256::finish()
{
    // 0x80, zeros, then the 64-bit big-endian bit count in the last 8
    // bytes of a block: a second block when fewer than 9 bytes are free.
    buf_[bufLen_] = 0x80;
    std::memset(buf_.data() + bufLen_ + 1, 0, 63 - bufLen_);
    if (bufLen_ >= 56) {
        processBlock(buf_.data());
        std::memset(buf_.data(), 0, 56);
    }
    for (int i = 0; i < 8; ++i)
        buf_[56 + i] = static_cast<std::uint8_t>(totalBits_ >> (56 - 8 * i));
    processBlock(buf_.data());

    Sha256Digest d;
    for (int i = 0; i < 8; ++i) {
        d[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
        d[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
        d[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
        d[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
    }
    return d;
}

void
Sha256::processBlock(const std::uint8_t *block)
{
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i)
        w[i] = loadBe32(block + 4 * i);
    for (int i = 16; i < 64; ++i) {
        const std::uint32_t s0 =
            rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
        const std::uint32_t s1 =
            rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
    std::uint32_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];
    for (int i = 0; i < 64; i += 8) {
        round(a, b, c, d, e, f, g, h, kK[i] + w[i]);
        round(h, a, b, c, d, e, f, g, kK[i + 1] + w[i + 1]);
        round(g, h, a, b, c, d, e, f, kK[i + 2] + w[i + 2]);
        round(f, g, h, a, b, c, d, e, kK[i + 3] + w[i + 3]);
        round(e, f, g, h, a, b, c, d, kK[i + 4] + w[i + 4]);
        round(d, e, f, g, h, a, b, c, kK[i + 5] + w[i + 5]);
        round(c, d, e, f, g, h, a, b, kK[i + 6] + w[i + 6]);
        round(b, c, d, e, f, g, h, a, kK[i + 7] + w[i + 7]);
    }
    h_[0] += a;
    h_[1] += b;
    h_[2] += c;
    h_[3] += d;
    h_[4] += e;
    h_[5] += f;
    h_[6] += g;
    h_[7] += h;
}

Sha256Digest
Sha256::hash(std::span<const std::uint8_t> data)
{
    Sha256 ctx;
    ctx.update(data);
    return ctx.finish();
}

std::string
Sha256::toHex(const Sha256Digest &d)
{
    static const char *hex = "0123456789abcdef";
    std::string s;
    s.reserve(64);
    for (std::uint8_t b : d) {
        s.push_back(hex[b >> 4]);
        s.push_back(hex[b & 0xf]);
    }
    return s;
}

} // namespace halsim::alg
