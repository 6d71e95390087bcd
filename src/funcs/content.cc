#include "funcs/content.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>

#include "alg/sha256.hh"
#include "net/bytes.hh"

namespace halsim::funcs {

using net::store32;
using net::store64;

void
DpdkFwdFunction::process(net::Packet &pkt, coherence::StateContext &)
{
    // Touch the header the way l2fwd does: swap Ethernet addresses.
    auto eth = pkt.eth();
    const net::MacAddr d = eth.dst();
    eth.setDst(eth.src());
    eth.setSrc(d);
}

void
DpdkFwdFunction::makeRequest(net::Packet &, Rng &)
{
}

RemFunction::RemFunction(Config cfg)
    : cfg_(cfg),
      rules_(alg::makeRuleset(cfg.ruleset, cfg.rules, cfg.seed)),
      ac_(std::make_unique<alg::AhoCorasick>(rules_)),
      corpus_(alg::makeScanStream(1 << 20, rules_, cfg.hit_rate,
                                  cfg.seed ^ 0xC0))
{}

// halint: hotpath
KernelSummary
RemFunction::run(std::span<std::uint8_t> p, KernelWorkspace *) const
{
    KernelSummary s;
    s.matches = ac_->countMatches(p);
    store64(p.data(), s.matches);
    return s;
}

void
RemFunction::makeRequest(net::Packet &pkt, Rng &rng)
{
    // Slice a window out of the pre-generated scan corpus; cheaper
    // than generating text per packet and statistically identical.
    auto p = pkt.payload();
    const std::size_t off =
        rng.uniformInt(corpus_.size() - std::min(p.size(), corpus_.size()));
    const std::size_t n = std::min(p.size(), corpus_.size());
    std::memcpy(p.data(), corpus_.data() + off, n);
}

CryptoFunction::CryptoFunction(Config cfg)
    : cfg_(cfg), mont_(alg::groups::prime512())
{
    // The digest (256 bits) must already be reduced mod p.
    assert(mont_.modulus().bitLength() > 256);
    g_[0] = 2;
}

namespace {

using Words = alg::MontgomeryContext::Words;

/** Exponent operand: the digest's 256 bits plus a carry word. */
using Exponent = std::array<std::uint64_t, 5>;

/** @p out = the big-endian @p bytes as a number (BigUint::fromBytes). */
void
wordsFromBytes(std::span<const std::uint8_t> bytes, Words &out)
{
    out = Words{};
    for (std::size_t k = 0; k < bytes.size(); ++k)   // k-th byte from the end
        out[k / 8] |= static_cast<std::uint64_t>(bytes[bytes.size() - 1 - k])
                      << (8 * (k % 8));
}

/** @p e = (digest >> 64 * word_shift) mod 2^bits + add. */
void
digestExponent(const Words &digest, std::size_t word_shift, unsigned bits,
               std::uint64_t add, Exponent &e)
{
    e = Exponent{};
    for (std::size_t i = 0; i + word_shift < 4 && 64 * i < bits; ++i) {
        const unsigned left = bits - static_cast<unsigned>(64 * i);
        const std::uint64_t mask =
            left >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << left) - 1;
        e[i] = digest[i + word_shift] & mask;
    }
    for (std::size_t i = 0; i < e.size() && add != 0; ++i) {
        e[i] += add;
        add = e[i] < add ? 1 : 0;
    }
}

/** Length of @p w's minimal big-endian encoding (0 for zero). */
std::size_t
byteLength(const Words &w)
{
    for (std::size_t i = w.size(); i-- > 0;) {
        if (w[i] != 0) {
            const int bits = 64 - std::countl_zero(w[i]);
            return 8 * i + static_cast<std::size_t>(bits + 7) / 8;
        }
    }
    return 0;
}

} // namespace

// halint: hotpath
KernelSummary
CryptoFunction::run(std::span<std::uint8_t> p, KernelWorkspace *) const
{
    const std::uint8_t op = p.empty() ? 0 : p[0] % 3;

    // Digest the signed prefix; all three ops key off it.
    const alg::Sha256Digest digest = alg::Sha256::hash(
        p.subspan(0, std::min(p.size(), cfg_.digest_bytes)));
    Words m{};
    wordsFromBytes(digest, m);

    Exponent e{};
    Words result{};
    switch (op) {
      case 0:
        // RSA-style: digest^e mod n, e = 65537.
        digestExponent(m, 0, 0, 65537, e);
        mont_.modexpWords(m, e, result);
        break;
      case 1:
        // DH-style: g^(x + 1) mod p with an ephemeral exponent x
        // derived from the digest (truncated to the configured bits).
        digestExponent(m, 0, cfg_.exponent_bits, 1, e);
        mont_.modexpWords(g_, e, result);
        break;
      default:
        // DSA-style: r = g^(k + 2) mod p, k from the digest's upper
        // half, and fold in the digest: r * digest mod p.
        digestExponent(m, 2, cfg_.exponent_bits, 2, e);
        mont_.modexpWords(g_, e, result);
        mont_.mulModWords(result, m, result);
        break;
    }

    // The response carries the result's minimal big-endian bytes.
    const std::size_t len = byteLength(result);
    const std::size_t out = std::min<std::size_t>(len, 64);
    if (p.size() >= 1 + out) {
        p[0] = op;
        for (std::size_t k = 0; k < out; ++k) {
            const std::size_t j = len - 1 - k;   // byte j from the LSB
            p[1 + k] = static_cast<std::uint8_t>(result[j / 8] >> (8 * (j % 8)));
        }
    }
    return {};
}

void
CryptoFunction::makeRequest(net::Packet &pkt, Rng &rng)
{
    auto p = pkt.payload();
    if (p.empty())
        return;
    p[0] = static_cast<std::uint8_t>(rng.uniformInt(3));
    // Message body: random session material.
    for (std::size_t i = 1; i < std::min<std::size_t>(p.size(), 128); ++i)
        p[i] = static_cast<std::uint8_t>(rng.next());
}

CompressFunction::CompressFunction(Config cfg)
    : cfg_(cfg), corpus_(alg::makeSilesiaLike(1 << 20, cfg.seed))
{}

std::unique_ptr<KernelWorkspace>
CompressFunction::makeWorkspace() const
{
    // halint: allow(HAL-W008) one per payload worker, at pool start
    return std::make_unique<Workspace>();
}

// halint: hotpath
KernelSummary
CompressFunction::run(std::span<std::uint8_t> p, KernelWorkspace *ws) const
{
    alg::DeflateConfig dc;
    dc.max_chain = cfg_.max_chain;
    // Per-packet accelerator path: static tables, like the hardware
    // Deflate engines the paper drives (dynamic-table construction
    // per 1.5 KB packet costs more than it saves).
    dc.allow_dynamic = false;
    const std::span<const std::uint8_t> compressed =
        static_cast<Workspace *>(ws)->deflater.compress(p, dc);
    KernelSummary s;
    s.bytes_in = p.size();
    s.bytes_out = compressed.size();

    store32(p.data(), static_cast<std::uint32_t>(p.size()));
    store32(p.data() + 4, static_cast<std::uint32_t>(compressed.size()));
    const std::size_t keep =
        std::min(compressed.size(), p.size() > 8 ? p.size() - 8 : 0);
    std::memcpy(p.data() + 8, compressed.data(), keep);
    return s;
}

void
CompressFunction::makeRequest(net::Packet &pkt, Rng &rng)
{
    auto p = pkt.payload();
    const std::size_t n = std::min(p.size(), corpus_.size());
    const std::size_t off = rng.uniformInt(corpus_.size() - n + 1);
    std::memcpy(p.data(), corpus_.data() + off, n);
}

} // namespace halsim::funcs
