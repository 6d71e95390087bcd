#include "alg/deflate.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace halsim::alg {

namespace {

// RFC 1951 length/distance code tables.
constexpr int kMinMatch = 3;
constexpr int kMaxMatch = 258;
constexpr std::size_t kWindowSize = 32768;

// Hash chains over 3-byte prefixes. Both the table size and the chain
// semantics shape the output: collisions use up max_chain probes.
constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;

constexpr std::uint16_t kLengthBase[29] = {
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43,
    51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::uint8_t kLengthExtra[29] = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4,
    4, 4, 5, 5, 5, 5, 0};
constexpr std::uint16_t kDistBase[30] = {
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257,
    385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289,
    16385, 24577};
constexpr std::uint8_t kDistExtra[30] = {
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9,
    10, 10, 11, 11, 12, 12, 13, 13};

/** Order in which code-length-code lengths are transmitted. */
constexpr std::uint8_t kClPermutation[19] = {
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15};

constexpr int kLitLenSymbols = 286;
constexpr int kDistSymbols = 30;
constexpr int kClSymbols = 19;
constexpr int kMaxCodeBits = 15;

/** The low @p nbits of @p code in reverse order: Huffman codes are
 *  sent MSB-first through an LSB-first bit stream. */
constexpr std::uint32_t
reverseBits(std::uint32_t code, int nbits)
{
    std::uint32_t rev = 0;
    for (int i = 0; i < nbits; ++i)
        rev |= ((code >> i) & 1u) << (nbits - 1 - i);
    return rev;
}

/** Fixed literal/length code for symbol 0..287: (code, bits). */
std::pair<std::uint32_t, int>
fixedLitCode(int sym)
{
    if (sym <= 143)
        return {0x30 + sym, 8};               // 00110000 ..
    if (sym <= 255)
        return {0x190 + (sym - 144), 9};      // 110010000 ..
    if (sym <= 279)
        return {sym - 256, 7};                // 0000000 ..
    return {0xc0 + (sym - 280), 8};           // 11000000 ..
}

/**
 * Static code tables: O(1) length and distance codes (zlib's
 * _length_code/_dist_code layout) and the fixed-Huffman codes, stored
 * bit-reversed for the LSB-first writer.
 */
struct CodeTables
{
    std::array<std::uint8_t, kMaxMatch + 1> lengthCode{};
    /** [d] for d = dist-1 < 256, else [256 + (d >> 7)]. */
    std::array<std::uint8_t, 512> distCode{};
    std::array<std::uint16_t, 288> fixedLit{};
    std::array<std::uint8_t, 288> fixedLitLen{};
    std::array<std::uint8_t, kDistSymbols> fixedDist{};

    CodeTables()
    {
        for (int c = 0; c < 29; ++c) {
            const int last = c == 28 ? kMaxMatch : kLengthBase[c + 1] - 1;
            for (int len = kLengthBase[c]; len <= last; ++len)
                lengthCode[static_cast<std::size_t>(len)] =
                    static_cast<std::uint8_t>(c);
        }
        for (int c = 0; c < kDistSymbols; ++c) {
            const int last = c == kDistSymbols - 1
                                 ? static_cast<int>(kWindowSize)
                                 : kDistBase[c + 1] - 1;
            for (int d = kDistBase[c] - 1; d < last; ++d)
                distCode[static_cast<std::size_t>(
                    d < 256 ? d : 256 + (d >> 7))] =
                    static_cast<std::uint8_t>(c);
        }
        for (int s = 0; s < 288; ++s) {
            const auto [code, bits] = fixedLitCode(s);
            fixedLit[static_cast<std::size_t>(s)] =
                static_cast<std::uint16_t>(reverseBits(code, bits));
            fixedLitLen[static_cast<std::size_t>(s)] =
                static_cast<std::uint8_t>(bits);
        }
        for (int s = 0; s < kDistSymbols; ++s)
            fixedDist[static_cast<std::size_t>(s)] =
                static_cast<std::uint8_t>(reverseBits(
                    static_cast<std::uint32_t>(s), 5));
    }

    int
    dist(int d) const
    {
        assert(d >= 1 && d <= static_cast<int>(kWindowSize));
        const auto i = static_cast<unsigned>(d - 1);
        return distCode[i < 256 ? i : 256 + (i >> 7)];
    }
};

const CodeTables &
codeTables()
{
    static const CodeTables tables;
    return tables;
}

/**
 * LSB-first bit writer per the DEFLATE bit packing rules, into a
 * buffer the caller sized for the worst case; flushes 32 bits at a
 * time.
 */
class BitWriter
{
  public:
    explicit BitWriter(std::uint8_t *buf) : begin_(buf), p_(buf) {}

    /** Append @p nbits (at most 32) of @p value, LSB first; @p value
     *  has no bits set above them. */
    void
    putBits(std::uint32_t value, int nbits)
    {
        assert(nbits <= 32 && (nbits == 32 || (value >> nbits) == 0));
        acc_ |= static_cast<std::uint64_t>(value) << filled_;
        filled_ += nbits;
        if (filled_ >= 32) {
            p_[0] = static_cast<std::uint8_t>(acc_);
            p_[1] = static_cast<std::uint8_t>(acc_ >> 8);
            p_[2] = static_cast<std::uint8_t>(acc_ >> 16);
            p_[3] = static_cast<std::uint8_t>(acc_ >> 24);
            p_ += 4;
            acc_ >>= 32;
            filled_ -= 32;
        }
    }

    /** Pad to a byte boundary with zero bits. */
    void
    align()
    {
        for (; filled_ > 0; filled_ -= 8) {
            *p_++ = static_cast<std::uint8_t>(acc_);
            acc_ >>= 8;
        }
        filled_ = 0;
    }

    /** Append raw bytes. @pre byte-aligned. */
    void
    putBytes(const std::uint8_t *src, std::size_t n)
    {
        assert(filled_ == 0);
        if (n != 0)
            std::memcpy(p_, src, n);
        p_ += n;
    }

    /** Total bits emitted so far (for block-type cost comparison). */
    std::size_t
    bitCount() const
    {
        return static_cast<std::size_t>(p_ - begin_) * 8 +
               static_cast<std::size_t>(filled_);
    }

    /** Align and return the bytes written. */
    std::size_t
    finish()
    {
        align();
        return static_cast<std::size_t>(p_ - begin_);
    }

  private:
    std::uint8_t *begin_;
    std::uint8_t *p_;
    std::uint64_t acc_ = 0;
    int filled_ = 0;
};

/** LSB-first bit reader. */
class BitReader
{
  public:
    explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

    std::uint32_t
    readBits(int nbits)
    {
        while (filled_ < nbits) {
            if (pos_ >= data_.size())
                throw std::runtime_error("deflate: truncated stream");
            acc_ |= static_cast<std::uint64_t>(data_[pos_++]) << filled_;
            filled_ += 8;
        }
        const std::uint32_t v =
            static_cast<std::uint32_t>(acc_ & ((1u << nbits) - 1));
        acc_ >>= nbits;
        filled_ -= nbits;
        return v;
    }

    /** Read one Huffman-coded bit (same order as readBits(1)). */
    std::uint32_t readBit() { return readBits(1); }

    void
    align()
    {
        acc_ = 0;
        filled_ = 0;
    }

    std::uint8_t
    readByte()
    {
        assert(filled_ == 0);
        if (pos_ >= data_.size())
            throw std::runtime_error("deflate: truncated stream");
        return data_[pos_++];
    }

  private:
    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
    std::uint64_t acc_ = 0;
    int filled_ = 0;
};

// --- Canonical Huffman machinery (dynamic blocks) ---------------------

/**
 * Cap the Huffman code lengths @p lengths at @p max_len while keeping
 * the code complete (Kraft sum exactly 1), as miniz's
 * tdefl_huffman_enforce_max_code_size does: clamp the length counts,
 * then repeatedly split the deepest code shorter than @p max_len,
 * which takes one code at @p max_len off the excess per round. The
 * lengths go back to the symbols by frequency, longest to the rarest.
 */
void
limitCodeLengths(std::span<const std::uint32_t> freq,
                 std::span<std::uint8_t> lengths, int max_len)
{
    std::array<std::uint32_t, kMaxCodeBits + 1> count{};
    std::array<std::uint16_t, kLitLenSymbols> order{};
    std::size_t used = 0;
    for (std::size_t s = 0; s < lengths.size(); ++s) {
        if (lengths[s] == 0)
            continue;
        ++count[std::min<std::size_t>(lengths[s],
                                      static_cast<std::size_t>(max_len))];
        order[used++] = static_cast<std::uint16_t>(s);
    }
    std::uint32_t kraft = 0;
    for (int l = 1; l <= max_len; ++l)
        kraft += count[static_cast<std::size_t>(l)] << (max_len - l);
    const std::uint32_t full = std::uint32_t{1} << max_len;
    for (; kraft > full; --kraft) {
        --count[static_cast<std::size_t>(max_len)];
        for (int l = max_len - 1; l > 0; --l) {
            if (count[static_cast<std::size_t>(l)] != 0) {
                --count[static_cast<std::size_t>(l)];
                count[static_cast<std::size_t>(l) + 1] += 2;
                break;
            }
        }
    }
    std::sort(order.begin(), order.begin() + static_cast<long>(used),
              [&](std::uint16_t a, std::uint16_t b) {
                  return freq[a] != freq[b] ? freq[a] < freq[b] : a < b;
              });
    std::size_t next = 0;
    for (int l = max_len; l > 0; --l)
        for (std::uint32_t k = 0; k < count[static_cast<std::size_t>(l)];
             ++k)
            lengths[order[next++]] = static_cast<std::uint8_t>(l);
}

/**
 * Length-limited Huffman code lengths for the given frequencies.
 * Unused symbols get length 0; a single used symbol gets length 1.
 * Any code of two or more symbols is complete.
 */
void
buildCodeLengths(std::span<const std::uint32_t> freq, int max_len,
                 std::span<std::uint8_t> lengths)
{
    assert(freq.size() == lengths.size() &&
           freq.size() <= static_cast<std::size_t>(kLitLenSymbols));
    std::fill(lengths.begin(), lengths.end(), std::uint8_t{0});

    // Nodes 0..used-1 are leaves in symbol order; merged nodes follow.
    // The heap orders by (weight, node id), a strict total order, so
    // ties break identically on every platform.
    constexpr std::size_t kMaxNodes = 2 * kLitLenSymbols;
    std::array<std::uint64_t, kMaxNodes> weight{};
    std::array<std::uint16_t, kMaxNodes> parent{};
    std::array<std::uint16_t, kLitLenSymbols> symbol{};
    std::array<std::uint16_t, kLitLenSymbols> heap{};
    std::size_t used = 0;
    for (std::size_t s = 0; s < freq.size(); ++s) {
        if (freq[s] > 0) {
            weight[used] = freq[s];
            symbol[used] = static_cast<std::uint16_t>(s);
            heap[used] = static_cast<std::uint16_t>(used);
            ++used;
        }
    }
    if (used == 0)
        return;
    if (used == 1) {
        lengths[symbol[0]] = 1;
        return;
    }

    auto heavier = [&](std::uint16_t a, std::uint16_t b) {
        return weight[a] != weight[b] ? weight[a] > weight[b] : a > b;
    };
    auto *const hbeg = heap.data();
    std::size_t hsize = used;
    std::make_heap(hbeg, hbeg + hsize, heavier);
    std::size_t nodes = used;
    while (hsize > 1) {
        std::pop_heap(hbeg, hbeg + hsize--, heavier);
        const std::uint16_t a = heap[hsize];
        std::pop_heap(hbeg, hbeg + hsize--, heavier);
        const std::uint16_t b = heap[hsize];
        weight[nodes] = weight[a] + weight[b];
        parent[a] = parent[b] = static_cast<std::uint16_t>(nodes);
        heap[hsize++] = static_cast<std::uint16_t>(nodes);
        std::push_heap(hbeg, hbeg + hsize, heavier);
        ++nodes;
    }

    // A parent always has a higher id than its children, so one
    // downward pass from the root assigns every depth.
    std::array<std::uint16_t, kMaxNodes> depth{};
    int deepest = 0;
    for (std::size_t id = nodes - 1; id-- > 0;) {
        depth[id] = static_cast<std::uint16_t>(depth[parent[id]] + 1);
        if (id < used)
            deepest = std::max<int>(deepest, depth[id]);
    }
    for (std::size_t i = 0; i < used; ++i)
        lengths[symbol[i]] = static_cast<std::uint8_t>(
            std::min<int>(depth[i], kMaxCodeBits + 1));
    if (deepest > max_len)
        limitCodeLengths(freq, lengths, max_len);
}

/** A code set for the writer: lengths and bit-reversed canonical codes. */
template <std::size_t N>
struct WriterCode
{
    std::array<std::uint8_t, N> len{};
    std::array<std::uint16_t, N> rev{};

    /** Canonical code values for len (RFC 1951 §3.2.2). */
    void
    assignCanonical()
    {
        std::array<std::uint32_t, kMaxCodeBits + 1> bl_count{};
        for (std::uint8_t l : len)
            if (l > 0)
                ++bl_count[l];
        std::array<std::uint32_t, kMaxCodeBits + 1> next_code{};
        std::uint32_t code = 0;
        for (int l = 1; l <= kMaxCodeBits; ++l) {
            code = (code + bl_count[static_cast<std::size_t>(l) - 1]) << 1;
            next_code[static_cast<std::size_t>(l)] = code;
        }
        for (std::size_t i = 0; i < N; ++i)
            if (len[i] > 0)
                rev[i] = static_cast<std::uint16_t>(
                    reverseBits(next_code[len[i]]++, len[i]));
    }
};

/** One code-length-alphabet symbol and its repeat payload. */
struct ClSymbol
{
    std::uint8_t sym;
    std::uint8_t extra;
};

/**
 * RLE-encode the concatenated literal+distance length arrays with the
 * 0-18 code-length alphabet (16 = repeat previous 3-6, 17 = zero run
 * 3-10, 18 = zero run 11-138) into @p out; returns the symbol count
 * (at most one per length).
 */
std::size_t
rleCodeLengths(std::span<const std::uint8_t> lengths, ClSymbol *out)
{
    std::size_t k = 0;
    auto emit = [&](int sym, std::size_t extra) {
        out[k++] = {static_cast<std::uint8_t>(sym),
                    static_cast<std::uint8_t>(extra)};
    };
    std::size_t i = 0;
    while (i < lengths.size()) {
        const std::uint8_t v = lengths[i];
        std::size_t run = 1;
        while (i + run < lengths.size() && lengths[i + run] == v)
            ++run;
        if (v == 0) {
            std::size_t left = run;
            while (left >= 11) {
                const std::size_t take = std::min<std::size_t>(left, 138);
                emit(18, take - 11);
                left -= take;
            }
            while (left >= 3) {
                const std::size_t take = std::min<std::size_t>(left, 10);
                emit(17, take - 3);
                left -= take;
            }
            while (left-- > 0)
                emit(0, 0);
        } else {
            emit(v, 0);
            std::size_t left = run - 1;
            while (left >= 3) {
                const std::size_t take = std::min<std::size_t>(left, 6);
                emit(16, take - 3);
                left -= take;
            }
            while (left-- > 0)
                emit(v, 0);
        }
        i += run;
    }
    return k;
}

using Token = Deflater::Token;

/** Render one complete fixed-Huffman block (BFINAL set). */
void
emitFixedBlock(BitWriter &bw, std::span<const Token> tokens)
{
    const CodeTables &ct = codeTables();
    bw.putBits(1, 1);   // BFINAL
    bw.putBits(1, 2);   // BTYPE = 01 fixed
    for (const Token &t : tokens) {
        const std::size_t c = t.lit_or_len;
        if (t.dist == 0) {
            bw.putBits(ct.fixedLit[c], ct.fixedLitLen[c]);
            continue;
        }
        const int lc = ct.lengthCode[c];
        const std::size_t lsym = static_cast<std::size_t>(257 + lc);
        const int dc = ct.dist(t.dist);
        // Length code + extra + 5-bit distance code + extra: at most
        // 8 + 5 + 5 + 13 = 31 bits, one write.
        int bits = ct.fixedLitLen[lsym];
        std::uint32_t v = ct.fixedLit[lsym];
        v |= static_cast<std::uint32_t>(t.lit_or_len - kLengthBase[lc])
             << bits;
        bits += kLengthExtra[lc];
        v |= static_cast<std::uint32_t>(ct.fixedDist[static_cast<std::size_t>(
                 dc)])
             << bits;
        bits += 5;
        v |= static_cast<std::uint32_t>(t.dist - kDistBase[dc]) << bits;
        bits += kDistExtra[dc];
        bw.putBits(v, bits);
    }
    bw.putBits(ct.fixedLit[256], ct.fixedLitLen[256]);   // end of block
}

/** Render one complete dynamic-Huffman block (BFINAL set). */
void
emitDynamicBlock(BitWriter &bw, std::span<const Token> tokens)
{
    const CodeTables &ct = codeTables();

    // Symbol frequencies.
    std::array<std::uint32_t, kLitLenSymbols> lit_freq{};
    std::array<std::uint32_t, kDistSymbols> dist_freq{};
    for (const Token &t : tokens) {
        if (t.dist == 0) {
            ++lit_freq[t.lit_or_len];
        } else {
            ++lit_freq[static_cast<std::size_t>(
                257 + ct.lengthCode[t.lit_or_len])];
            ++dist_freq[static_cast<std::size_t>(ct.dist(t.dist))];
        }
    }
    ++lit_freq[256];   // end-of-block always occurs

    WriterCode<kLitLenSymbols> lit;
    WriterCode<kDistSymbols> dist;
    buildCodeLengths(lit_freq, kMaxCodeBits, lit.len);
    buildCodeLengths(dist_freq, kMaxCodeBits, dist.len);
    // The distance code set may be empty (all-literal data); the spec
    // still transmits at least one distance code length.
    if (std::all_of(dist.len.begin(), dist.len.end(),
                    [](std::uint8_t l) { return l == 0; }))
        dist.len[0] = 1;
    lit.assignCanonical();
    dist.assignCanonical();

    // Trim trailing unused symbols: HLIT >= 257, HDIST >= 1.
    std::size_t hlit = kLitLenSymbols;
    while (hlit > 257 && lit.len[hlit - 1] == 0)
        --hlit;
    std::size_t hdist = kDistSymbols;
    while (hdist > 1 && dist.len[hdist - 1] == 0)
        --hdist;

    std::array<std::uint8_t, kLitLenSymbols + kDistSymbols> all{};
    std::copy_n(lit.len.begin(), hlit, all.begin());
    std::copy_n(dist.len.begin(), hdist, all.begin() + hlit);
    std::array<ClSymbol, kLitLenSymbols + kDistSymbols> rle{};
    const std::size_t nrle = rleCodeLengths(
        std::span<const std::uint8_t>(all.data(), hlit + hdist), rle.data());

    std::array<std::uint32_t, kClSymbols> cl_freq{};
    for (std::size_t i = 0; i < nrle; ++i)
        ++cl_freq[rle[i].sym];
    WriterCode<kClSymbols> cl;
    buildCodeLengths(cl_freq, 7, cl.len);
    // At least 257 lengths always take two distinct symbols, so the
    // code-length code never degenerates to an (incomplete) single code.
    assert(std::count(cl.len.begin(), cl.len.end(), 0) <= kClSymbols - 2);
    cl.assignCanonical();

    std::size_t hclen = kClSymbols;
    while (hclen > 4 && cl.len[kClPermutation[hclen - 1]] == 0)
        --hclen;

    bw.putBits(1, 1);   // BFINAL
    bw.putBits(2, 2);   // BTYPE = 10 dynamic
    bw.putBits(static_cast<std::uint32_t>(hlit - 257), 5);
    bw.putBits(static_cast<std::uint32_t>(hdist - 1), 5);
    bw.putBits(static_cast<std::uint32_t>(hclen - 4), 4);
    for (std::size_t i = 0; i < hclen; ++i)
        bw.putBits(cl.len[kClPermutation[i]], 3);
    constexpr int kRepeatBits[3] = {2, 3, 7};   // symbols 16, 17, 18
    for (std::size_t i = 0; i < nrle; ++i) {
        const ClSymbol c = rle[i];
        bw.putBits(cl.rev[c.sym], cl.len[c.sym]);
        if (c.sym >= 16)
            bw.putBits(c.extra, kRepeatBits[c.sym - 16]);
    }

    for (const Token &t : tokens) {
        if (t.dist == 0) {
            bw.putBits(lit.rev[t.lit_or_len], lit.len[t.lit_or_len]);
            continue;
        }
        // Each code with its extra bits: at most 15 + 13 bits a write.
        const int lc = ct.lengthCode[t.lit_or_len];
        const std::size_t lsym = static_cast<std::size_t>(257 + lc);
        const auto lextra =
            static_cast<std::uint32_t>(t.lit_or_len - kLengthBase[lc]);
        bw.putBits(lit.rev[lsym] | lextra << lit.len[lsym],
                   lit.len[lsym] + kLengthExtra[lc]);
        const auto dc = static_cast<std::size_t>(ct.dist(t.dist));
        const auto dextra =
            static_cast<std::uint32_t>(t.dist - kDistBase[dc]);
        bw.putBits(dist.rev[dc] | dextra << dist.len[dc],
                   dist.len[dc] + kDistExtra[dc]);
    }
    bw.putBits(lit.rev[256], lit.len[256]);   // end of block
}

/** Length of the common prefix of @p a and @p b, at most @p cap. */
int
matchLength(const std::uint8_t *a, const std::uint8_t *b, int cap)
{
    int len = 0;
    if constexpr (std::endian::native == std::endian::little) {
        for (; len + 8 <= cap; len += 8) {
            std::uint64_t x = 0, y = 0;
            std::memcpy(&x, a + len, 8);
            std::memcpy(&y, b + len, 8);
            if (const std::uint64_t diff = x ^ y)
                return len + std::countr_zero(diff) / 8;
        }
    }
    while (len < cap && a[len] == b[len])
        ++len;
    return len;
}

} // namespace

Deflater::Deflater() : head_(kHashSize, 0) {}

// halint: hotpath
std::span<const std::uint8_t>
Deflater::compress(std::span<const std::uint8_t> input,
                   const DeflateConfig &cfg)
{
    const std::uint8_t *in = input.data();
    const std::size_t n = input.size();
    if (base_ > std::numeric_limits<std::uint32_t>::max() - n) {
        std::fill(head_.begin(), head_.end(), 0u);
        base_ = 1;
    }

    // Worst cases: a coded byte costs at most 16 bits (a 3-byte match
    // at 15 + 5 + 15 + 13 bits), a dynamic header under 600 bytes, a
    // stored block 5 bytes per 64 KiB.
    const std::size_t bound = 2 * n + 5 * (n / 65535) + 1024;
    if (prev_.size() < n) {
        // halint: allow(HAL-W004) grows once to the largest input
        prev_.resize(n);
        // halint: allow(HAL-W004) grows once to the largest input
        tokens_.resize(n);
    }
    if (out_.size() < bound) {
        // halint: allow(HAL-W004) grows once to the largest input
        out_.resize(bound);
        // halint: allow(HAL-W004) grows once to the largest input
        alt_.resize(bound);
    }

    // Hash chains over 3-byte prefixes, built in one pass before any
    // matching: prev_[i] is the nearest earlier position with i's
    // hash, so a search at i starts there and never sees i itself
    // (distance 0) or a later position. A head or link below base_
    // belongs to an earlier input and reads as "no candidate". The
    // rolling window holds in[i..i+2] as one 24-bit value.
    const std::uint32_t base = base_;
    if (n >= kMinMatch) {
        std::uint32_t window =
            std::uint32_t{in[0]} << 8 | std::uint32_t{in[1]};
        for (std::size_t i = 0; i + kMinMatch <= n; ++i) {
            window = (window << 8 | in[i + 2]) & 0xffffffu;
            std::uint32_t &head =
                head_[(window * 2654435761u) >> (32 - kHashBits)];
            prev_[i] = head;
            head = base + static_cast<std::uint32_t>(i);
        }
    }

    // Longest match at pos strictly longer than @p floor among the
    // chain's first max_chain candidates (nearest first; the first of
    // equal lengths wins), or 0; best_dist is written only when a
    // match is returned. The lazy probe passes the current match
    // length, as zlib's prev_length; matches under kMinMatch never
    // count, so they are below the floor too. A candidate that
    // differs at best_len cannot beat it, so it is skipped without a
    // full compare, as zlib's scan_end test does.
    auto findMatch = [&](std::size_t pos, int floor, int &best_dist) {
        if (pos + kMinMatch > n)
            return 0;
        const int cap =
            static_cast<int>(std::min<std::size_t>(kMaxMatch, n - pos));
        floor = std::max(floor, kMinMatch - 1);
        if (floor >= cap)
            return 0;
        int best_len = floor;
        std::uint32_t cand = prev_[pos];
        unsigned chain = cfg.max_chain;
        while (cand >= base && chain-- > 0) {
            const std::size_t cpos = cand - base;
            if (pos - cpos > kWindowSize)
                break;
            const auto at = static_cast<std::size_t>(best_len);
            if (in[cpos + at] == in[pos + at]) {
                const int len = matchLength(in + cpos, in + pos, cap);
                if (len > best_len) {
                    best_len = len;
                    best_dist = static_cast<int>(pos - cpos);
                    if (len >= cap)   // nothing later can be longer
                        break;
                }
            }
            cand = prev_[cpos];
        }
        return best_len > floor ? best_len : 0;
    };

    std::size_t ntok = 0;
    std::size_t pos = 0;
    while (pos < n) {
        int dist = 0;
        int len = findMatch(pos, 0, dist);
        if (len > 0 && cfg.lazy_match) {
            // One-step lazy evaluation, as zlib does: if the next
            // position has a strictly longer match, emit a literal
            // and take that one instead.
            if (const int len2 = findMatch(pos + 1, len, dist)) {
                tokens_[ntok++] = {in[pos], 0};
                ++pos;
                len = len2;
            }
        }

        if (len > 0) {
            tokens_[ntok++] = {static_cast<std::uint16_t>(len),
                               static_cast<std::uint16_t>(dist)};
            pos += static_cast<std::size_t>(len);
        } else {
            tokens_[ntok++] = {in[pos], 0};
            ++pos;
        }
    }
    base_ = base + static_cast<std::uint32_t>(n);
    const std::span<const Token> tokens(tokens_.data(), ntok);

    // Render the cheaper of the fixed and dynamic encodings.
    BitWriter fixed(out_.data());
    emitFixedBlock(fixed, tokens);
    BitWriter dyn(alt_.data());
    if (cfg.allow_dynamic)
        emitDynamicBlock(dyn, tokens);
    const bool use_dyn =
        cfg.allow_dynamic && dyn.bitCount() < fixed.bitCount();
    const std::uint8_t *data = use_dyn ? alt_.data() : out_.data();
    std::size_t size = use_dyn ? dyn.finish() : fixed.finish();

    if (cfg.allow_stored && size > n + 5 * (n / 65535 + 1)) {
        // Compression expanded the data; fall back to stored blocks.
        BitWriter sw(out_.data());
        std::size_t off = 0;
        do {
            const std::size_t chunk = std::min<std::size_t>(n - off, 65535);
            sw.putBits(off + chunk == n ? 1 : 0, 1);   // BFINAL
            sw.putBits(0, 2);                          // BTYPE = 00 stored
            sw.align();
            const auto len = static_cast<std::uint32_t>(chunk);
            sw.putBits(len | (~len & 0xffffu) << 16, 32);   // LEN, NLEN
            sw.putBytes(in + off, chunk);
            off += chunk;
        } while (off < n);
        size = sw.finish();
        data = out_.data();
    }
    return {data, size};
}

std::vector<std::uint8_t>
deflateCompress(std::span<const std::uint8_t> input, const DeflateConfig &cfg)
{
    Deflater deflater;
    const std::span<const std::uint8_t> out = deflater.compress(input, cfg);
    return {out.begin(), out.end()};
}

namespace {

/**
 * Canonical Huffman decoder: per-length first-code tables plus the
 * symbol list sorted by (length, symbol).
 */
class CanonicalDecoder
{
  public:
    /**
     * @param checked reject over-subscribed and incomplete sets, as
     *        zlib's inflate_table does; @p lone_ok allows the one
     *        incomplete exception, a single length-1 code
     */
    CanonicalDecoder(std::span<const std::uint8_t> lengths, bool checked,
                     bool lone_ok)
    {
        for (std::uint8_t l : lengths)
            maxLen_ = std::max<int>(maxLen_, l);
        if (maxLen_ == 0)
            return;
        count_.assign(static_cast<std::size_t>(maxLen_) + 1, 0);
        for (std::uint8_t l : lengths)
            if (l > 0)
                ++count_[l];
        if (checked) {
            std::int64_t left = 1;
            for (int len = 1; len <= maxLen_; ++len) {
                left = 2 * left -
                       static_cast<std::int64_t>(
                           count_[static_cast<std::size_t>(len)]);
                if (left < 0)
                    throw std::runtime_error(
                        "deflate: over-subscribed code lengths");
            }
            if (left > 0 && !(lone_ok && maxLen_ == 1))
                throw std::runtime_error(
                    "deflate: incomplete code lengths");
        }
        firstCode_.assign(static_cast<std::size_t>(maxLen_) + 1, 0);
        firstIndex_.assign(static_cast<std::size_t>(maxLen_) + 1, 0);
        std::uint32_t code = 0, index = 0;
        for (int len = 1; len <= maxLen_; ++len) {
            code = (code + count_[static_cast<std::size_t>(len) - 1])
                   << 1;
            firstCode_[static_cast<std::size_t>(len)] = code;
            firstIndex_[static_cast<std::size_t>(len)] = index;
            index += count_[static_cast<std::size_t>(len)];
        }
        symbols_.resize(index);
        std::uint32_t pos = 0;
        for (int len = 1; len <= maxLen_; ++len)
            for (std::size_t s = 0; s < lengths.size(); ++s)
                if (lengths[s] == len)
                    symbols_[pos++] = static_cast<std::uint16_t>(s);
    }

    bool usable() const { return maxLen_ > 0; }

    int
    decode(BitReader &br) const
    {
        std::uint32_t code = 0;
        for (int len = 1; len <= maxLen_; ++len) {
            code = (code << 1) | br.readBit();
            const std::uint32_t first =
                firstCode_[static_cast<std::size_t>(len)];
            const std::uint32_t cnt =
                count_[static_cast<std::size_t>(len)];
            if (cnt != 0 && code >= first && code - first < cnt) {
                return symbols_[firstIndex_[static_cast<std::size_t>(
                                    len)] +
                                (code - first)];
            }
        }
        throw std::runtime_error("deflate: invalid Huffman code");
    }

  private:
    int maxLen_ = 0;
    std::vector<std::uint32_t> count_, firstCode_, firstIndex_;
    std::vector<std::uint16_t> symbols_;
};

/** Shared literal/length + distance decode loop for coded blocks. */
void
inflateCodedBlock(BitReader &br, const CanonicalDecoder &lit,
                  const CanonicalDecoder &dist,
                  std::vector<std::uint8_t> &out)
{
    for (;;) {
        const int sym = lit.decode(br);
        if (sym == 256)
            break;
        if (sym < 256) {
            out.push_back(static_cast<std::uint8_t>(sym));
            continue;
        }
        const int lc = sym - 257;
        if (lc >= 29)
            throw std::runtime_error("deflate: bad length code");
        int len = kLengthBase[lc];
        if (kLengthExtra[lc])
            len += static_cast<int>(br.readBits(kLengthExtra[lc]));
        if (!dist.usable())
            throw std::runtime_error(
                "deflate: match with empty distance code");
        const int dcode = dist.decode(br);
        if (dcode >= 30)
            throw std::runtime_error("deflate: bad distance code");
        int distance = kDistBase[dcode];
        if (kDistExtra[dcode])
            distance += static_cast<int>(br.readBits(kDistExtra[dcode]));
        if (static_cast<std::size_t>(distance) > out.size())
            throw std::runtime_error("deflate: distance too far");
        const std::size_t from =
            out.size() - static_cast<std::size_t>(distance);
        for (int i = 0; i < len; ++i)
            out.push_back(out[from + static_cast<std::size_t>(i)]);
    }
}

/** Fixed-Huffman decoders (RFC 1951 §3.2.6); the distance code has all
 *  32 five-bit codes, 30 and 31 rejected on use. */
const CanonicalDecoder &
fixedLitDecoder()
{
    static const CanonicalDecoder dec = [] {
        std::array<std::uint8_t, 288> len{};
        for (int s = 0; s < 288; ++s)
            len[static_cast<std::size_t>(s)] =
                static_cast<std::uint8_t>(fixedLitCode(s).second);
        return CanonicalDecoder(len, false, false);
    }();
    return dec;
}

const CanonicalDecoder &
fixedDistDecoder()
{
    static const CanonicalDecoder dec = [] {
        std::array<std::uint8_t, 32> len{};
        len.fill(5);
        return CanonicalDecoder(len, false, false);
    }();
    return dec;
}

} // namespace

std::vector<std::uint8_t>
deflateDecompress(std::span<const std::uint8_t> input)
{
    BitReader br(input);
    std::vector<std::uint8_t> out;
    bool final = false;
    while (!final) {
        final = br.readBits(1) != 0;
        const std::uint32_t btype = br.readBits(2);
        if (btype == 0) {
            br.align();
            const std::uint32_t len =
                br.readByte() | (std::uint32_t{br.readByte()} << 8);
            const std::uint32_t nlen =
                br.readByte() | (std::uint32_t{br.readByte()} << 8);
            if ((len ^ nlen) != 0xffff)
                throw std::runtime_error("deflate: stored LEN mismatch");
            for (std::uint32_t i = 0; i < len; ++i)
                out.push_back(br.readByte());
        } else if (btype == 1) {
            inflateCodedBlock(br, fixedLitDecoder(), fixedDistDecoder(),
                              out);
        } else if (btype == 2) {
            const std::size_t hlit = br.readBits(5) + 257;
            const std::size_t hdist = br.readBits(5) + 1;
            const std::size_t hclen = br.readBits(4) + 4;
            if (hlit > 286 || hdist > 30)
                throw std::runtime_error("deflate: bad dynamic header");
            std::vector<std::uint8_t> cl_len(19, 0);
            for (std::size_t i = 0; i < hclen; ++i)
                cl_len[kClPermutation[i]] =
                    static_cast<std::uint8_t>(br.readBits(3));
            const CanonicalDecoder cl(cl_len, true, false);

            std::vector<std::uint8_t> all;
            all.reserve(hlit + hdist);
            while (all.size() < hlit + hdist) {
                const int sym = cl.decode(br);
                if (sym < 16) {
                    all.push_back(static_cast<std::uint8_t>(sym));
                } else if (sym == 16) {
                    if (all.empty())
                        throw std::runtime_error(
                            "deflate: repeat with no previous length");
                    const std::uint32_t rep = br.readBits(2) + 3;
                    all.insert(all.end(), rep, all.back());
                } else if (sym == 17) {
                    const std::uint32_t rep = br.readBits(3) + 3;
                    all.insert(all.end(), rep, 0);
                } else {
                    const std::uint32_t rep = br.readBits(7) + 11;
                    all.insert(all.end(), rep, 0);
                }
            }
            if (all.size() != hlit + hdist)
                throw std::runtime_error(
                    "deflate: code-length overflow");
            const std::span<const std::uint8_t> lit_len(all.data(), hlit);
            const std::span<const std::uint8_t> dist_len(
                all.data() + hlit, hdist);
            if (lit_len[256] == 0)
                throw std::runtime_error(
                    "deflate: missing end-of-block code");
            const CanonicalDecoder lit(lit_len, true, true);
            const CanonicalDecoder dist(dist_len, true, true);
            inflateCodedBlock(br, lit, dist, out);
        } else {
            throw std::runtime_error("deflate: reserved block type");
        }
    }
    return out;
}

} // namespace halsim::alg
