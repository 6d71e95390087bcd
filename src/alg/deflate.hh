/**
 * @file
 * DEFLATE (RFC 1951) compressor and decompressor: the substrate for
 * the paper's (de)compression function, which drives the BF-2 Deflate
 * accelerator or the host's QATzip. We implement LZ77 with a 32 KiB
 * window and hash-chain matching, and emit one block in whichever of
 * the fixed- and dynamic-Huffman encodings is smaller (dynamic only
 * when DeflateConfig::allow_dynamic, the default), falling back to
 * stored blocks when compression would expand the data. The inflater
 * decodes all three block types.
 */

#ifndef HALSIM_ALG_DEFLATE_HH
#define HALSIM_ALG_DEFLATE_HH

#include <cstdint>
#include <span>
#include <vector>

namespace halsim::alg {

/** Compression effort, mirroring deflate levels. */
struct DeflateConfig
{
    unsigned max_chain = 128;   //!< hash-chain probes per position
    bool lazy_match = true;     //!< one-step lazy matching
    /** Emit a stored block when compression would expand the data. */
    bool allow_stored = true;
    /** Build a dynamic Huffman block and keep it when it beats the
     *  fixed encoding (RFC 1951 BTYPE=10). */
    bool allow_dynamic = true;
};

/**
 * Reusable compression workspace: hash heads, chain links, the token
 * stream and the output buffers survive across calls, so compressing
 * a packet allocates nothing once the buffers have grown to the
 * largest input. Hash heads are tagged with a per-call base offset
 * (an entry below the base belongs to an earlier input), so no call
 * clears the 128 KiB head table. One instance per caller; not
 * thread-safe.
 */
class Deflater
{
  public:
    /** One LZ77 token: a literal (dist == 0) or a (length, dist) match. */
    struct Token
    {
        std::uint16_t lit_or_len;
        std::uint16_t dist;
    };

    Deflater();

    /**
     * Compress @p input into a self-contained DEFLATE stream. The
     * result views the workspace and stays valid until the next call.
     */
    std::span<const std::uint8_t> compress(
        std::span<const std::uint8_t> input,
        const DeflateConfig &cfg = DeflateConfig{});

  private:
    std::vector<std::uint32_t> head_;   //!< base_ + pos, by 3-byte hash
    std::vector<std::uint32_t> prev_;   //!< chain link per position
    std::vector<Token> tokens_;
    std::vector<std::uint8_t> out_;     //!< fixed or stored encoding
    std::vector<std::uint8_t> alt_;     //!< dynamic encoding
    std::uint32_t base_ = 1;            //!< this call's head tag base
};

/**
 * Compress @p input into a self-contained DEFLATE stream (a fresh
 * Deflater per call; reuse a Deflater on hot paths).
 */
std::vector<std::uint8_t> deflateCompress(
    std::span<const std::uint8_t> input,
    const DeflateConfig &cfg = DeflateConfig{});

/**
 * Decompress any conforming DEFLATE stream (stored, fixed, and
 * dynamic blocks). Like zlib, rejects over-subscribed and incomplete
 * dynamic code sets; the one incomplete set allowed is a literal or
 * distance code of a single length-1 code.
 * @throws std::runtime_error on malformed input
 */
std::vector<std::uint8_t> deflateDecompress(
    std::span<const std::uint8_t> input);

} // namespace halsim::alg

#endif // HALSIM_ALG_DEFLATE_HH
