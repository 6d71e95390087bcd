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
 * Compress @p input into a self-contained DEFLATE stream.
 */
std::vector<std::uint8_t> deflateCompress(
    std::span<const std::uint8_t> input,
    const DeflateConfig &cfg = DeflateConfig{});

/**
 * Decompress any conforming DEFLATE stream (stored, fixed, and
 * dynamic blocks).
 * @throws std::runtime_error on malformed input
 */
std::vector<std::uint8_t> deflateDecompress(
    std::span<const std::uint8_t> input);

} // namespace halsim::alg

#endif // HALSIM_ALG_DEFLATE_HH
