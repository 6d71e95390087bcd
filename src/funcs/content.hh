/**
 * @file
 * The content-processing functions: plain DPDK forwarding, REM
 * (literal multi-pattern matching over the payload via Aho-Corasick,
 * with teakettle/snort rulesets), public-key cryptography (RSA / DH /
 * DSA over real bignum modexp), and Deflate compression.
 */

#ifndef HALSIM_FUNCS_CONTENT_HH
#define HALSIM_FUNCS_CONTENT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "alg/aho_corasick.hh"
#include "alg/bignum.hh"
#include "alg/corpus.hh"
#include "alg/deflate.hh"
#include "funcs/function.hh"

namespace halsim::funcs {

/**
 * Baseline DPDK packet processing: receive, touch the header, echo.
 * The paper uses this to characterize raw SNIC/host packet rates.
 */
class DpdkFwdFunction : public NetworkFunction
{
  public:
    FunctionId id() const override { return FunctionId::DpdkFwd; }
    bool stateful() const override { return false; }
    void process(net::Packet &pkt,
                 coherence::StateContext &state) override;
    void makeRequest(net::Packet &pkt, Rng &rng) override;
};

/**
 * Regular-expression matching (Hyperscan-style literal rulesets run
 * through an Aho-Corasick automaton).
 *
 * Request payload: scan text (whole payload)
 * Response payload: [match_count:8]
 */
class RemFunction : public KernelFunction
{
  public:
    struct Config
    {
        alg::RulesetKind ruleset = alg::RulesetKind::Teakettle;
        std::size_t rules = 2500;
        /** Fraction of generated payload windows with a planted hit. */
        double hit_rate = 0.05;
        std::uint64_t seed = 5;
    };

    RemFunction() : RemFunction(Config{}) {}
    explicit RemFunction(Config cfg);

    FunctionId id() const override { return FunctionId::Rem; }
    bool stateful() const override { return false; }
    void makeRequest(net::Packet &pkt, Rng &rng) override;
    KernelSummary run(std::span<std::uint8_t> payload,
                      KernelWorkspace *ws) const override;
    void fold(const KernelSummary &s) override { totalMatches_ += s.matches; }

    const alg::AhoCorasick &automaton() const { return *ac_; }
    std::uint64_t totalMatches() const { return totalMatches_; }

  private:
    Config cfg_;
    std::vector<std::string> rules_;
    std::unique_ptr<alg::AhoCorasick> ac_;
    /** Pre-generated scan corpus sliced into payloads. */
    std::vector<std::uint8_t> corpus_;
    std::uint64_t totalMatches_ = 0;
};

/**
 * Public-key cryptography: signs the packet digest with one of
 * RSA / DH / DSA-style modular exponentiations over a 512-bit group.
 *
 * Request payload: [op:1][message...]
 *   op 0 = RSA-style (digest^e mod n, e = 65537)
 *   op 1 = DH-style  (g^x mod p, x from digest)
 *   op 2 = DSA-style (g^k mod p combined with digest)
 * Response payload: [op:1][result bytes:64]
 */
class CryptoFunction : public KernelFunction
{
  public:
    struct Config
    {
        /** Exponent bits used for the DH/DSA ephemeral exponents;
         *  kept modest so a real modexp per packet stays cheap. */
        unsigned exponent_bits = 16;
        /** Bytes of payload covered by the signature digest (real
         *  protocols sign a digest of the session material, not the
         *  bulk payload). */
        std::size_t digest_bytes = 256;
    };

    CryptoFunction() : CryptoFunction(Config{}) {}
    explicit CryptoFunction(Config cfg);

    FunctionId id() const override { return FunctionId::Crypto; }
    bool stateful() const override { return false; }
    void makeRequest(net::Packet &pkt, Rng &rng) override;
    /** Allocation-free: every operand is a fixed word array. */
    KernelSummary run(std::span<std::uint8_t> payload,
                      KernelWorkspace *ws) const override;

    const alg::BigUint &modulus() const { return mont_.modulus(); }

  private:
    Config cfg_;
    alg::MontgomeryContext mont_;   //!< over the 512-bit prime modulus
    alg::MontgomeryContext::Words g_{};   //!< generator
};

/**
 * Deflate compression of the payload (Silesia-like content).
 *
 * Request payload: raw data (whole payload)
 * Response payload: [orig_len:4][comp_len:4][compressed prefix...]
 */
class CompressFunction : public KernelFunction
{
  public:
    struct Config
    {
        unsigned max_chain = 16;   //!< per-packet effort
        std::uint64_t seed = 6;
    };

    CompressFunction() : CompressFunction(Config{}) {}
    explicit CompressFunction(Config cfg);

    FunctionId id() const override { return FunctionId::Compress; }
    /**
     * The paper treats compression as stateful (it processes a file
     * stream) and excludes it from cooperative processing; we keep
     * the flag so the harness can do the same.
     */
    bool stateful() const override { return true; }
    void makeRequest(net::Packet &pkt, Rng &rng) override;
    std::unique_ptr<KernelWorkspace> makeWorkspace() const override;
    KernelWorkspace *ownWorkspace() override { return &own_; }
    /** @p ws must come from makeWorkspace() or ownWorkspace(). */
    KernelSummary run(std::span<std::uint8_t> payload,
                      KernelWorkspace *ws) const override;
    void
    fold(const KernelSummary &s) override
    {
        bytesIn_ += s.bytes_in;
        bytesOut_ += s.bytes_out;
    }

    std::uint64_t bytesIn() const { return bytesIn_; }
    std::uint64_t bytesOut() const { return bytesOut_; }

  private:
    /** One thread's compression workspace. */
    struct Workspace : KernelWorkspace
    {
        alg::Deflater deflater;
    };

    Config cfg_;
    std::vector<std::uint8_t> corpus_;
    /** The workspace process() uses (never shared). */
    Workspace own_;
    std::uint64_t bytesIn_ = 0;
    std::uint64_t bytesOut_ = 0;
};

} // namespace halsim::funcs

#endif // HALSIM_FUNCS_CONTENT_HH
