/**
 * @file
 * The network-function abstraction: the ten DPDK functions of the
 * paper (Table IV), each functionally real. A function parses its
 * request out of a packet's UDP payload, computes an answer, and
 * rewrites the payload into a response in place.
 *
 * Functional behaviour and timing are separated: process() does the
 * real work on real bytes (so it is unit-testable and semantically
 * correct), while the per-platform cost of that work comes from the
 * calibration tables (calibration.hh) because we cannot
 * cycle-simulate an Arm A72 against a Skylake core. Stateful
 * functions route their state accesses through a
 * coherence::StateContext so shared-state latency and coherence
 * traffic are modeled per access.
 */

#ifndef HALSIM_FUNCS_FUNCTION_HH
#define HALSIM_FUNCS_FUNCTION_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "coherence/domain.hh"
#include "net/packet.hh"
#include "sim/rng.hh"

namespace halsim::funcs {

/** The benchmark functions of Table IV, plus plain DPDK forwarding. */
enum class FunctionId : std::uint8_t
{
    DpdkFwd,   //!< baseline packet forwarding (no function work)
    Kvs,       //!< key-value store (stateful)
    Count,     //!< frequency counting (stateful)
    Ema,       //!< exponential moving average (stateful)
    Nat,       //!< network address translation
    Bm25,      //!< search ranking
    Knn,       //!< k-nearest neighbours
    Bayes,     //!< naive Bayes classifier
    Rem,       //!< regular-expression (literal multi-pattern) matching
    Crypto,    //!< public-key cryptography (RSA / DH / DSA)
    Compress,  //!< Deflate compression
};

inline constexpr std::size_t kFunctionCount = 11;

/**
 * Shared function state is laid out in cache-line-aligned shards
 * (as production counter/table implementations do), so coherence is
 * charged per shard line rather than per logical key. With the
 * director's run-based splitting, shard ownership follows whichever
 * node is currently active and most accesses stay local — the reason
 * the paper measures only a 0.3-3.4% penalty for coherent stateful
 * processing (§VII-B).
 */
inline constexpr std::uint64_t kStateShards = 64;

/** Byte address of the state line holding @p key. */
inline std::uint64_t
stateLineAddr(std::uint64_t key)
{
    return (key % kStateShards) * 64;
}

/** Short lowercase name as used in the paper's tables. */
const char *functionName(FunctionId id);

class KernelFunction;

/**
 * One network function: real request parsing + computation.
 *
 * A single instance owns the function's state and is shared between
 * the SNIC-side and host-side processors during cooperative
 * processing — exactly the sharing HAL needs coherence for. The
 * StateContext identifies which node is executing and accumulates
 * coherent-access latency.
 */
class NetworkFunction
{
  public:
    virtual ~NetworkFunction() = default;

    virtual FunctionId id() const = 0;

    /** True when processing mutates shared state (Table IV "(S)"). */
    virtual bool stateful() const = 0;

    /**
     * Execute the function on @p pkt, rewriting its payload into the
     * response. State accesses go through @p state.
     */
    virtual void process(net::Packet &pkt,
                         coherence::StateContext &state) = 0;

    /**
     * Fill @p pkt's payload with a request for this function
     * (client-side workload generation).
     */
    virtual void makeRequest(net::Packet &pkt, Rng &rng) = 0;

    /** This function as a pure payload kernel, or null when its work
     *  touches shared state or is too cheap to move off-thread. */
    virtual KernelFunction *kernel() { return nullptr; }

    const char *name() const { return functionName(id()); }
};

using FunctionPtr = std::unique_ptr<NetworkFunction>;

/** What one kernel run adds to its function's running totals. */
struct KernelSummary
{
    std::uint64_t matches = 0;     //!< rem: rule matches in the payload
    std::uint64_t bytes_in = 0;    //!< comp: bytes compressed
    std::uint64_t bytes_out = 0;   //!< comp: compressed size
};

/** Scratch state one thread runs a kernel against (comp's Deflater). */
class KernelWorkspace
{
  public:
    KernelWorkspace() = default;
    KernelWorkspace(const KernelWorkspace &) = default;
    KernelWorkspace(KernelWorkspace &&) = default;
    KernelWorkspace &operator=(const KernelWorkspace &) = default;
    KernelWorkspace &operator=(KernelWorkspace &&) = default;
    virtual ~KernelWorkspace() = default;
};

/**
 * A function whose per-packet work is a pure kernel: the response
 * bytes depend only on the request payload and immutable
 * configuration, and all scratch memory lives in a KernelWorkspace.
 * run() is const and may execute on any thread, one workspace per
 * thread; fold() adds the run's summary to the running totals on the
 * simulation thread. process() is exactly run() on the function's
 * own workspace followed by fold(), so a kernel run elsewhere and
 * folded later leaves the same bytes and the same totals.
 */
class KernelFunction : public NetworkFunction
{
  public:
    void
    process(net::Packet &pkt, coherence::StateContext &) final
    {
        fold(run(pkt.payload(), ownWorkspace()));
    }

    KernelFunction *kernel() final { return this; }

    /** A workspace for one more thread; null when run() needs none. */
    virtual std::unique_ptr<KernelWorkspace>
    makeWorkspace() const
    {
        return nullptr;
    }

    /** The workspace process() uses (simulation thread only). */
    virtual KernelWorkspace *ownWorkspace() { return nullptr; }

    /** Rewrite @p payload in place into the response. Reads nothing
     *  but @p payload, immutable config and @p ws (from this
     *  function's makeWorkspace() or ownWorkspace()). */
    virtual KernelSummary run(std::span<std::uint8_t> payload,
                              KernelWorkspace *ws) const = 0;

    /** Add one run's summary to the running totals. */
    virtual void fold(const KernelSummary &) {}
};

} // namespace halsim::funcs

#endif // HALSIM_FUNCS_FUNCTION_HH
