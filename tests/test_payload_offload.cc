/**
 * @file
 * Payload kernels on worker threads: a run with the kernels of comp,
 * crypto and rem on 1 or 3 payload workers must be bit-identical to
 * the inline run (0 workers): the same RunResult, the same response
 * bytes and the same function totals. Tearing a server down while
 * kernel runs are still in flight must be clean. Labelled tsan, so
 * the ThreadSanitizer job runs the whole file.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>

#include "core/server.hh"
#include "funcs/content.hh"
#include "funcs/registry.hh"
#include "net/traffic.hh"
#include "proc/payload_pool.hh"
#include "proc/processor.hh"
#include "sim/event_queue.hh"

using namespace halsim;
using namespace halsim::core;
using funcs::FunctionId;

namespace {

constexpr unsigned kWorkerCounts[] = {0, 1, 3};

/** Selects @p n payload workers on this thread while it lives. */
class Workers
{
  public:
    explicit Workers(unsigned n) : prev_(proc::setPayloadWorkers(n)) {}
    ~Workers() { proc::setPayloadWorkers(prev_); }
    Workers(const Workers &) = delete;
    Workers &operator=(const Workers &) = delete;

  private:
    std::optional<unsigned> prev_;
};

/** The running totals a function keeps besides its response bytes. */
struct Totals
{
    std::uint64_t matches = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;

    bool
    operator==(const Totals &o) const
    {
        return matches == o.matches && bytes_in == o.bytes_in &&
               bytes_out == o.bytes_out;
    }
};

Totals
totalsOf(const funcs::NetworkFunction &fn)
{
    Totals t;
    if (const auto *rem = dynamic_cast<const funcs::RemFunction *>(&fn))
        t.matches = rem->totalMatches();
    if (const auto *comp =
            dynamic_cast<const funcs::CompressFunction *>(&fn)) {
        t.bytes_in = comp->bytesIn();
        t.bytes_out = comp->bytesOut();
    }
    return t;
}

ServerConfig
configFor(FunctionId fn, Mode mode)
{
    switch (mode) {
      case Mode::HostOnly: return ServerConfig::hostBaseline(fn);
      case Mode::SnicOnly: return ServerConfig::snicBaseline(fn);
      case Mode::Slb: return ServerConfig::slbBaseline(fn);
      default: return ServerConfig::halDefault(fn);
    }
}

struct ServerRun
{
    std::string json;
    Totals totals;
    unsigned workers = 0;
};

ServerRun
runServer(FunctionId fn, Mode mode, unsigned workers)
{
    const Workers select(workers);
    EventQueue eq;
    ServerSystem sys(eq, configFor(fn, mode));
    ServerRun out;
    out.workers = sys.payloadWorkers();
    const RunResult r = sys.run(std::make_unique<net::ConstantRate>(30.0),
                                1 * kMs, 2 * kMs);
    EXPECT_GT(r.responses, 0u);
    std::ostringstream os;
    r.toJson(os);
    out.json = os.str();
    out.totals = totalsOf(sys.function());
    return out;
}

/** FNV-1a over every response payload, in delivery order. */
struct DigestSink : net::PacketSink
{
    void
    accept(net::PacketPtr pkt) override
    {
        for (std::uint8_t b : pkt->payload()) {
            digest ^= b;
            digest *= 0x100000001b3ull;
        }
        ++count;
        // pkt goes back to the frame pool here.
    }

    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::uint64_t count = 0;
};

/** A request for @p fn from the client, as the generator builds it. */
net::PacketPtr
request(funcs::NetworkFunction &fn, Rng &rng, std::size_t frame,
        std::uint32_t id)
{
    auto pkt = net::makeUdpPacket(
        net::MacAddr::fromUint(0x020000000001),
        net::MacAddr::fromUint(0x020000000002), net::Ipv4Addr(10, 0, 0, 1),
        net::Ipv4Addr(10, 0, 0, 2), 40000, 9000, {}, frame);
    pkt->id = id;
    pkt->flowHash = id * 2654435761u;
    pkt->clientMac = net::MacAddr::fromUint(0x020000000001);
    pkt->clientIp = net::Ipv4Addr(10, 0, 0, 1);
    pkt->clientPort = 40000;
    fn.makeRequest(*pkt, rng);
    return pkt;
}

struct ProcRun
{
    std::uint64_t digest = 0;
    std::uint64_t count = 0;
    Totals totals;
};

/**
 * A burst of requests of mixed sizes straight into one Processor
 * whose responses land in a DigestSink: the sink reads the bytes the
 * moment a response leaves, so a packet handed on before its kernel
 * run was joined shows up as a different digest.
 */
ProcRun
runProcessor(FunctionId id, funcs::ExecUnit unit, unsigned workers)
{
    EventQueue eq;
    funcs::FunctionPtr fn = funcs::makeFunction(id);
    std::unique_ptr<proc::PayloadPool> pool;
    if (workers > 0)
        pool = std::make_unique<proc::PayloadPool>(*fn->kernel(), workers);
    DigestSink sink;
    proc::Processor::Config cfg;
    cfg.platform = funcs::Platform::SnicBf2;
    cfg.profile = funcs::profile(cfg.platform, id);
    cfg.profile.unit = unit;
    cfg.cores = 4;
    cfg.service_mac = net::MacAddr::fromUint(0x020000000002);
    cfg.service_ip = net::Ipv4Addr(10, 0, 0, 2);
    cfg.payload_pool = pool.get();
    {
        proc::Processor p(eq, cfg, *fn, nullptr, sink);
        Rng rng(7);
        Rng sizes(8);
        for (std::uint32_t i = 0; i < 300; ++i) {
            const std::size_t frame = 64 + sizes.uniformInt(1514 - 64 + 1);
            p.input().accept(request(*fn, rng, frame, i));
        }
        eq.runUntil(1 * kSec);
        EXPECT_EQ(p.processedFrames(), sink.count);
    }
    ProcRun out;
    out.digest = sink.digest;
    out.count = sink.count;
    out.totals = totalsOf(*fn);
    return out;
}

class ServerOffload
    : public ::testing::TestWithParam<std::tuple<FunctionId, Mode>>
{
};

} // namespace

TEST_P(ServerOffload, RunResultIdenticalAtAnyWorkerCount)
{
    const auto [fn, mode] = GetParam();
    const ServerRun inline_run = runServer(fn, mode, 0);
    EXPECT_EQ(inline_run.workers, 0u);
    for (unsigned w : kWorkerCounts) {
        if (w == 0)
            continue;
        SCOPED_TRACE(w);
        const ServerRun pooled = runServer(fn, mode, w);
        EXPECT_EQ(pooled.workers, w);
        EXPECT_EQ(pooled.json, inline_run.json);
        EXPECT_TRUE(pooled.totals == inline_run.totals);
    }
    // The totals are real, not trivially equal zeros.
    if (fn == FunctionId::Rem) {
        EXPECT_GT(inline_run.totals.matches, 0u);
    }
    if (fn == FunctionId::Compress) {
        EXPECT_GT(inline_run.totals.bytes_in, 0u);
        EXPECT_GT(inline_run.totals.bytes_out, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    KernelFunctions, ServerOffload,
    ::testing::Combine(::testing::Values(FunctionId::Compress,
                                         FunctionId::Crypto,
                                         FunctionId::Rem),
                       ::testing::Values(Mode::HostOnly, Mode::SnicOnly,
                                         Mode::Hal, Mode::Slb)),
    [](const auto &info) {
        return std::string(funcs::functionName(std::get<0>(info.param))) +
               "_" + modeName(std::get<1>(info.param));
    });

TEST(PayloadOffload, ResponseBytesIdenticalOnCoresAndAccelerator)
{
    for (FunctionId id :
         {FunctionId::Compress, FunctionId::Crypto, FunctionId::Rem}) {
        for (funcs::ExecUnit unit :
             {funcs::ExecUnit::Cpu, funcs::ExecUnit::Accel}) {
            SCOPED_TRACE(funcs::functionName(id));
            SCOPED_TRACE(unit == funcs::ExecUnit::Cpu ? "cpu" : "accel");
            const ProcRun ref = runProcessor(id, unit, 0);
            ASSERT_GT(ref.count, 200u);
            for (unsigned w : kWorkerCounts) {
                SCOPED_TRACE(w);
                const ProcRun r = runProcessor(id, unit, w);
                EXPECT_EQ(r.count, ref.count);
                EXPECT_EQ(r.digest, ref.digest);
                EXPECT_TRUE(r.totals == ref.totals);
            }
        }
    }
}

TEST(PayloadOffload, DestroyServerWithJobsInFlight)
{
    // Requests go straight onto the client link and the run stops
    // while kernels are still running on the workers: the processors
    // and the pool must join them before their packets are freed, and
    // the queue's pending events then free the rest.
    for (FunctionId id :
         {FunctionId::Compress, FunctionId::Crypto, FunctionId::Rem}) {
        for (Mode mode : {Mode::HostOnly, Mode::SnicOnly}) {
            SCOPED_TRACE(funcs::functionName(id));
            SCOPED_TRACE(modeName(mode));
            const Workers select(3);
            EventQueue eq;
            {
                ServerSystem sys(eq, configFor(id, mode));
                ASSERT_EQ(sys.payloadWorkers(), 3u);
                Rng rng(11);
                // The link alone takes 120 us to deliver 1000 frames.
                for (std::uint32_t i = 0; i < 1000; ++i) {
                    sys.clientLink()->accept(request(
                        sys.function(), rng, net::kMtuFrameBytes, i));
                }
                eq.runUntil(60 * kUs);
                proc::Processor *p = mode == Mode::HostOnly
                                         ? sys.hostProcessor()
                                         : sys.snicProcessor();
                EXPECT_LT(p->processedFrames(), 1000u);
            }
        }
    }
}

TEST(PayloadOffload, OnlyKernelFunctionsGetWorkers)
{
    const Workers select(3);
    for (FunctionId id : {FunctionId::DpdkFwd, FunctionId::Nat,
                          FunctionId::Count, FunctionId::Kvs}) {
        EventQueue eq;
        ServerSystem sys(eq, ServerConfig::halDefault(id));
        EXPECT_EQ(sys.payloadWorkers(), 0u) << funcs::functionName(id);
    }
    // A pipeline is not a pure kernel even with REM as a stage.
    ServerConfig pipe = ServerConfig::halDefault(FunctionId::Nat);
    pipe.pipeline_second = FunctionId::Rem;
    EventQueue eq;
    ServerSystem sys(eq, pipe);
    EXPECT_EQ(sys.payloadWorkers(), 0u);
}

TEST(PayloadOffload, WorkerSelection)
{
    const std::optional<unsigned> prev = proc::setPayloadWorkers(2);
    EXPECT_EQ(proc::payloadWorkers(), 2u);
    EXPECT_EQ(proc::setPayloadWorkers(std::nullopt), 2u);
    // The default leaves one CPU to the simulation thread.
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned expect =
        hw > 1 ? std::min(hw - 1, proc::kMaxPayloadWorkers) : 0u;
    EXPECT_EQ(proc::payloadWorkers(), expect);
    // The selection is per thread.
    unsigned other = 99;
    proc::setPayloadWorkers(1);
    std::thread([&other] { other = proc::payloadWorkers(); }).join();
    EXPECT_EQ(other, expect);
    proc::setPayloadWorkers(prev);
}
