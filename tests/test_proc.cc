/**
 * @file
 * Processor models: rings, RSS, poll cores (throughput saturation at
 * the calibrated rate, sleep power, wake penalty), the idle-sleep
 * timer, accelerators (pipeline rate, fixed latency, drops), and the
 * Processor facade.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "funcs/content.hh"
#include "funcs/registry.hh"
#include "net/traffic.hh"
#include "nic/dpdk_ring.hh"
#include "nic/eswitch.hh"
#include "proc/processor.hh"

using namespace halsim;
using namespace halsim::proc;

namespace {

/** Collects finished responses. */
struct Collector : net::PacketSink
{
    explicit Collector(EventQueue &eq) : eq(eq) {}

    void
    accept(net::PacketPtr pkt) override
    {
        latencies.push_back(eq.now() - pkt->clientTx);
        count++;
        bytes += pkt->size();
        last = std::move(pkt);
    }

    EventQueue &eq;
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    std::vector<Tick> latencies;
    net::PacketPtr last;
};

net::PacketPtr
mtuPacket(Tick now, std::uint32_t hash = 0)
{
    auto pkt = net::makeUdpPacket(
        net::MacAddr::fromUint(0xC11E47), net::MacAddr::fromUint(2),
        net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2), 40000,
        9000, {}, net::kMtuFrameBytes);
    pkt->clientTx = now;
    pkt->flowHash = hash;
    pkt->clientMac = net::MacAddr::fromUint(0xC11E47);
    pkt->clientIp = net::Ipv4Addr(10, 0, 0, 1);
    pkt->clientPort = 40000;
    return pkt;
}

Processor::Config
natConfig(funcs::Platform platform, unsigned cores)
{
    Processor::Config cfg;
    cfg.platform = platform;
    cfg.profile = funcs::profile(platform, funcs::FunctionId::Nat);
    cfg.cores = cores;
    cfg.service_mac = net::MacAddr::fromUint(0x5E),
    cfg.service_ip = net::Ipv4Addr(10, 0, 0, 2);
    return cfg;
}

} // namespace

TEST(DpdkRing, FifoAndDrops)
{
    EventQueue eq;
    nic::DpdkRing ring(4);
    int notified = 0;
    ring.setNotify([&] { ++notified; });
    for (std::uint32_t i = 0; i < 6; ++i) {
        auto pkt = mtuPacket(0);
        pkt->id = i;
        ring.accept(std::move(pkt));
    }
    EXPECT_EQ(notified, 1) << "notify only on empty->nonempty";
    EXPECT_EQ(ring.occupancy(), 4u);
    EXPECT_EQ(ring.drops(), 2u);
    EXPECT_EQ(ring.dequeue()->id, 0u);
    EXPECT_EQ(ring.dequeue()->id, 1u);
}

TEST(ESwitch, RoutesByDestinationIp)
{
    EventQueue eq;
    nic::DpdkRing a(16), b(16);
    nic::ESwitch sw;
    sw.addRule(net::Ipv4Addr(10, 0, 0, 2), &a);
    sw.addRule(net::Ipv4Addr(10, 0, 0, 3), &b);

    auto p1 = mtuPacket(0);
    sw.accept(std::move(p1));   // dst 10.0.0.2
    auto p2 = mtuPacket(0);
    p2->ip().rewriteDst(net::Ipv4Addr(10, 0, 0, 3));
    sw.accept(std::move(p2));
    auto p3 = mtuPacket(0);
    p3->ip().rewriteDst(net::Ipv4Addr(9, 9, 9, 9));
    sw.accept(std::move(p3));

    EXPECT_EQ(a.occupancy(), 1u);
    EXPECT_EQ(b.occupancy(), 1u);
    EXPECT_EQ(sw.unrouted(), 1u);
}

TEST(Rss, SpreadsByFlowHash)
{
    nic::DpdkRing q0(64), q1(64), q2(64);
    nic::RssDistributor rss;
    rss.addQueue(&q0);
    rss.addQueue(&q1);
    rss.addQueue(&q2);
    for (std::uint32_t h = 0; h < 30; ++h)
        rss.accept(mtuPacket(0, h));
    EXPECT_EQ(q0.occupancy(), 10u);
    EXPECT_EQ(q1.occupancy(), 10u);
    EXPECT_EQ(q2.occupancy(), 10u);
}

TEST(FixedDelay, DelaysExactly)
{
    EventQueue eq;
    Collector out(eq);
    nic::FixedDelay d(eq, 777, out);
    d.accept(mtuPacket(0));
    eq.run();
    EXPECT_EQ(out.count, 1u);
    EXPECT_EQ(eq.now(), 777u);
}

TEST(Processor, SaturatesAtCalibratedThroughput)
{
    // Offer 80 Gbps of NAT to the 8-core BF-2 model: it must deliver
    // ~41 Gbps (Table II) and drop the rest.
    EventQueue eq;
    Collector out(eq);
    auto nat = funcs::makeFunction(funcs::FunctionId::Nat);
    Processor proc(eq, natConfig(funcs::Platform::SnicBf2, 8), *nat,
                   nullptr, out);

    net::TrafficGenerator::Config gc;
    net::TrafficGenerator gen(eq, gc,
                              std::make_unique<net::ConstantRate>(80.0),
                              proc.input());
    const Tick dur = 100 * kMs;
    gen.start(dur);
    eq.run();

    const double tp = gbps(out.bytes, dur);
    EXPECT_NEAR(tp, 41.0, 1.5);
    EXPECT_GT(proc.drops(), 0u);
}

TEST(Processor, DeliversOfferedLoadBelowCapacity)
{
    EventQueue eq;
    Collector out(eq);
    auto nat = funcs::makeFunction(funcs::FunctionId::Nat);
    Processor proc(eq, natConfig(funcs::Platform::HostSkylake, 8), *nat,
                   nullptr, out);

    net::TrafficGenerator::Config gc;
    net::TrafficGenerator gen(eq, gc,
                              std::make_unique<net::ConstantRate>(40.0),
                              proc.input());
    gen.start(50 * kMs);
    eq.run();
    EXPECT_NEAR(gbps(out.bytes, 50 * kMs), 40.0, 1.0);
    EXPECT_EQ(proc.drops(), 0u);
    EXPECT_EQ(out.count, gen.sentFrames());
}

TEST(Processor, ResponsesCarryServiceIdentity)
{
    EventQueue eq;
    Collector out(eq);
    auto nat = funcs::makeFunction(funcs::FunctionId::Nat);
    Processor proc(eq, natConfig(funcs::Platform::SnicBf2, 2), *nat,
                   nullptr, out);
    proc.input().accept(mtuPacket(0));
    eq.run();
    ASSERT_EQ(out.count, 1u);
    EXPECT_TRUE(out.last->isResponse);
    EXPECT_EQ(out.last->processedBy, net::Processor::SnicCpu);
    EXPECT_EQ(out.last->ip().src(), net::Ipv4Addr(10, 0, 0, 2));
    EXPECT_EQ(out.last->ip().dst(), net::Ipv4Addr(10, 0, 0, 1));
    EXPECT_TRUE(out.last->ip().checksumOk());
    EXPECT_EQ(out.last->eth().dst().toUint(), 0xC11E47u);
}

TEST(Processor, PollingBurnsPowerWhenIdle)
{
    // §III-B: DPDK busy-polling keeps cores hot. Without sleep, the
    // dynamic power is cores * active watts even with zero traffic.
    EventQueue eq;
    Collector out(eq);
    auto nat = funcs::makeFunction(funcs::FunctionId::Nat);
    auto cfg = natConfig(funcs::Platform::HostSkylake, 8);
    Processor proc(eq, cfg, *nat, nullptr, out);
    eq.scheduleFn([] {}, 10 * kMs);
    eq.run();
    EXPECT_NEAR(proc.averageDynamicW(), 8 * cfg.profile.core_active_w,
                0.01);
}

TEST(Processor, SleepCutsIdlePower)
{
    EventQueue eq;
    Collector out(eq);
    auto nat = funcs::makeFunction(funcs::FunctionId::Nat);
    auto cfg = natConfig(funcs::Platform::HostSkylake, 8);
    cfg.sleep = SleepPolicy{true, 1 * kMs, 5 * kUs};
    Processor proc(eq, cfg, *nat, nullptr, out);
    eq.scheduleFn([] {}, 100 * kMs);
    eq.run();
    // Awake for the first ms, asleep for the other 99.
    EXPECT_LT(proc.averageDynamicW(), 8 * cfg.profile.core_active_w * 0.05);
}

TEST(Processor, WakePenaltyDelaysFirstPacket)
{
    EventQueue eq;
    Collector out(eq);
    auto nat = funcs::makeFunction(funcs::FunctionId::Nat);
    auto cfg = natConfig(funcs::Platform::HostSkylake, 1);
    cfg.sleep = SleepPolicy{true, 1 * kMs, 50 * kUs};
    Processor proc(eq, cfg, *nat, nullptr, out);

    // Let the core fall deeply asleep, deliver one packet, then a
    // second one 50 us after the first — before the core can sleep
    // again (sleep_after is 1 ms).
    eq.scheduleFn(
        [&] { proc.input().accept(mtuPacket(eq.now())); }, 10 * kMs);
    eq.scheduleFn(
        [&] { proc.input().accept(mtuPacket(eq.now())); },
        10 * kMs + 100 * kUs);
    eq.run();
    ASSERT_EQ(out.count, 2u);
    EXPECT_GE(out.latencies[0], 50 * kUs)
        << "the wake-up penalty must show up in latency";
    EXPECT_LT(out.latencies[1], out.latencies[0] - 40 * kUs)
        << "an awake core must not pay the penalty";
}

TEST(Accelerator, PipelineRateAndLatency)
{
    // BF-2 REM accel: 47 Gbps pipeline, 20 us fixed latency.
    EventQueue eq;
    Collector out(eq);
    auto rem = funcs::makeFunction(funcs::FunctionId::Rem);
    Processor::Config cfg;
    cfg.platform = funcs::Platform::SnicBf2;
    cfg.profile = funcs::profile(funcs::Platform::SnicBf2,
                                 funcs::FunctionId::Rem);
    cfg.service_mac = net::MacAddr::fromUint(0x5E);
    cfg.service_ip = net::Ipv4Addr(10, 0, 0, 2);
    Processor proc(eq, cfg, *rem, nullptr, out);
    EXPECT_TRUE(proc.usesAccel());

    // Single packet: latency = serialization + pipeline latency.
    proc.input().accept(mtuPacket(0));
    eq.run();
    ASSERT_EQ(out.count, 1u);
    const Tick ser = transferTicks(1500, 47.0);
    EXPECT_EQ(out.latencies[0], ser + 20 * kUs);
    EXPECT_EQ(out.last->processedBy, net::Processor::SnicAccel);
}

TEST(Accelerator, SaturatesAndDrops)
{
    EventQueue eq;
    Collector out(eq);
    auto rem = funcs::makeFunction(funcs::FunctionId::Rem);
    Processor::Config cfg;
    cfg.platform = funcs::Platform::SnicBf2;
    cfg.profile = funcs::profile(funcs::Platform::SnicBf2,
                                 funcs::FunctionId::Rem);
    cfg.service_mac = net::MacAddr::fromUint(0x5E);
    cfg.service_ip = net::Ipv4Addr(10, 0, 0, 2);
    Processor proc(eq, cfg, *rem, nullptr, out);

    net::TrafficGenerator::Config gc;
    net::TrafficGenerator gen(eq, gc,
                              std::make_unique<net::ConstantRate>(90.0),
                              proc.input());
    const Tick dur = 50 * kMs;
    gen.start(dur);
    eq.run();
    EXPECT_NEAR(gbps(out.bytes, dur), 47.0, 1.5)
        << "REM accelerator tops out below the 50 Gbps cap";
    EXPECT_GT(proc.drops(), 0u);
}

TEST(Processor, ScalesWithCoreCount)
{
    // 4 cores deliver half the 8-core rate.
    EventQueue eq;
    Collector out(eq);
    auto nat = funcs::makeFunction(funcs::FunctionId::Nat);
    Processor proc(eq, natConfig(funcs::Platform::SnicBf2, 4), *nat,
                   nullptr, out);
    net::TrafficGenerator::Config gc;
    net::TrafficGenerator gen(eq, gc,
                              std::make_unique<net::ConstantRate>(80.0),
                              proc.input());
    const Tick dur = 50 * kMs;
    gen.start(dur);
    eq.run();
    EXPECT_NEAR(gbps(out.bytes, dur), 41.0 / 2, 1.0);
}

TEST(Processor, StatefulFunctionPaysCoherence)
{
    // The same Count workload processed with and without a coherence
    // domain: the coherent run must be slower (state access latency).
    auto run = [](coherence::CoherenceDomain *domain) {
        EventQueue eq;
        Collector out(eq);
        auto count = funcs::makeFunction(funcs::FunctionId::Count);
        Processor proc(eq,
                       natConfig(funcs::Platform::SnicBf2, 1), *count,
                       domain, out);
        Rng rng(3);
        for (int i = 0; i < 50; ++i) {
            auto pkt = mtuPacket(0);
            count->makeRequest(*pkt, rng);
            proc.input().accept(std::move(pkt));
        }
        eq.run();
        return eq.now();
    };
    coherence::CoherenceDomain domain;
    EXPECT_GT(run(&domain), run(nullptr));
}

namespace {

/** The idle-sleep timer as an event scheduled at every arming and
 *  descheduled at every disarming: the reference SleepTimer must
 *  match event for event. */
class ScheduledTimer
{
  public:
    ScheduledTimer(EventQueue &eq, std::function<void()> expire)
        : eq_(eq), ev_(std::move(expire))
    {}

    ~ScheduledTimer() { disarm(); }

    void armIn(Tick delta) { eq_.scheduleIn(&ev_, delta); }

    void
    disarm()
    {
        if (ev_.scheduled())
            eq_.deschedule(&ev_);
    }

    bool armed() const { return ev_.scheduled(); }

  private:
    EventQueue &eq_;
    CallbackEvent ev_;
};

struct TimerTrace
{
    std::vector<std::pair<Tick, int>> log;   //!< (tick, op or -1)
    std::uint64_t deschedules = 0;
};

/**
 * Seeded arm/disarm/marker operations on a timer of type @p Timer,
 * many of them on the same ticks as its deadlines; the log records
 * every operation and expiry (-1) in execution order.
 */
template <typename Timer>
TimerTrace
timerTrace(std::uint64_t seed)
{
    constexpr Tick kSleepAfter = 1000;
    EventQueue eq;
    TimerTrace t;
    Rng rng(seed);
    Timer timer(eq, [&] { t.log.emplace_back(eq.now(), -1); });
    int spawned = 1200;
    std::function<void(int)> op = [&](int id) {
        t.log.emplace_back(eq.now(), id);
        switch (id % 4) {
          case 0:   // go idle
            if (!timer.armed())
                timer.armIn(kSleepAfter);
            break;
          case 1:   // work arrives
            timer.disarm();
            break;
          case 2: {   // a later idle or work, keyed after this point
            const int next =
                4 * spawned++ + static_cast<int>(rng.uniformInt(2));
            eq.scheduleFn([&op, next] { op(next); },
                          eq.now() + 100 * rng.uniformInt(12));
            break;
          }
          default:   // a marker
            break;
        }
    };
    for (int i = 0; i < 1200; ++i) {
        const int id = static_cast<int>(rng.uniformInt(4)) + 4 * i;
        eq.scheduleFn([&op, id] { op(id); }, 100 * rng.uniformInt(3000));
    }
    eq.run();
    t.deschedules = eq.deschedules();
    return t;
}

/** Poll core on one ring, built directly for its fault and governor
 *  hooks. */
struct LoneCore
{
    explicit LoneCore(SleepPolicy sleep)
        : nat(funcs::makeFunction(funcs::FunctionId::Nat)), out(eq),
          ring(64), power(eq),
          core(eq, config(sleep), ring, *nat, nullptr, out, power)
    {
        ring.setNotify([this] { core.onWork(); });
    }

    static PollCore::Config
    config(SleepPolicy sleep)
    {
        PollCore::Config cc;
        cc.profile = funcs::profile(funcs::Platform::HostSkylake,
                                    funcs::FunctionId::Nat);
        cc.sleep = sleep;
        return cc;
    }

    /** Record whether the core sleeps at @p at. */
    void
    probe(Tick at)
    {
        eq.scheduleFn(
            [this] { sleeps.emplace_back(eq.now(), core.sleeping()); },
            at);
    }

    EventQueue eq;
    std::unique_ptr<funcs::NetworkFunction> nat;
    Collector out;
    nic::DpdkRing ring;
    PowerMeter power;
    PollCore core;
    std::vector<std::pair<Tick, bool>> sleeps;
};

} // namespace

TEST(SleepTimer, MatchesAnEventScheduledAtEveryArming)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const TimerTrace lazy = timerTrace<SleepTimer>(seed);
        const TimerTrace ref = timerTrace<ScheduledTimer>(seed);
        EXPECT_EQ(lazy.log, ref.log) << "seed " << seed;
        // Expiries, some on the tick of another operation.
        std::size_t expiries = 0;
        std::size_t shared = 0;
        for (std::size_t i = 0; i < ref.log.size(); ++i) {
            if (ref.log[i].second >= 0)
                continue;
            ++expiries;
            const Tick at = ref.log[i].first;
            if ((i > 0 && ref.log[i - 1].first == at) ||
                (i + 1 < ref.log.size() && ref.log[i + 1].first == at))
                ++shared;
        }
        EXPECT_GT(expiries, 20u) << "seed " << seed;
        EXPECT_GT(shared, 5u) << "seed " << seed;
        EXPECT_GT(ref.deschedules, 10u) << "seed " << seed;
        EXPECT_EQ(lazy.deschedules, 0u) << "seed " << seed;
    }
}

TEST(SleepTimer, ReArmingMovesExpiryToLastIdlePlusSleepAfter)
{
    EventQueue eq;
    std::vector<Tick> expired;
    SleepTimer timer(eq, [&] { expired.push_back(eq.now()); });
    timer.armIn(1000);
    eq.scheduleFn([&] { timer.disarm(); }, 300);
    eq.scheduleFn([&] { timer.armIn(1000); }, 500);
    eq.scheduleFn([&] { timer.disarm(); }, 1200);
    eq.scheduleFn([&] { timer.armIn(1000); }, 1400);
    eq.run();
    // The entry pushed at 0 fires at 1000 and re-arms for 1500; that
    // one fires after the re-arm at 1400 and re-arms for 2400.
    EXPECT_EQ(expired, (std::vector<Tick>{2400}));
    EXPECT_EQ(eq.executed(), 4u + 3u);
    EXPECT_EQ(eq.deschedules(), 0u);
    EXPECT_FALSE(timer.armed());
}

TEST(SleepTimer, ReArmOnTheSameTickTakesTheNewKey)
{
    // Armed, disarmed and armed again on one tick: the entry pushed by
    // the first arming has the same deadline but an older key, so it
    // must re-arm rather than expire ahead of work keyed in between.
    EventQueue eq;
    std::vector<int> order;
    SleepTimer timer(eq, [&] { order.push_back(0); });
    timer.armIn(1000);
    eq.scheduleFn([&] { order.push_back(1); }, 1000);
    timer.disarm();
    timer.armIn(1000);
    eq.scheduleFn([&] { order.push_back(2); }, 1000);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

TEST(PollCore, DeadlineTickArrivalResolvesInKeyOrder)
{
    // A packet at 0.2 ms leaves the core idle at f = 0.2 ms + s,
    // which arms its sleep for D = f + 1 ms under the key reserved
    // then. A second packet arriving at exactly D runs before the
    // sleep when its delivery was scheduled before that arming, and
    // after it (paying the wake penalty) when scheduled after.
    const SleepPolicy sleep{true, 1 * kMs, 50 * kUs};
    const Tick s = LoneCore::config(sleep).profile.serviceTicks(
        net::kMtuFrameBytes);
    const Tick deadline = 200 * kUs + s + 1 * kMs;
    for (bool before : {true, false}) {
        LoneCore c(sleep);
        auto deliver = [&c] { c.ring.accept(mtuPacket(c.eq.now())); };
        c.eq.scheduleFn(deliver, 200 * kUs);
        if (before)
            c.eq.scheduleFn(deliver, deadline);
        else
            c.eq.scheduleFn(
                [&c, deliver] { c.eq.scheduleFn(deliver, c.eq.now() + 1); },
                deadline - 1);
        c.eq.run();
        ASSERT_EQ(c.out.count, 2u);
        EXPECT_EQ(c.out.latencies[0], s);
        EXPECT_EQ(c.out.latencies[1], before ? s : s + 50 * kUs)
            << (before ? "scheduled before the arming"
                       : "scheduled after the arming");
    }
}

TEST(PollCore, StallForceWakeAndParkDisarmTheSleepTimer)
{
    LoneCore c(SleepPolicy{true, 1 * kMs, 50 * kUs});
    // Stalled 0.3-0.6 ms: the sleep armed at 0 is dropped and re-armed
    // at the unstall, so the core sleeps at 1.6 ms, not 1.0 ms.
    c.eq.scheduleFn([&c] { c.core.setStalled(true, 0.5); }, 300 * kUs);
    c.eq.scheduleFn([&c] { c.core.setStalled(false); }, 600 * kUs);
    // A second forceWake of an awake idle core re-arms: sleep at 3.5
    // ms, not 3.0 ms.
    c.eq.scheduleFn([&c] { c.core.forceWake(); }, 2000 * kUs);
    c.eq.scheduleFn([&c] { c.core.forceWake(); }, 2500 * kUs);
    // Parked at 4.0 ms: asleep at once; unparked and woken at 4.2 ms,
    // it sleeps again 1 ms later.
    c.eq.scheduleFn([&c] { c.core.forceWake(); }, 3800 * kUs);
    c.eq.scheduleFn([&c] { c.core.setParked(true); }, 4000 * kUs);
    c.eq.scheduleFn(
        [&c] {
            c.core.setParked(false);
            c.core.forceWake();
        },
        4200 * kUs);
    for (Tick us : {1100, 1700, 2900, 3100, 3400, 3600, 3900, 4100, 5100,
                    5300})
        c.probe(us * kUs);
    c.eq.run();
    const std::vector<std::pair<Tick, bool>> want = {
        {1100 * kUs, false}, {1700 * kUs, true},  {2900 * kUs, false},
        {3100 * kUs, false}, {3400 * kUs, false}, {3600 * kUs, true},
        {3900 * kUs, false}, {4100 * kUs, true},  {5100 * kUs, false},
        {5300 * kUs, true}};
    EXPECT_EQ(c.sleeps, want);
    EXPECT_EQ(c.eq.deschedules(), 0u);
}

TEST(PollCore, WakeLatencyAndEnergyMatchHandTrace)
{
    // One core, sleep after 1 ms, 50 us wake. Packets at 2.0 ms (the
    // core sleeps since 1.0 ms) and 2.5 ms (idle but awake; its sleep
    // moves from f1 + 1 ms to f2 + 1 ms); the run ends at 5 ms.
    EventQueue eq;
    Collector out(eq);
    auto nat = funcs::makeFunction(funcs::FunctionId::Nat);
    auto cfg = natConfig(funcs::Platform::HostSkylake, 1);
    cfg.sleep = SleepPolicy{true, 1 * kMs, 50 * kUs, 0.25};
    Processor proc(eq, cfg, *nat, nullptr, out);
    for (Tick at : {2000 * kUs, 2500 * kUs})
        eq.scheduleFn([&] { proc.input().accept(mtuPacket(eq.now())); },
                      at);
    eq.scheduleFn([] {}, 5 * kMs);
    eq.run();

    const Tick s = cfg.profile.serviceTicks(net::kMtuFrameBytes);
    const Tick wake = 50 * kUs;
    const Tick f1 = 2000 * kUs + wake + s;
    ASSERT_EQ(out.count, 2u);
    EXPECT_EQ(out.latencies[0], wake + s);
    EXPECT_EQ(out.latencies[1], s);
    // Duty level x ticks: shallow idle to 1 ms, asleep to 2 ms,
    // active through the wake and service, shallow idle to 2.5 ms,
    // active, shallow idle for 1 ms, asleep to the end.
    const double level_ticks =
        0.25 * static_cast<double>(1 * kMs) +
        static_cast<double>(wake + s) +
        0.25 * static_cast<double>(2500 * kUs - f1) +
        static_cast<double>(s) + 0.25 * static_cast<double>(1 * kMs);
    const double want_j = cfg.profile.core_active_w * level_ticks /
                          static_cast<double>(kSec);
    EXPECT_NEAR(proc.cpuJoulesNow(), want_j, want_j * 1e-12);
}

TEST(Accelerator, WakeLatencyAndEnergyMatchHandTrace)
{
    // The same trace through the REM pipeline: the feeding cores
    // sleep after 1 ms idle and pay the 50 us wake in the first
    // packet's serialization slot.
    EventQueue eq;
    Collector out(eq);
    auto rem = funcs::makeFunction(funcs::FunctionId::Rem);
    Processor::Config cfg;
    cfg.platform = funcs::Platform::SnicBf2;
    cfg.profile = funcs::profile(funcs::Platform::SnicBf2,
                                 funcs::FunctionId::Rem);
    cfg.cores = 2;
    cfg.sleep = SleepPolicy{true, 1 * kMs, 50 * kUs, 0.25};
    cfg.service_mac = net::MacAddr::fromUint(0x5E);
    cfg.service_ip = net::Ipv4Addr(10, 0, 0, 2);
    Processor proc(eq, cfg, *rem, nullptr, out);
    ASSERT_TRUE(proc.usesAccel());
    for (Tick at : {2000 * kUs, 2500 * kUs})
        eq.scheduleFn([&] { proc.input().accept(mtuPacket(eq.now())); },
                      at);
    eq.scheduleFn([] {}, 5 * kMs);
    eq.run();

    const Tick ser =
        transferTicks(net::kMtuFrameBytes, cfg.profile.max_tp_gbps);
    const Tick wake = 50 * kUs;
    const Tick x1 = 2000 * kUs + wake + ser;   // first slot exit
    ASSERT_EQ(out.count, 2u);
    EXPECT_EQ(out.latencies[0], wake + ser + cfg.profile.accel_latency);
    EXPECT_EQ(out.latencies[1], ser + cfg.profile.accel_latency);
    const double level_s =
        (0.25 * static_cast<double>(1 * kMs) +
         static_cast<double>(wake + ser) +
         0.25 * static_cast<double>(2500 * kUs - x1) +
         static_cast<double>(ser) + 0.25 * static_cast<double>(1 * kMs)) /
        static_cast<double>(kSec);
    const double feed_j = cfg.profile.core_active_w * cfg.cores * level_s;
    const double accel_j = cfg.profile.accel_w * level_s;
    EXPECT_NEAR(proc.cpuJoulesNow(), feed_j, feed_j * 1e-12);
    EXPECT_NEAR(proc.accelJoulesNow(), accel_j, accel_j * 1e-12);
}
