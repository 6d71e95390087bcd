#include "proc/processor.hh"

#include <algorithm>
#include <cassert>

#include "obs/registry.hh"

namespace halsim::proc {

namespace {

/**
 * Turn a processed request into its response frame: reply-to
 * addressing from the packet metadata, source identity of the
 * processing service. Host-sourced responses carry the host IP here;
 * HAL's traffic merger later rewrites it to the SNIC identity.
 */
void
makeResponse(net::Packet &pkt, const net::MacAddr &service_mac,
             net::Ipv4Addr service_ip, net::Processor tag)
{
    auto eth = pkt.eth();
    eth.setSrc(service_mac);
    eth.setDst(pkt.clientMac);

    auto ip = pkt.ip();
    ip.setSrcRaw(service_ip);
    ip.setDstRaw(pkt.clientIp);
    ip.fillChecksum();

    auto udp = pkt.udp();
    udp.setSrcPort(udp.dstPort());
    udp.setDstPort(pkt.clientPort);

    pkt.isResponse = true;
    pkt.processedBy = tag;
}

} // namespace

SleepTimer::~SleepTimer()
{
    if (scheduled())
        eq_.deschedule(this);
}

// halint: hotpath
void
SleepTimer::armIn(Tick delta)
{
    deadline_ = eq_.now() + delta;
    key_ = eq_.reserveKey();
    // A pending entry fires first and re-arms then.
    assert(!scheduled() || when() <= deadline_);
    if (!scheduled()) {
        heapKey_ = key_;
        eq_.scheduleKeyed(this, deadline_, key_);
    }
}

// halint: hotpath
void
SleepTimer::execute()
{
    if (!armed())
        return;   // disarmed since this entry was pushed
    if (heapKey_ != key_) {
        // Pushed by an earlier arming: move to the current slot.
        heapKey_ = key_;
        eq_.scheduleKeyed(this, deadline_, key_);
        return;
    }
    assert(eq_.now() == deadline_);
    deadline_ = kTickNever;
    expire_();
}

PollCore::PollCore(EventQueue &eq, Config cfg, nic::DpdkRing &ring,
                   funcs::NetworkFunction &fn,
                   coherence::CoherenceDomain *domain, net::PacketSink &tx,
                   PowerMeter &power)
    : eq_(eq), cfg_(std::move(cfg)), ring_(ring), fn_(fn),
      domain_(domain), tx_(tx), power_(power),
      sleepTimer_(eq, [this] { maybeSleep(); })
{
    finishEvent_.setCallback([this] { finish(std::move(inflight_)); });
    // Without power management a poll-mode core burns full power from
    // the start (§III-B: DPDK busy-waiting keeps the CPU hot even
    // when idle); with it, waiting costs only the umwait fraction.
    setPowerLevel(idleLevel());
    if (cfg_.sleep.enabled)
        sleepTimer_.armIn(cfg_.sleep.sleep_after);
}

double
PollCore::freqScale() const
{
    return cfg_.freq_scale != nullptr ? *cfg_.freq_scale : 1.0;
}

void
PollCore::setPowerLevel(double frac)
{
    // Dynamic power scales ~f^2 under DVFS (voltage tracks
    // frequency). The factor is sampled at state transitions, which
    // happen far more often than governor epochs.
    const double f = freqScale();
    const double watts = frac * f * f * cfg_.profile.core_active_w;
    power_.add(watts - wattsTw_.value());
    wattsTw_.set(watts, eq_.now());
    powerLevel_ = frac;
}

double
PollCore::joulesNow() const
{
    return wattsTw_.integral(eq_.now()) / static_cast<double>(kSec);
}

double
PollCore::idleLevel() const
{
    return cfg_.sleep.enabled ? cfg_.sleep.shallow_idle_frac : 1.0;
}

PollCore::~PollCore()
{
    // The in-flight packet dies with the core: its kernel run first.
    if (job_ != nullptr)
        cfg_.payload_pool->join(job_, *inflight_);
    if (finishEvent_.scheduled())
        eq_.deschedule(&finishEvent_);
}

void
PollCore::onWork()
{
    if (!busy_ && !stalled_)
        startNext();
}

void
PollCore::setStalled(bool stalled, double power_frac)
{
    if (stalled_ == stalled)
        return;
    stalled_ = stalled;
    stallFrac_ = power_frac;
    if (stalled) {
        sleepTimer_.disarm();
        sleeping_ = false;
        // An in-flight packet still completes; finish() then parks
        // the core at the stall power level.
        if (!busy_)
            setPowerLevel(power_frac);
    } else {
        if (busy_) {
            setPowerLevel(1.0);
            return;
        }
        setPowerLevel(idleLevel());
        if (!ring_.empty())
            startNext();
        else
            goIdle();
    }
}

void
PollCore::setParked(bool parked)
{
    if (parked_ == parked)
        return;
    parked_ = parked;
    if (parked && !busy_ && ring_.empty()) {
        // Idle and empty: deep sleep right now, independent of the
        // SleepPolicy (the governor IS the sleep decision here). A
        // busy or backlogged core keeps serving; finish() drops it
        // into deep sleep once the ring drains.
        sleepTimer_.disarm();
        sleeping_ = true;
        setPowerLevel(0.0);
    }
}

void
PollCore::forceWake()
{
    // A parked core stays asleep (the governor owns it: unpark first).
    if (stalled_ || busy_ || parked_)
        return;
    sleepTimer_.disarm();
    if (sleeping_) {
        sleeping_ = false;
        setPowerLevel(idleLevel());
    }
    if (!ring_.empty())
        startNext();
    else
        goIdle();
}

void
PollCore::startNext()
{
    net::PacketPtr pkt = ring_.dequeue();
    if (pkt == nullptr) {
        goIdle();
        return;
    }

    Tick extra = 0;
    if (sleeping_) {
        sleeping_ = false;
        extra = cfg_.sleep.wake_latency;
    }
    sleepTimer_.disarm();

    busy_ = true;
    busySince_ = eq_.now();
    setPowerLevel(1.0);
    obs::tracePacket(trace_, eq_.now(), pkt->id,
                     obs::SpanKind::ServiceStart, traceLane_,
                     traceCore_);

    // The real function work starts here (on a payload worker when
    // the pool is set; finish() joins it); timing below is modeled.
    coherence::StateContext ctx(domain_, cfg_.node);
    if (cfg_.payload_pool != nullptr)
        job_ = cfg_.payload_pool->submit(*pkt);
    else
        fn_.process(*pkt, ctx);

    const Tick service =
        static_cast<Tick>(
            static_cast<double>(cfg_.profile.serviceTicks(pkt->size())) /
            (freqScale() * speedFactor_)) +
        ctx.latency() + extra;
    // One packet is in service at a time (guarded by busy_), so the
    // completion is an intrusive event instead of a fresh one-shot.
    inflight_ = std::move(pkt);
    eq_.scheduleIn(&finishEvent_, service);
}

void
PollCore::finish(net::PacketPtr pkt)
{
    if (job_ != nullptr) {
        cfg_.payload_pool->join(job_, *pkt);
        job_ = nullptr;
    }
    ++frames_;
    bytes_ += pkt->size();
    obs::tracePacket(trace_, eq_.now(), pkt->id,
                     obs::SpanKind::ServiceEnd, traceLane_,
                     traceCore_);
    makeResponse(*pkt, cfg_.service_mac, cfg_.service_ip, cfg_.tag);
    tx_.accept(std::move(pkt));

    busy_ = false;
    busyTicks_ += eq_.now() - busySince_;
    if (stalled_) {
        setPowerLevel(stallFrac_);
        return;
    }
    if (!ring_.empty()) {
        startNext();
    } else if (parked_) {
        // Governor-parked and finally drained: deep sleep.
        sleeping_ = true;
        setPowerLevel(0.0);
    } else {
        setPowerLevel(idleLevel());
        goIdle();
    }
}

void
PollCore::goIdle()
{
    if (cfg_.sleep.enabled && !sleeping_ && !sleepTimer_.armed())
        sleepTimer_.armIn(cfg_.sleep.sleep_after);
}

std::uint64_t
PollCore::busyTicksNow() const
{
    return busyTicks_ + (busy_ ? eq_.now() - busySince_ : 0);
}

double
PollCore::busySecondsNow() const
{
    return static_cast<double>(busyTicksNow()) / static_cast<double>(kSec);
}

void
PollCore::maybeSleep()
{
    if (!busy_ && !stalled_ && ring_.empty() && !sleeping_) {
        sleeping_ = true;
        setPowerLevel(0.0);
    }
}

Accelerator::Accelerator(EventQueue &eq, Config cfg,
                         funcs::NetworkFunction &fn,
                         coherence::CoherenceDomain *domain,
                         net::PacketSink &tx, PowerMeter &power)
    : eq_(eq), cfg_(std::move(cfg)), fn_(fn), domain_(domain), tx_(tx),
      power_(power), queue_(cfg_.queue_depth),
      sleepTimer_(eq, [this] { maybeSleep(); })
{
    queue_.setNotify([this] { pump(); });
    setPowerLevel(idleLevel());
    if (cfg_.sleep.enabled)
        sleepTimer_.armIn(cfg_.sleep.sleep_after);
}

Accelerator::~Accelerator()
{
    // Packets in pending slot-exit events die with the queue, unjoined.
    if (cfg_.payload_pool != nullptr)
        cfg_.payload_pool->drain();
}

double
Accelerator::activeBlockW() const
{
    // Feeding cores + the accelerator itself, treated as one block
    // whose duty cycle follows the pipeline. A failed accelerator
    // draws nothing while the software fallback keeps the cores hot.
    return cfg_.feed_power_w + (failed_ ? 0.0 : cfg_.profile.accel_w);
}

void
Accelerator::setPowerLevel(double frac)
{
    // Absolute-watt accounting: the block's base power changes when
    // the accelerator fails, so deltas must be taken against the
    // currently-charged watts, not the previous fraction.
    const double watts = frac * activeBlockW();
    power_.add(watts - currentW_);
    feedTw_.set(frac * cfg_.feed_power_w, eq_.now());
    accelTw_.set(frac * (failed_ ? 0.0 : cfg_.profile.accel_w),
                 eq_.now());
    currentW_ = watts;
    powerLevel_ = frac;
}

double
Accelerator::feedJoulesNow() const
{
    return feedTw_.integral(eq_.now()) / static_cast<double>(kSec);
}

double
Accelerator::accelJoulesNow() const
{
    return accelTw_.integral(eq_.now()) / static_cast<double>(kSec);
}

void
Accelerator::setFailed(bool failed)
{
    if (failed_ == failed)
        return;
    failed_ = failed;
    setPowerLevel(powerLevel_);   // rebase watts onto the new block power
}

double
Accelerator::idleLevel() const
{
    return cfg_.sleep.enabled ? cfg_.sleep.shallow_idle_frac : 1.0;
}

void
Accelerator::pump()
{
    // One packet occupies the serialization slot between pop and
    // slot-exit; the input queue backs up behind it, which is where
    // saturation drops and queueing delay come from.
    if (inSlot_)
        return;   // the slot-exit event will re-pump
    net::PacketPtr pkt = queue_.dequeue();
    if (pkt == nullptr)
        return;
    inSlot_ = true;
    obs::tracePacket(trace_, eq_.now(), pkt->id,
                     obs::SpanKind::ServiceStart, traceLane_);

    Tick extra = 0;
    if (!busyPipeline_) {
        busyPipeline_ = true;
        if (deepSleep_) {
            deepSleep_ = false;
            extra = cfg_.sleep.wake_latency;
        }
        sleepTimer_.disarm();
        setPowerLevel(1.0);
    }

    // The real function work starts at pipeline entry (on a payload
    // worker when the pool is set, joined before finish()); coherent
    // state accesses extend the slot occupancy just as they stall a
    // hardware pipeline.
    coherence::StateContext ctx(domain_, cfg_.node);
    PayloadPool::Job *job = nullptr;
    if (cfg_.payload_pool != nullptr)
        job = cfg_.payload_pool->submit(*pkt);
    else
        fn_.process(*pkt, ctx);

    // Software fallback after a failure serializes at a fraction of
    // the accelerated rate on the feeding cores.
    const double rate = failed_
                            ? cfg_.profile.max_tp_gbps * cfg_.fallback_frac
                            : cfg_.profile.max_tp_gbps;
    const Tick ser =
        transferTicks(pkt->size(), rate) + ctx.latency() + extra;
    eq_.scheduleFnIn(
        [this, p = std::move(pkt), job]() mutable {
            // Serialization slot free: the next packet can enter
            // while this one traverses the fixed pipeline latency
            // (software fallback has no hardware pipeline to cross).
            inSlot_ = false;
            eq_.scheduleFnIn(
                [this, q = std::move(p), job]() mutable {
                    if (job != nullptr)
                        cfg_.payload_pool->join(job, *q);
                    finish(std::move(q));
                },
                failed_ ? 0 : cfg_.profile.accel_latency);
            if (!queue_.empty()) {
                pump();
            } else {
                busyPipeline_ = false;
                setPowerLevel(idleLevel());
                if (cfg_.sleep.enabled && !sleepTimer_.armed())
                    sleepTimer_.armIn(cfg_.sleep.sleep_after);
            }
        },
        ser);
}

void
Accelerator::maybeSleep()
{
    if (!busyPipeline_ && queue_.empty() && !deepSleep_) {
        deepSleep_ = true;
        setPowerLevel(0.0);
    }
}

void
Accelerator::finish(net::PacketPtr pkt)
{
    ++frames_;
    bytes_ += pkt->size();
    obs::tracePacket(trace_, eq_.now(), pkt->id,
                     obs::SpanKind::ServiceEnd, traceLane_);
    makeResponse(*pkt, cfg_.service_mac, cfg_.service_ip,
                 failed_ ? cfg_.fallback_tag : cfg_.tag);
    tx_.accept(std::move(pkt));
}

Processor::Processor(EventQueue &eq, Config cfg,
                     funcs::NetworkFunction &fn,
                     coherence::CoherenceDomain *domain,
                     net::PacketSink &tx)
    : eq_(eq), cfg_(std::move(cfg)), power_(eq)
{
    assert(cfg_.payload_pool == nullptr ||
           fn.kernel() == &cfg_.payload_pool->function());
    if (cfg_.profile.unit == funcs::ExecUnit::Accel) {
        Accelerator::Config ac;
        ac.profile = cfg_.profile;
        ac.node = cfg_.node;
        ac.tag = cfg_.node == coherence::NodeId::Snic
                     ? net::Processor::SnicAccel
                     : net::Processor::HostAccel;
        ac.service_mac = cfg_.service_mac;
        ac.service_ip = cfg_.service_ip;
        ac.sleep = cfg_.sleep;
        ac.fallback_frac = cfg_.accel_fallback_frac;
        ac.payload_pool = cfg_.payload_pool;
        ac.fallback_tag = cfg_.node == coherence::NodeId::Snic
                              ? net::Processor::SnicCpu
                              : net::Processor::HostCpu;
        // The polling cores that feed the accelerator burn power with
        // the same duty cycle as the pipeline.
        ac.feed_power_w = cfg_.profile.core_active_w * cfg_.cores;
        accel_ = std::make_unique<Accelerator>(eq, ac, fn, domain, tx,
                                               power_);
        return;
    }

    PollCore::Config cc;
    cc.profile = cfg_.profile;
    cc.sleep = cfg_.sleep;
    cc.freq_scale = cfg_.dvfs.enabled ? &freqScale_ : nullptr;
    cc.node = cfg_.node;
    cc.tag = cfg_.node == coherence::NodeId::Snic
                 ? net::Processor::SnicCpu
                 : net::Processor::HostCpu;
    cc.service_mac = cfg_.service_mac;
    cc.service_ip = cfg_.service_ip;
    cc.payload_pool = cfg_.payload_pool;

    if (cfg_.governor.enabled) {
        groupTable_ = std::make_unique<FlowGroupTable>(
            cfg_.governor.groups, cfg_.cores);
    }

    for (unsigned i = 0; i < cfg_.cores; ++i) {
        rings_.push_back(
            std::make_unique<nic::DpdkRing>(cfg_.ring_descriptors));
        cores_.push_back({std::make_unique<PollCore>(
            eq, cc, *rings_.back(), fn, domain, tx, power_)});
        nic::DpdkRing *ring = rings_.back().get();
        PollCore *core = cores_.back().unit.get();
        ring->setNotify([core] { core->onWork(); });
        if (groupTable_ != nullptr)
            groupTable_->addQueue(ring);
        else
            rss_.addQueue(ring);
    }

    if (groupTable_ != nullptr) {
        std::vector<PollCore *> gov_cores;
        std::vector<nic::DpdkRing *> gov_rings;
        gov_cores.reserve(cores_.size());
        gov_rings.reserve(rings_.size());
        for (const auto &c : cores_)
            gov_cores.push_back(c.unit.get());
        for (const auto &r : rings_)
            gov_rings.push_back(r.get());
        governor_ = std::make_unique<CoreGovernor>(
            eq, cfg_.governor, *groupTable_, std::move(gov_cores),
            std::move(gov_rings));
    }

    if (cfg_.dvfs.enabled) {
        freqScale_ = cfg_.dvfs.min_scale;
        dvfsEvent_.setCallback([this] {
            const std::uint32_t occ = maxRingOccupancy();
            if (occ > cfg_.dvfs.occ_high)
                freqScale_ = std::min(1.0, freqScale_ + cfg_.dvfs.step);
            else if (occ < cfg_.dvfs.occ_low)
                freqScale_ = std::max(cfg_.dvfs.min_scale,
                                      freqScale_ - cfg_.dvfs.step);
            eq_.scheduleIn(&dvfsEvent_, cfg_.dvfs.epoch);
        });
        eq_.scheduleIn(&dvfsEvent_, cfg_.dvfs.epoch);
    }
}

Processor::~Processor()
{
    if (dvfsEvent_.scheduled())
        eq_.deschedule(&dvfsEvent_);
}

net::PacketSink &
Processor::input()
{
    if (accel_ != nullptr)
        return accel_->input();
    if (groupTable_ != nullptr)
        return *groupTable_;
    return rss_;
}

std::uint32_t
Processor::maxRingOccupancy() const
{
    if (accel_ != nullptr)
        return accel_->occupancy();
    std::uint32_t max_occ = 0;
    for (const auto &r : rings_)
        max_occ = std::max(max_occ, r->occupancy());
    return max_occ;
}

std::uint64_t
Processor::processedFrames() const
{
    if (accel_ != nullptr)
        return accel_->processedFrames();
    std::uint64_t n = 0;
    for (const auto &c : cores_)
        n += c.unit->processedFrames();
    return n;
}

std::uint64_t
Processor::processedBytes() const
{
    if (accel_ != nullptr)
        return accel_->processedBytes();
    std::uint64_t n = 0;
    for (const auto &c : cores_)
        n += c.unit->processedBytes();
    return n;
}

std::uint64_t
Processor::drops() const
{
    std::uint64_t n = accel_ != nullptr ? accel_->drops() : 0;
    for (const auto &r : rings_)
        n += r->drops();
    return n;
}

double
Processor::cpuJoulesNow() const
{
    if (accel_ != nullptr)
        return accel_->feedJoulesNow();
    double j = 0.0;
    for (const auto &c : cores_)
        j += c.unit->joulesNow();
    return j;
}

double
Processor::accelJoulesNow() const
{
    return accel_ != nullptr ? accel_->accelJoulesNow() : 0.0;
}

double
Processor::cpuCurrentW() const
{
    if (accel_ != nullptr)
        return accel_->feedCurrentW();
    // The shared meter carries exactly the per-core watts in CPU
    // mode, and reading it is O(1).
    return power_.currentW();
}

double
Processor::accelCurrentW() const
{
    return accel_ != nullptr ? accel_->accelCurrentW() : 0.0;
}

double
Processor::coreJoulesNow(unsigned idx) const
{
    return idx < cores_.size() ? cores_[idx].unit->joulesNow() : 0.0;
}

double
Processor::coreCurrentW(unsigned idx) const
{
    return idx < cores_.size() ? cores_[idx].unit->currentW() : 0.0;
}

unsigned
Processor::governorActiveCores() const
{
    return governor_ != nullptr ? governor_->activeCores() : cfg_.cores;
}

GovernorCounters
Processor::governorCounters() const
{
    return governor_ != nullptr ? governor_->counters()
                                : GovernorCounters{};
}

void
Processor::setCoreStalled(unsigned idx, bool stalled, double power_frac)
{
    if (idx < cores_.size())
        cores_[idx].unit->setStalled(stalled, power_frac);
}

void
Processor::stallAll(bool stalled, double power_frac)
{
    for (const auto &c : cores_)
        c.unit->setStalled(stalled, power_frac);
}

void
Processor::fail()
{
    failed_ = true;
    if (accel_ != nullptr)
        accel_->setDead(true);
    else
        stallAll(true, 0.0);
}

void
Processor::restore()
{
    failed_ = false;
    if (accel_ != nullptr)
        accel_->setDead(false);
    else
        stallAll(false);
}

unsigned
Processor::aliveCores() const
{
    if (accel_ != nullptr)
        return failed_ ? 0 : cfg_.cores;
    unsigned n = 0;
    for (const auto &c : cores_)
        if (!c.unit->stalled())
            ++n;
    return n;
}

bool
Processor::alive() const
{
    if (accel_ != nullptr)
        return !failed_;
    return aliveCores() > 0;
}

void
Processor::setSpeedFactor(double f)
{
    for (const auto &c : cores_)
        c.unit->setSpeedFactor(f);
}

void
Processor::forceWakeAll()
{
    for (const auto &c : cores_)
        c.unit->forceWake();
}

void
Processor::failAccelerator()
{
    if (accel_ != nullptr)
        accel_->setFailed(true);
}

void
Processor::repairAccelerator()
{
    if (accel_ != nullptr)
        accel_->setFailed(false);
}

bool
Processor::accelDegraded() const
{
    return accel_ != nullptr && accel_->accelFailed();
}

void
Processor::attachObs(obs::StatsRegistry *reg, obs::SpanTracer *tracer,
                     const std::string &prefix, std::uint8_t ring_lane,
                     std::uint8_t core_lane, bool series)
{
    if (tracer != nullptr) {
        if (accel_ != nullptr)
            accel_->setTrace(tracer, ring_lane, core_lane);
        for (auto &r : rings_)
            r->setTrace(tracer, ring_lane, &eq_);
        for (std::size_t i = 0; i < cores_.size(); ++i)
            cores_[i].unit->setTrace(tracer, core_lane,
                                     static_cast<std::uint32_t>(i));
    }
    if (reg == nullptr)
        return;

    reg->fnCounter(prefix + ".frames",
                   [this] { return processedFrames() - windowFrames_; });
    reg->fnCounter(prefix + ".bytes",
                   [this] { return processedBytes() - windowBytes_; });
    reg->fnCounter(prefix + ".drops",
                   [this] { return drops() - windowDrops_; });

    reg->probe(prefix + ".dyn_power_w",
               [this] { return power_.currentW(); },
               obs::StatsRegistry::ProbeOptions{series, 0.01, 1000.0, 16});

    if (accel_ != nullptr) {
        reg->probe(
            prefix + ".accel.occupancy",
            [this] { return static_cast<double>(accel_->occupancy()); },
            obs::StatsRegistry::ProbeOptions{series, 1.0, 4096.0, 16});
        return;
    }

    if (cfg_.dvfs.enabled) {
        reg->probe(prefix + ".dvfs_scale",
                   [this] { return freqScale_; },
                   obs::StatsRegistry::ProbeOptions{series, 0.1, 1.0, 16});
    }
    if (governor_ != nullptr) {
        reg->probe(
            prefix + ".governor.active_cores",
            [this] {
                return static_cast<double>(governor_->activeCores());
            },
            obs::StatsRegistry::ProbeOptions{
                series, 1.0, static_cast<double>(cfg_.cores), 16});
    }
    const double ring_hi =
        static_cast<double>(std::max<std::uint32_t>(
            cfg_.ring_descriptors, 2));
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const std::string n = std::to_string(i);
        const Core *core = &cores_[i];
        nic::DpdkRing *ring = rings_[i].get();
        reg->probe(prefix + ".core" + n + ".busy_frac",
                   [this, core] {
                       const Tick now = eq_.now();
                       if (now <= windowAt_)
                           return core->unit->busy() ? 1.0 : 0.0;
                       return static_cast<double>(
                                  core->unit->busyTicksNow() -
                                  core->windowBusy) /
                              static_cast<double>(now - windowAt_);
                   },
                   obs::StatsRegistry::ProbeOptions{series, 0.001, 1.0,
                                                    16});
        reg->probe(
            prefix + ".ring" + n + ".occupancy",
            [ring] { return static_cast<double>(ring->occupancy()); },
            obs::StatsRegistry::ProbeOptions{series, 1.0, ring_hi, 16});
    }
}

void
Processor::resetStats()
{
    power_.reset();
    if (governor_ != nullptr)
        governor_->resetStats();
    windowAt_ = eq_.now();
    windowFrames_ = processedFrames();
    windowBytes_ = processedBytes();
    windowDrops_ = drops();
    for (auto &c : cores_)
        c.windowBusy = c.unit->busyTicksNow();
}

} // namespace halsim::proc
