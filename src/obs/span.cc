#include "obs/span.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <map>
#include <utility>

#include "obs/registry.hh"

namespace halsim::obs {

const char *
spanKindName(SpanKind k)
{
    switch (k) {
      case SpanKind::Request:
        return "request";
      case SpanKind::Attempt:
        return "attempt";
      case SpanKind::FrontendLookup:
        return "frontend_lookup";
      case SpanKind::BackendQueue:
        return "backend_queue";
      case SpanKind::BackendService:
        return "backend_service";
      case SpanKind::Duplicate:
        return "duplicate";
      case SpanKind::Failover:
        return "failover";
      case SpanKind::HealthDown:
        return "health_down";
      case SpanKind::HealthUp:
        return "health_up";
      case SpanKind::GovernorEpoch:
        return "governor_epoch";
      case SpanKind::Shed:
        return "shed";
      case SpanKind::Drop:
        return "drop";
      case SpanKind::Ingress:
        return "ingress";
      case SpanKind::EswitchVerdict:
        return "eswitch_verdict";
      case SpanKind::RingEnqueue:
        return "ring_enqueue";
      case SpanKind::ServiceStart:
        return "service_start";
      case SpanKind::ServiceEnd:
        return "service_end";
      case SpanKind::Merge:
        return "merge";
      case SpanKind::Egress:
        return "egress";
    }
    return "?";
}

namespace {

const char *
spanPhaseName(SpanPhase ph)
{
    switch (ph) {
      case SpanPhase::Begin:
        return "b";
      case SpanPhase::End:
        return "e";
      case SpanPhase::Instant:
        return "i";
    }
    return "?";
}

/** ts in microseconds with a six-digit fraction when the tick does
 *  not land on a whole us (Chrome accepts fractional ts). */
void
writeTs(std::ostream &os, Tick t)
{
    const Tick us = t / kUs;
    const Tick rem = t % kUs;
    os << us;
    if (rem) {
        char frac[16];
        std::snprintf(frac, sizeof(frac), ".%06llu",
                      static_cast<unsigned long long>(rem));
        os << frac;
    }
}

} // namespace

SpanRing::SpanRing(std::uint32_t capacity)
    : ring_(std::max<std::uint32_t>(capacity, 1))
{
}

const SpanEvent &
SpanRing::at(std::size_t i) const
{
    assert(i < size());
    return ring_[(overwritten() + i) % ring_.size()];
}

void
SpanRing::setLaneName(std::uint8_t lane, const std::string &name)
{
    assert(lane < kMaxLanes);
    laneNames_[lane] = name;
}

const std::string &
SpanRing::laneName(std::uint8_t lane) const
{
    assert(lane < kMaxLanes);
    return laneNames_[lane];
}

void
SpanRing::writeLine(std::ostream &os, const SpanEvent &e) const
{
    os << e.tick << " id=" << e.id << " " << spanKindName(e.kind)
       << " ph=" << spanPhaseName(e.phase) << " lane=";
    if (!laneNames_[e.lane].empty())
        os << laneNames_[e.lane];
    else
        os << static_cast<unsigned>(e.lane);
    os << " a=" << e.a << " b=" << e.b;
}

SpanTracer::SpanTracer(Config cfg)
    : SpanRing(cfg.capacity),
      sampleEvery_(std::max<std::uint64_t>(cfg.sample_every, 1))
{
}

void
SpanTracer::writeText(std::ostream &os) const
{
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
        writeLine(os, at(i));
        os << "\n";
    }
}

void
SpanTracer::writeChromeEvents(std::ostream &os, int pid,
                              bool &first) const
{
    // Per-lane thread_name metadata so the viewer labels rows.
    for (std::size_t lane = 0; lane < kMaxLanes; ++lane) {
        const std::string &name =
            laneName(static_cast<std::uint8_t>(lane));
        if (name.empty())
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":" << lane << ",\"args\":{\"name\":\""
           << jsonEscape(name) << "\"}}";
    }

    const std::size_t n = size();

    // Pass 1: (a) an End whose Begin fell off the ring demotes to an
    // instant so every emitted "e" pairs with a "b"; (b) flow events
    // only make sense for trace ids whose root Request Begin is
    // retained (Chrome requires the flow start first). std::map keeps
    // both scans deterministic.
    std::vector<bool> demote(n, false);
    std::map<std::pair<std::uint64_t, SpanKind>, std::uint64_t> open;
    std::map<std::uint64_t, bool> rootRetained;
    for (std::size_t i = 0; i < n; ++i) {
        const SpanEvent &e = at(i);
        if (e.phase == SpanPhase::Begin) {
            ++open[{e.id, e.kind}];
            if (e.kind == SpanKind::Request)
                rootRetained[e.id] = true;
        } else if (e.phase == SpanPhase::End) {
            std::uint64_t &cnt = open[{e.id, e.kind}];
            if (cnt == 0)
                demote[i] = true;
            else
                --cnt;
        }
    }

    // Pass 2: emit records in ring order, weaving flow events off the
    // root span.
    for (std::size_t i = 0; i < n; ++i) {
        const SpanEvent &e = at(i);
        const bool asInstant =
            e.phase == SpanPhase::Instant || demote[i];
        if (!first)
            os << ",";
        first = false;
        if (asInstant) {
            os << "{\"name\":\"" << spanKindName(e.kind)
               << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
            writeTs(os, e.tick);
            os << ",\"pid\":" << pid
               << ",\"tid\":" << static_cast<unsigned>(e.lane)
               << ",\"args\":{\"id\":" << e.id << ",\"a\":" << e.a
               << ",\"b\":" << e.b << "}}";
        } else {
            os << "{\"name\":\"" << spanKindName(e.kind)
               << "\",\"cat\":\"span\",\"ph\":\""
               << (e.phase == SpanPhase::Begin ? "b" : "e")
               << "\",\"id\":" << e.id << ",\"ts\":";
            writeTs(os, e.tick);
            os << ",\"pid\":" << pid
               << ",\"tid\":" << static_cast<unsigned>(e.lane)
               << ",\"args\":{\"a\":" << e.a << ",\"b\":" << e.b
               << "}}";
        }

        // Flow thread: "s" at the root Request Begin, "t" at every
        // child begin/instant, "f" at the Request End.
        if (e.id == 0)
            continue;
        auto it = rootRetained.find(e.id);
        if (it == rootRetained.end())
            continue;
        const char *flowPh = nullptr;
        if (e.kind == SpanKind::Request) {
            if (e.phase == SpanPhase::Begin)
                flowPh = "s";
            else if (e.phase == SpanPhase::End && !demote[i])
                flowPh = "f";
        } else if (e.phase != SpanPhase::End) {
            flowPh = "t";
        }
        if (flowPh == nullptr)
            continue;
        os << ",{\"name\":\"req\",\"cat\":\"flow\",\"ph\":\"" << flowPh
           << "\",\"id\":" << e.id << ",\"ts\":";
        writeTs(os, e.tick);
        os << ",\"pid\":" << pid
           << ",\"tid\":" << static_cast<unsigned>(e.lane);
        if (flowPh[0] == 'f')
            os << ",\"bp\":\"e\"";
        os << "}";
    }
}

void
SpanTracer::writeChromeJson(std::ostream &os, int pid) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    writeChromeEvents(os, pid, first);
    os << "],\"displayTimeUnit\":\"ns\"}";
}

const char *
frTriggerName(FrTrigger t)
{
    switch (t) {
      case FrTrigger::Fault:
        return "fault";
      case FrTrigger::Slo:
        return "slo";
      case FrTrigger::Shed:
        return "shed";
      case FrTrigger::Gov:
        return "gov";
    }
    return "?";
}

FlightRecorder::FlightRecorder(EventQueue &eq, Config cfg)
    : eq_(eq), cfg_(cfg), ring_(cfg.capacity)
{
    // Dump slots are pre-constructed so trigger() never allocates.
    dumps_.resize(std::max<std::uint32_t>(cfg_.max_dumps, 1));
    flushEvent_.setCallback([this] { onFlush(); });
}

FlightRecorder::~FlightRecorder()
{
    if (flushEvent_.scheduled())
        eq_.deschedule(&flushEvent_);
}

std::uint64_t
FlightRecorder::triggers(FrTrigger t) const
{
    return triggerCounts_[static_cast<std::size_t>(t)];
}

std::uint64_t
FlightRecorder::triggersTotal() const
{
    std::uint64_t total = 0;
    for (std::uint64_t c : triggerCounts_)
        total += c;
    return total;
}

void
FlightRecorder::clear()
{
    ring_.clear();
    ndumps_ = 0;
    dumpsDropped_ = 0;
    triggerCounts_.fill(0);
    for (Dump &d : dumps_) {
        d.finalized = false;
        d.events.clear();
    }
    if (flushEvent_.scheduled())
        eq_.deschedule(&flushEvent_);
}

void
FlightRecorder::trigger(Tick now, FrTrigger t, std::uint32_t arg)
{
    ++triggerCounts_[static_cast<std::size_t>(t)];
    if ((cfg_.armed & frTriggerBit(t)) == 0)
        return;
    if (ndumps_ >= dumps_.size()) {
        ++dumpsDropped_;
        return;
    }
    Dump &d = dumps_[ndumps_++];
    d.at = now;
    d.trig = t;
    d.arg = arg;
    d.finalized = false;
    d.events.clear();
    // Window closes post ticks from now; one flush event serves all
    // pending dumps since deadlines are FIFO.
    if (!flushEvent_.scheduled())
        eq_.schedule(&flushEvent_, now + cfg_.post);
}

void
FlightRecorder::onFlush()
{
    const Tick now = eq_.now();
    Tick next = 0;
    bool more = false;
    for (std::uint32_t i = 0; i < ndumps_; ++i) {
        Dump &d = dumps_[i];
        if (d.finalized)
            continue;
        const Tick deadline = d.at + cfg_.post;
        if (deadline <= now) {
            snapshot(d, deadline);
        } else if (!more || deadline < next) {
            more = true;
            next = deadline;
        }
    }
    if (more)
        eq_.schedule(&flushEvent_, next);
}

void
FlightRecorder::finalizePending(Tick now)
{
    for (std::uint32_t i = 0; i < ndumps_; ++i) {
        Dump &d = dumps_[i];
        if (!d.finalized)
            snapshot(d, std::min(d.at + cfg_.post, now));
    }
    if (flushEvent_.scheduled())
        eq_.deschedule(&flushEvent_);
}

void
FlightRecorder::snapshot(Dump &d, Tick end)
{
    d.window_begin = d.at >= cfg_.pre ? d.at - cfg_.pre : 0;
    d.window_end = end;
    d.truncated = false;
    d.events.clear();
    const std::size_t n = ring_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const SpanEvent &e = ring_.at(i);
        if (e.tick < d.window_begin || e.tick > d.window_end)
            continue;
        d.events.push_back(e);
    }
    // The window's head was already overwritten if the oldest
    // retained record postdates it.
    if (ring_.overwritten() > 0 && n > 0 &&
        ring_.at(0).tick > d.window_begin)
        d.truncated = true;
    d.finalized = true;
}

void
FlightRecorder::writeText(std::ostream &os) const
{
    for (std::uint32_t i = 0; i < ndumps_; ++i) {
        const Dump &d = dumps_[i];
        if (!d.finalized)
            continue;
        os << "dump trigger=" << frTriggerName(d.trig)
           << " at=" << d.at << " arg=" << d.arg << " window=["
           << d.window_begin << "," << d.window_end
           << "] truncated=" << (d.truncated ? 1 : 0) << "\n";
        for (const SpanEvent &e : d.events) {
            os << "  ";
            ring_.writeLine(os, e);
            os << "\n";
        }
    }
}

void
FlightRecorder::writeJson(std::ostream &os) const
{
    os << "{\"dumps\":[";
    bool firstDump = true;
    for (std::uint32_t i = 0; i < ndumps_; ++i) {
        const Dump &d = dumps_[i];
        if (!d.finalized)
            continue;
        if (!firstDump)
            os << ",";
        firstDump = false;
        os << "{\"trigger\":\"" << frTriggerName(d.trig)
           << "\",\"at\":" << d.at << ",\"arg\":" << d.arg
           << ",\"window_begin\":" << d.window_begin
           << ",\"window_end\":" << d.window_end << ",\"truncated\":"
           << (d.truncated ? "true" : "false") << ",\"events\":[";
        bool firstEv = true;
        for (const SpanEvent &e : d.events) {
            if (!firstEv)
                os << ",";
            firstEv = false;
            os << "{\"tick\":" << e.tick << ",\"id\":" << e.id
               << ",\"kind\":\"" << spanKindName(e.kind)
               << "\",\"phase\":\"" << spanPhaseName(e.phase)
               << "\",\"lane\":";
            const std::string &lane = ring_.laneName(e.lane);
            if (!lane.empty())
                os << "\"" << jsonEscape(lane) << "\"";
            else
                os << static_cast<unsigned>(e.lane);
            os << ",\"a\":" << e.a << ",\"b\":" << e.b << "}";
        }
        os << "]}";
    }
    os << "],\"triggers\":{";
    for (std::uint32_t k = 0; k < kFrTriggerKinds; ++k) {
        if (k)
            os << ",";
        os << "\"" << frTriggerName(static_cast<FrTrigger>(k))
           << "\":" << triggerCounts_[k];
    }
    os << "},\"recorded\":" << ring_.recorded()
       << ",\"dumps_dropped\":" << dumpsDropped_ << "}";
}

} // namespace halsim::obs
