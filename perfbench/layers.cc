// Response verification and the traced run's per-layer replays. Each
// replay calls one layer's public entry points with the inputs of the
// workload's own points and times batches under benchmark-side spans.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>

#include <zlib.h>

#include "alg/aho_corasick.hh"
#include "alg/bignum.hh"
#include "alg/corpus.hh"
#include "alg/deflate.hh"
#include "alg/sha256.hh"
#include "bench.hh"
#include "coherence/domain.hh"
#include "core/hlb.hh"
#include "funcs/content.hh"
#include "funcs/registry.hh"
#include "net/bytes.hh"
#include "net/checksum.hh"
#include "net/packet.hh"
#include "nic/dpdk_ring.hh"
#include "nic/eswitch.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace perfbench {

using namespace halsim;

namespace {

const net::FlowEndpoints kEp{};
const net::Ipv4Addr kSnicIp(10, 0, 0, 2);
const net::Ipv4Addr kHostIp(10, 0, 0, 3);
const net::MacAddr kSnicMac = net::MacAddr::fromUint(0x020000000002);
const net::MacAddr kHostMac = net::MacAddr::fromUint(0x020000000003);

net::PacketPtr
blankPacket(std::size_t frame, net::Ipv4Addr src = kEp.src_ip,
            net::Ipv4Addr dst = kEp.dst_ip)
{
    return net::makeUdpPacket(kEp.src_mac, kEp.dst_mac, src, dst,
                              kEp.src_port, kEp.dst_port, {}, frame);
}

/** Independent replay stream per (seed, point, purpose). */
Rng
replayRng(std::uint64_t seed, const std::string &label,
          std::uint64_t purpose)
{
    const auto *b = reinterpret_cast<const std::uint8_t *>(label.data());
    return Rng(seed * 0x9E3779B97F4A7C15ull ^ fnv1a(b, label.size()) ^
               (purpose << 56));
}

/** Inflate @p response's stream with system zlib and compare it to
 *  @p request. Unchecked (nullopt) when the stream was truncated to
 *  fit the payload. */
std::optional<std::string>
checkDeflate(std::span<const std::uint8_t> request,
             std::span<const std::uint8_t> response)
{
    if (response.size() < 8)
        return "response shorter than its header";
    const std::uint32_t orig = net::load32(response.data());
    const std::uint32_t comp = net::load32(response.data() + 4);
    if (orig != request.size())
        return "orig_len " + std::to_string(orig) + " != request " +
               std::to_string(request.size());
    if (comp > response.size() - 8)
        return std::nullopt;
    std::vector<std::uint8_t> out(orig + 1);
    z_stream zs{};
    if (inflateInit2(&zs, -15) != Z_OK)
        return "zlib inflateInit2 failed";
    zs.next_in = const_cast<Bytef *>(response.data() + 8);
    zs.avail_in = comp;
    zs.next_out = out.data();
    zs.avail_out = static_cast<uInt>(out.size());
    const int rc = inflate(&zs, Z_FINISH);
    const std::size_t produced = zs.total_out;
    inflateEnd(&zs);
    if (rc != Z_STREAM_END)
        return "zlib inflate returned " + std::to_string(rc);
    if (produced != orig ||
        !std::equal(request.begin(), request.end(), out.begin()))
        return "inflated stream differs from the request";
    return std::string();
}

/** Multi-pattern occurrence count by direct comparison at every
 *  offset (patterns bucketed by first byte). */
class NaiveScanner
{
  public:
    explicit NaiveScanner(std::vector<std::string> patterns)
        : patterns_(std::move(patterns))
    {
        for (std::size_t i = 0; i < patterns_.size(); ++i) {
            if (!patterns_[i].empty())
                byFirst_[static_cast<std::uint8_t>(patterns_[i][0])]
                    .push_back(i);
        }
    }

    std::uint64_t
    count(std::span<const std::uint8_t> text) const
    {
        std::uint64_t n = 0;
        for (std::size_t pos = 0; pos < text.size(); ++pos) {
            for (std::size_t i : byFirst_[text[pos]]) {
                const std::string &p = patterns_[i];
                if (p.size() <= text.size() - pos &&
                    std::memcmp(p.data(), text.data() + pos, p.size()) == 0)
                    ++n;
            }
        }
        return n;
    }

  private:
    std::vector<std::string> patterns_;
    std::vector<std::size_t> byFirst_[256];
};

std::vector<std::string>
remRules()
{
    const funcs::RemFunction::Config c;
    return alg::makeRuleset(c.ruleset, c.rules, c.seed);
}

} // namespace

void
verifyResponses(const Point &p, std::uint64_t seed, const Golden &golden,
                Tally &tally, std::vector<std::uint64_t> *record)
{
    funcs::FunctionPtr fn = funcs::makeFunction(p.fn);
    coherence::CoherenceDomain domain;
    Rng rng = replayRng(seed, p.label, 1);
    std::unique_ptr<NaiveScanner> naive;
    if (p.fn == funcs::FunctionId::Rem && record == nullptr)
        naive = std::make_unique<NaiveScanner>(remRules());
    const std::vector<std::uint64_t> *want =
        golden.responses(seed, p.label);

    for (std::size_t i = 0; i < kVerifyPackets; ++i) {
        net::PacketPtr pkt = blankPacket(p.frame);
        fn->makeRequest(*pkt, rng);
        const std::vector<std::uint8_t> request(pkt->payload().begin(),
                                                pkt->payload().end());
        coherence::StateContext ctx(&domain, i % 2 == 0
                                                 ? coherence::NodeId::Snic
                                                 : coherence::NodeId::Host);
        fn->process(*pkt, ctx);
        const std::uint64_t digest = fnv1a(pkt->data(), pkt->size());
        if (record != nullptr) {
            record->push_back(digest);
            continue;
        }
        const std::string what =
            p.label + " response " + std::to_string(i) + ": ";
        if (p.fn == funcs::FunctionId::Compress) {
            const auto err = checkDeflate(request, pkt->payload());
            if (!err)
                ++tally.unchecked;
            else
                tally.operation(err->empty(), what + *err);
        } else if (p.fn == funcs::FunctionId::Rem) {
            const std::uint64_t got = net::load64(pkt->payload().data());
            const std::uint64_t expect = naive->count(request);
            tally.operation(got == expect,
                            what + "match count " + std::to_string(got) +
                                " != naive scan " +
                                std::to_string(expect));
        } else if (!isGoldenSeed(seed)) {
            ++tally.unchecked;
        } else {
            tally.operation(want != nullptr && i < want->size() &&
                                (*want)[i] == digest,
                            what + "digest differs from golden");
        }
    }
}

// --- layer replays -------------------------------------------------------

namespace {

/** Accepts and keeps packets so a replay can reuse them untimed. */
class StashSink : public net::PacketSink
{
  public:
    void
    accept(net::PacketPtr pkt) override
    {
        kept.push_back(std::move(pkt));
    }

    std::vector<net::PacketPtr> kept;
};

/** Per-call samples kept for percentiles. */
constexpr std::size_t kMaxSamples = 1 << 15;

inline double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** Throughput/latency accumulated over batch spans. */
struct Acc
{
    double seconds = 0.0;
    double units = 0.0;   //!< bytes, operations or packets

    void
    add(double s, double n)
    {
        seconds += s;
        units += n;
    }
    double perSecond() const { return seconds > 0 ? units / seconds : 0; }
    double nsPer() const { return units > 0 ? seconds * 1e9 / units : 0; }
};

std::size_t
replayPackets(funcs::FunctionId fn)
{
    switch (fn) {
      case funcs::FunctionId::Compress:
      case funcs::FunctionId::Crypto:
        return 256;
      case funcs::FunctionId::Rem:
        return 512;
      default:
        return 2048;
    }
}

/** Payload slices from a function's own request generator. */
std::vector<std::vector<std::uint8_t>>
requestPayloads(funcs::FunctionId id, std::size_t frame, std::size_t n,
                Rng &rng)
{
    funcs::FunctionPtr fn = funcs::makeFunction(id);
    std::vector<std::vector<std::uint8_t>> out;
    for (std::size_t i = 0; i < n; ++i) {
        net::PacketPtr pkt = blankPacket(frame);
        fn->makeRequest(*pkt, rng);
        out.emplace_back(pkt->payload().begin(), pkt->payload().end());
    }
    return out;
}

/** Keeps a computed value alive past the optimizer. */
volatile std::uint64_t g_sink = 0;

/** One chain of the event-queue replay: a one-shot that reschedules
 *  itself after the next precomputed gap until its budget is spent. */
struct EqChain
{
    struct Ctx
    {
        EventQueue *eq;
        const std::vector<Tick> *gaps;
        std::size_t next = 0;
        std::uint64_t left = 0;
    };
    Ctx *c;

    void
    operator()() const
    {
        if (c->left == 0)
            return;
        --c->left;
        const Tick gap = (*c->gaps)[c->next++ % c->gaps->size()];
        c->eq->scheduleFnIn(EqChain{c}, gap);
    }
};

} // namespace

FunctionReplay::FunctionReplay(const Point &p, std::uint64_t seed)
    : fn_(funcs::makeFunction(p.fn)), frame_(p.frame),
      rng_(replayRng(seed, p.label, 2))
{
    for (std::size_t i = 0; i < replayPackets(p.fn); ++i) {
        net::PacketPtr pkt = blankPacket(p.frame);
        fn_->makeRequest(*pkt, rng_);
        requests_.emplace_back(pkt->data(), pkt->data() + pkt->size());
        pkts_.push_back(std::move(pkt));
    }
    process_ns_.reserve(kMaxSamples);
    make_ns_.reserve(kMaxSamples);
    // One untimed pass first, so stateful functions time updates of
    // warm state, as in a run, rather than first inserts.
    restore();
    coherence::StateContext ctx(&domain_, coherence::NodeId::Snic);
    for (net::PacketPtr &pkt : pkts_)
        fn_->process(*pkt, ctx);
}

void
FunctionReplay::restore()
{
    for (std::size_t i = 0; i < pkts_.size(); ++i)
        std::memcpy(pkts_[i]->data(), requests_[i].data(),
                    requests_[i].size());
}

double
FunctionReplay::processBatch(SpanLog &spans, int parent)
{
    restore();
    // State accesses run as the SNIC node throughout; the director
    // keeps runs of packets on one node, so most accesses are local.
    coherence::StateContext ctx(&domain_, coherence::NodeId::Snic);
    SpanScope span(spans, "payload:process", parent);
    const std::uint64_t a0 = allocCount();
    const Clock::time_point t0 = Clock::now();
    for (net::PacketPtr &pkt : pkts_)
        fn_->process(*pkt, ctx);
    const Clock::time_point t1 = Clock::now();
    batch_allocs_ += allocCount() - a0;
    batched_ += pkts_.size();
    return secondsBetween(t0, t1) / static_cast<double>(pkts_.size());
}

void
FunctionReplay::sampleCalls(SpanLog &spans, int parent)
{
    {
        SpanScope span(spans, "batch:process", parent);
        coherence::StateContext ctx(&domain_, coherence::NodeId::Snic);
        for (std::size_t i = 0; i < pkts_.size(); ++i) {
            net::Packet &pkt = *pkts_[i];
            std::memcpy(pkt.data(), requests_[i].data(), pkt.size());
            const Clock::time_point t0 = Clock::now();
            fn_->process(pkt, ctx);
            const Clock::time_point t1 = Clock::now();
            if (process_ns_.size() < kMaxSamples)
                process_ns_.push_back(nsBetween(t0, t1));
        }
    }
    SpanScope span(spans, "batch:make_request", parent);
    net::PacketPtr blank = blankPacket(frame_);
    for (std::size_t i = 0; i < pkts_.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        fn_->makeRequest(*blank, rng_);
        const Clock::time_point t1 = Clock::now();
        if (make_ns_.size() < kMaxSamples)
            make_ns_.push_back(nsBetween(t0, t1));
    }
}

double
FunctionReplay::allocsPerPacket() const
{
    return batched_ > 0 ? static_cast<double>(batch_allocs_) /
                              static_cast<double>(batched_)
                        : 0.0;
}

void
replayLayers(const std::vector<PointProfile> &profiles,
             const std::vector<std::size_t> &own, std::uint64_t seed,
             Clock::time_point deadline, SpanLog &spans, int parent,
             Metrics &out)
{
    Rng rng = replayRng(seed, profiles[own.front()].point->label, 3);

    // --- set-up (untimed): inputs from the points' own generators ---
    const auto deflateIn = requestPayloads(funcs::FunctionId::Compress,
                                           net::kMtuFrameBytes, 256, rng);
    const auto cryptoIn = requestPayloads(funcs::FunctionId::Crypto,
                                          net::kMtuFrameBytes, 256, rng);
    const auto remIn = requestPayloads(funcs::FunctionId::Rem,
                                       net::kMtuFrameBytes, 512, rng);
    alg::DeflateConfig dc;
    dc.max_chain = funcs::CompressFunction::Config{}.max_chain;
    dc.allow_dynamic = false;
    const alg::AhoCorasick ac(remRules());
    const alg::BigUint modulus = alg::groups::prime512();
    const alg::BigUint e(65537);
    std::vector<alg::BigUint> bases;
    for (std::size_t i = 0; i < 64; ++i) {
        const alg::Sha256Digest d = alg::Sha256::hash(cryptoIn[i]);
        bases.push_back(alg::BigUint::fromBytes(
            std::span<const std::uint8_t>(d.data(), d.size())));
    }

    // Engine, NIC and HLB replays use the workload's first point:
    // its frame size, offered rate, threshold and SNIC/host split.
    const PointProfile &lead = profiles[own.front()];
    const std::size_t frame = lead.point->frame;
    const double offered = std::max(lead.run.result.offered_gbps, 0.1);
    const double host_share =
        lead.run.result.responses > 0
            ? static_cast<double>(lead.run.result.host_frames) /
                  static_cast<double>(lead.run.result.responses)
            : 0.5;
    const Tick gap = std::max<Tick>(transferTicks(frame, offered), 1);
    std::vector<Tick> gaps(4096);
    for (Tick &g : gaps)
        g = 1 + rng.uniformInt(2 * gap);

    constexpr std::size_t kBurst = 256;
    std::vector<net::PacketPtr> burst;
    std::vector<bool> toHost(kBurst);
    for (std::size_t i = 0; i < kBurst; ++i) {
        toHost[i] = rng.uniform() < host_share;
        burst.push_back(
            blankPacket(frame, toHost[i] ? kHostIp : kEp.src_ip,
                        toHost[i] ? kHostIp : kSnicIp));
    }

    // Both eSwitch rules feed one stash so the burst keeps its order
    // (toHost[i] keeps describing burst[i]).
    StashSink sink;
    nic::ESwitch eswitch;
    eswitch.addRule(kSnicIp, &sink);
    eswitch.addRule(kHostIp, &sink);
    nic::DpdkRing ring(512);

    EventQueue hlbEq;
    core::TrafficMonitor monitor(hlbEq, core::TrafficMonitor::Config{});
    core::TrafficDirector::Config dcfg;
    dcfg.snic_ip = kSnicIp;
    dcfg.host_ip = kHostIp;
    dcfg.host_mac = kHostMac;
    dcfg.initial_fwd_th_gbps = lead.run.result.final_fwd_th_gbps;
    core::TrafficDirector director(hlbEq, dcfg, monitor, sink);
    core::TrafficMerger merger(
        core::TrafficMerger::Config{kSnicIp, kHostIp, kSnicMac}, sink);
    monitor.start();

    const std::size_t sizes[] = {64, 256, net::kMtuFrameBytes};
    std::vector<std::uint8_t> csumBuf(net::kMtuFrameBytes);
    for (auto &b : csumBuf)
        b = static_cast<std::uint8_t>(rng.next());

    Acc deflate, modexp, aho, sha, eqAcc, eswAcc, ringAcc, dirAcc, merAcc;
    Acc makePkt[3], csum[3];

    auto takeBack = [&] {
        burst.clear();
        for (net::PacketPtr &p : sink.kept)
            burst.push_back(std::move(p));
        sink.kept.clear();
    };
    // Timed pass of the burst through @p stage, 16 times.
    auto pushBurst = [&](net::PacketSink &stage, const char *name,
                         int layer, Acc &acc, auto &&untimed) {
        for (int rep = 0; rep < 16; ++rep) {
            untimed();
            SpanScope b(spans, name, layer);
            for (net::PacketPtr &p : burst)
                stage.accept(std::move(p));
            acc.add(b.finish(), kBurst);
            takeBack();
        }
    };
    // Bytes-per-second batch over @p inputs.
    auto bytesBatch = [&](const char *name, int layer, Acc &acc,
                          const auto &inputs, auto &&work) {
        SpanScope b(spans, name, layer);
        std::size_t bytes = 0;
        for (const auto &in : inputs) {
            g_sink = g_sink + work(in);
            bytes += in.size();
        }
        acc.add(b.finish(), static_cast<double>(bytes));
    };

    // --- rounds: every replay once per round until the deadline ---
    do {
        {
            SpanScope layer(spans, "replay:alg", parent);
            bytesBatch("batch:deflate", layer.id(), deflate, deflateIn,
                       [&](const auto &in) {
                           return alg::deflateCompress(in, dc).size();
                       });
            {
                SpanScope b(spans, "batch:modexp", layer.id());
                for (const alg::BigUint &m : bases)
                    g_sink = g_sink + m.modexp(e, modulus).toBytes().size();
                modexp.add(b.finish(), static_cast<double>(bases.size()));
            }
            bytesBatch("batch:aho", layer.id(), aho, remIn,
                       [&](const auto &in) { return ac.countMatches(in); });
            bytesBatch("batch:sha256", layer.id(), sha, cryptoIn,
                       [&](const auto &in) {
                           return alg::Sha256::hash(in)[0];
                       });
        }
        {
            SpanScope layer(spans, "replay:funcs", parent);
            for (const PointProfile &pp : profiles) {
                SpanScope b(spans, "funcs:" + pp.point->label, layer.id());
                pp.replay->sampleCalls(spans, b.id());
            }
        }
        {
            SpanScope layer(spans, "replay:sim", parent);
            EventQueue eq;
            std::vector<EqChain::Ctx> ctx(256, EqChain::Ctx{&eq, &gaps});
            for (std::size_t i = 0; i < ctx.size(); ++i) {
                ctx[i].next = i * 16;
                ctx[i].left = 400;
                EqChain{&ctx[i]}();
            }
            SpanScope b(spans, "batch:eq", layer.id());
            std::uint64_t n = 0;
            while (eq.step())
                ++n;
            eqAcc.add(b.finish(), static_cast<double>(n));
        }
        {
            SpanScope layer(spans, "replay:net", parent);
            std::vector<net::PacketPtr> made;
            made.reserve(kBurst);
            for (std::size_t s = 0; s < 3; ++s) {
                {
                    SpanScope b(spans, "batch:make_packet", layer.id());
                    for (std::size_t i = 0; i < kBurst; ++i)
                        made.push_back(blankPacket(sizes[s]));
                    makePkt[s].add(b.finish(), kBurst);
                }
                made.clear();
                SpanScope b(spans, "batch:checksum", layer.id());
                for (std::size_t i = 0; i < 4 * kBurst; ++i)
                    g_sink = g_sink +
                             net::internetChecksum(csumBuf.data(), sizes[s]);
                csum[s].add(b.finish(), 4 * kBurst);
            }
        }
        {
            SpanScope layer(spans, "replay:nic", parent);
            pushBurst(eswitch, "batch:eswitch", layer.id(), eswAcc, [] {});
            for (int rep = 0; rep < 16; ++rep) {
                SpanScope b(spans, "batch:ring", layer.id());
                for (net::PacketPtr &p : burst)
                    ring.accept(std::move(p));
                burst.clear();
                while (net::PacketPtr p = ring.dequeue())
                    burst.push_back(std::move(p));
                ringAcc.add(b.finish(), kBurst);
            }
        }
        {
            SpanScope layer(spans, "replay:core", parent);
            pushBurst(director, "batch:director", layer.id(), dirAcc, [&] {
                hlbEq.runUntil(hlbEq.now() + kBurst * gap);
            });
            // Undo the director's rewrites, then let the merger rewrite
            // the host-sourced frames on every pass.
            auto restore = [&] {
                for (std::size_t i = 0; i < kBurst; ++i) {
                    burst[i]->ip().rewriteDst(toHost[i] ? kHostIp : kSnicIp);
                    if (toHost[i])
                        burst[i]->ip().rewriteSrc(kHostIp);
                }
            };
            pushBurst(merger, "batch:merger", layer.id(), merAcc, restore);
            restore();
        }
    } while (Clock::now() < deadline);

    auto put = [&](const std::string &name, double v, const char *unit) {
        out[name] = Metric{v, unit};
    };
    put("alg.deflate.mb_s", deflate.perSecond() / 1e6, "MB/s");
    put("alg.modexp.us", modexp.nsPer() / 1e3, "us");
    put("alg.aho.mb_s", aho.perSecond() / 1e6, "MB/s");
    put("alg.sha256.mb_s", sha.perSecond() / 1e6, "MB/s");
    put("sim.eq_ns_per_event", eqAcc.nsPer(), "ns");
    for (std::size_t s = 0; s < 3; ++s) {
        const std::string sz = std::to_string(sizes[s]);
        put("net.make_packet_ns." + sz, makePkt[s].nsPer(), "ns");
        put("net.checksum_ns." + sz, csum[s].nsPer(), "ns");
    }
    put("nic.eswitch_ns_per_pkt", eswAcc.nsPer(), "ns");
    put("nic.ring_ns_per_pkt", ringAcc.nsPer(), "ns");
    put("core.hlb.director_ns_per_pkt", dirAcc.nsPer(), "ns");
    put("core.hlb.merger_ns_per_pkt", merAcc.nsPer(), "ns");

    // Function metrics come from the first point that runs each
    // function, in workload order.
    std::vector<funcs::FunctionId> seen;
    for (const PointProfile &pp : profiles) {
        if (std::find(seen.begin(), seen.end(), pp.point->fn) != seen.end())
            continue;
        seen.push_back(pp.point->fn);
        const std::string base =
            std::string("funcs.") + funcs::functionName(pp.point->fn);
        const FunctionReplay &f = *pp.replay;
        put(base + ".process_ns.p50", f.processNs(0.5), "ns");
        put(base + ".process_ns.p99", f.processNs(0.99), "ns");
        put(base + ".process_allocs_per_pkt", f.allocsPerPacket(), "count");
        put(base + ".make_request_ns.p50", f.makeRequestNs(0.5), "ns");
        put(base + ".payload_share",
            pp.payload_s * static_cast<double>(pp.run.packets) /
                pp.run.run_s,
            "ratio");
    }

    // Residual: this workload's run wall not explained by replayed
    // payload compute, per generated packet.
    double residual_s = 0.0;
    double pkts = 0.0;
    for (std::size_t i : own) {
        const PointProfile &pp = profiles[i];
        residual_s += pp.run.run_s -
                      pp.payload_s * static_cast<double>(pp.run.packets);
        pkts += static_cast<double>(pp.run.packets);
    }
    put("core.residual_ns_per_pkt", pkts > 0 ? residual_s * 1e9 / pkts : 0,
        "ns");
}

} // namespace perfbench
