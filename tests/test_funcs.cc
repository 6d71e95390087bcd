/**
 * @file
 * Semantic correctness of the ten network functions: each parses its
 * request, computes a real answer, and writes a well-formed response.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "alg/sha256.hh"
#include "coherence/domain.hh"
#include "funcs/analytics.hh"
#include "funcs/content.hh"
#include "funcs/nat.hh"
#include "funcs/pipeline.hh"
#include "funcs/registry.hh"
#include "funcs/calibration.hh"
#include "funcs/stateful.hh"
#include "net/bytes.hh"
#include "sim/rng.hh"

using namespace halsim;
using namespace halsim::funcs;
using coherence::StateContext;
using net::load64;
using net::store16;
using net::store64;

namespace {

net::PacketPtr
blankPacket(std::size_t frame = net::kMtuFrameBytes)
{
    return net::makeUdpPacket(net::MacAddr::fromUint(1),
                              net::MacAddr::fromUint(2),
                              net::Ipv4Addr(10, 0, 0, 1),
                              net::Ipv4Addr(10, 0, 0, 2), 40000, 9000,
                              {}, frame);
}

StateContext
nullState()
{
    return StateContext(nullptr, coherence::NodeId::Snic);
}

} // namespace

TEST(Registry, NamesAndFactory)
{
    for (FunctionId id : allFunctions()) {
        auto fn = makeFunction(id);
        ASSERT_NE(fn, nullptr);
        EXPECT_EQ(fn->id(), id);
        EXPECT_STRNE(fn->name(), "?");
    }
    EXPECT_EQ(allFunctions().size(), 10u);
    EXPECT_EQ(tableVFunctions().size(), 6u);
    EXPECT_EQ(tableVPipelines().size(), 4u);
}

TEST(Registry, StatefulFlagsMatchTableIV)
{
    // Table IV marks KVS, Count, EMA (and compression's file stream)
    // as stateful.
    EXPECT_TRUE(makeFunction(FunctionId::Kvs)->stateful());
    EXPECT_TRUE(makeFunction(FunctionId::Count)->stateful());
    EXPECT_TRUE(makeFunction(FunctionId::Ema)->stateful());
    EXPECT_TRUE(makeFunction(FunctionId::Compress)->stateful());
    EXPECT_FALSE(makeFunction(FunctionId::Nat)->stateful());
    EXPECT_FALSE(makeFunction(FunctionId::Rem)->stateful());
    EXPECT_FALSE(makeFunction(FunctionId::Crypto)->stateful());
    EXPECT_FALSE(makeFunction(FunctionId::Knn)->stateful());
}

TEST(Kvs, PutThenGet)
{
    KvsFunction kvs;
    auto st = nullState();

    auto put = blankPacket();
    auto p = put->payload();
    p[0] = 1;   // PUT
    store64(p.data() + 1, 42);
    for (int i = 0; i < 32; ++i)
        p[9 + i] = static_cast<std::uint8_t>(i);
    kvs.process(*put, st);
    EXPECT_EQ(put->payload()[0], 0);

    auto get = blankPacket();
    p = get->payload();
    p[0] = 0;   // GET
    store64(p.data() + 1, 42);
    kvs.process(*get, st);
    EXPECT_EQ(get->payload()[0], 0);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(get->payload()[1 + i], i);
}

TEST(Kvs, GetMissingAndDoubleInsert)
{
    KvsFunction kvs;
    auto st = nullState();

    auto get = blankPacket();
    get->payload()[0] = 0;
    store64(get->payload().data() + 1, 999);
    kvs.process(*get, st);
    EXPECT_EQ(get->payload()[0], 1) << "missing key -> not found";

    auto ins = blankPacket();
    ins->payload()[0] = 2;
    store64(ins->payload().data() + 1, 7);
    kvs.process(*ins, st);
    EXPECT_EQ(ins->payload()[0], 0);

    auto ins2 = blankPacket();
    ins2->payload()[0] = 2;
    store64(ins2->payload().data() + 1, 7);
    kvs.process(*ins2, st);
    EXPECT_EQ(ins2->payload()[0], 2) << "second insert must fail";
}

TEST(Kvs, GeneratedRequestsGrowStore)
{
    KvsFunction kvs;
    auto st = nullState();
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        auto pkt = blankPacket();
        kvs.makeRequest(*pkt, rng);
        kvs.process(*pkt, st);
    }
    EXPECT_GT(kvs.storeSize(), 100u);
}

TEST(Count, CountsAreConserved)
{
    CountFunction count;
    auto st = nullState();
    Rng rng(2);
    std::uint64_t keys_sent = 0;
    for (int i = 0; i < 500; ++i) {
        auto pkt = blankPacket();
        count.makeRequest(*pkt, rng);
        keys_sent += pkt->payload()[0];
        count.process(*pkt, st);
    }
    EXPECT_EQ(count.totalCounted(), keys_sent)
        << "every submitted key must be counted exactly once";
}

TEST(Count, ResponseCarriesRunningCount)
{
    CountFunction count(CountFunction::Config{4, 16});
    auto st = nullState();
    auto pkt = blankPacket();
    auto p = pkt->payload();
    p[0] = 4;
    for (int i = 0; i < 4; ++i)
        store64(p.data() + 1 + 8 * i, 5);   // same key four times
    count.process(*pkt, st);
    // In-batch updates accumulate: counts 1, 2, 3, 4.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(load64(pkt->payload().data() + 1 + 8 * i), i + 1);
    EXPECT_EQ(count.countOf(5), 4u);
}

TEST(Ema, ConvergesTowardConstantInput)
{
    EmaFunction ema(EmaFunction::Config{1, 4, 125});
    auto st = nullState();
    for (int i = 0; i < 200; ++i) {
        auto pkt = blankPacket();
        auto p = pkt->payload();
        p[0] = 1;
        store64(p.data() + 1, 9);          // key
        store64(p.data() + 9, 1000);       // constant sample
        ema.process(*pkt, st);
    }
    EXPECT_NEAR(static_cast<double>(ema.emaOf(9)), 1000.0, 20.0);
}

TEST(Ema, FirstSampleInitializes)
{
    EmaFunction ema;
    auto st = nullState();
    auto pkt = blankPacket();
    auto p = pkt->payload();
    p[0] = 1;
    store64(p.data() + 1, 77);
    store64(p.data() + 9, 5000);
    ema.process(*pkt, st);
    EXPECT_EQ(ema.emaOf(77), 5000);
}

TEST(Nat, TranslatesKnownFlowAndPatchesChecksum)
{
    NatFunction nat(NatFunction::Config{1000, net::Ipv4Addr(192, 168, 0, 0)});
    auto pkt = blankPacket();
    // Flow 5 from the preloaded table.
    pkt->ip().rewriteSrc(net::Ipv4Addr(10, 0, 0, 1));
    pkt->udp().setSrcPort(1024 + 5);
    const auto *m = nat.lookup(net::Ipv4Addr(10, 0, 0, 1).value, 1024 + 5);
    ASSERT_NE(m, nullptr);

    auto st = nullState();
    nat.process(*pkt, st);
    EXPECT_EQ(pkt->ip().dst(), m->ip);
    EXPECT_EQ(pkt->udp().dstPort(), m->port);
    EXPECT_TRUE(pkt->ip().checksumOk())
        << "NAT must keep the IP checksum valid via incremental update";
    EXPECT_EQ(pkt->payload()[0], 1);
    EXPECT_EQ(nat.misses(), 0u);
}

TEST(Nat, UnknownFlowCountsMiss)
{
    NatFunction nat(NatFunction::Config{100, net::Ipv4Addr(192, 168, 0, 0)});
    auto pkt = blankPacket();
    pkt->udp().setSrcPort(9);   // below the table's port base
    auto st = nullState();
    nat.process(*pkt, st);
    EXPECT_EQ(nat.misses(), 1u);
    EXPECT_EQ(pkt->payload()[0], 0);
}

TEST(Nat, GeneratedRequestsAlwaysHit)
{
    NatFunction nat;
    auto st = nullState();
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        auto pkt = blankPacket();
        nat.makeRequest(*pkt, rng);
        nat.process(*pkt, st);
    }
    EXPECT_EQ(nat.misses(), 0u)
        << "the workload generator must stay inside the NAT table";
}

TEST(Bm25, PicksHighestScoringDocument)
{
    Bm25Function bm25;
    auto st = nullState();
    Rng rng(4);
    for (int trial = 0; trial < 20; ++trial) {
        auto pkt = blankPacket();
        bm25.makeRequest(*pkt, rng);
        std::vector<std::uint16_t> terms;
        const unsigned n = pkt->payload()[0];
        for (unsigned i = 0; i < n; ++i)
            terms.push_back(
                net::load16(pkt->payload().data() + 1 + 2 * i));
        bm25.process(*pkt, st);
        const std::uint32_t winner =
            net::load32(pkt->payload().data());
        const double wscore = bm25.score(winner, terms);
        // Spot-check: no sampled doc may beat the winner.
        for (std::uint32_t d = 0; d < 1024; d += 97)
            EXPECT_LE(bm25.score(d, terms), wscore + 1e-9)
                << "doc " << d << " trial " << trial;
    }
}

TEST(Knn, ClassifiesCentroidsCorrectly)
{
    KnnFunction knn;
    // A query exactly at a class centroid must classify to it.
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(knn.classify(knn.centroid(c)), c);
}

TEST(Knn, GeneratedQueriesMostlyClassifyStably)
{
    KnnFunction knn;
    auto st = nullState();
    Rng rng(5);
    int agreements = 0;
    const int trials = 500;
    for (int i = 0; i < trials; ++i) {
        auto pkt = blankPacket();
        knn.makeRequest(*pkt, rng);
        std::uint8_t q[KnnFunction::kDims];
        std::memcpy(q, pkt->payload().data(), sizeof(q));
        knn.process(*pkt, st);
        agreements += pkt->payload()[0] == knn.classify(q);
    }
    EXPECT_EQ(agreements, trials)
        << "process() must agree with classify()";
}

TEST(Bayes, SelfConsistentAndBetterThanChance)
{
    BayesFunction bayes;
    auto st = nullState();
    Rng rng(6);
    // Queries are generated from a known class's Bernoulli model;
    // with 256 features the classifier should recover it nearly
    // always. We can't see the generating class directly, so check
    // determinism + spread instead.
    std::array<int, 4> histogram{};
    for (int i = 0; i < 400; ++i) {
        auto pkt = blankPacket();
        bayes.makeRequest(*pkt, rng);
        std::uint8_t bits[32];
        std::memcpy(bits, pkt->payload().data(), 32);
        bayes.process(*pkt, st);
        EXPECT_EQ(pkt->payload()[0], bayes.classify(bits));
        ++histogram[pkt->payload()[0] % 4];
    }
    // All four classes must appear (generator draws uniformly).
    for (int c = 0; c < 4; ++c)
        EXPECT_GT(histogram[c], 40) << "class " << c;
}

TEST(Rem, CountsPlantedMatches)
{
    RemFunction rem(RemFunction::Config{alg::RulesetKind::Teakettle, 500,
                                        0.8, 5});
    auto st = nullState();
    Rng rng(7);
    std::uint64_t matches = 0;
    for (int i = 0; i < 50; ++i) {
        auto pkt = blankPacket();
        rem.makeRequest(*pkt, rng);
        rem.process(*pkt, st);
        matches += load64(pkt->payload().data());
    }
    EXPECT_GT(matches, 0u);
    EXPECT_EQ(matches, rem.totalMatches());
}

TEST(Rem, SnortRulesetCleanTrafficHasNoMatches)
{
    RemFunction rem(RemFunction::Config{alg::RulesetKind::SnortLiterals,
                                        300, 0.0, 9});
    auto st = nullState();
    Rng rng(8);
    for (int i = 0; i < 30; ++i) {
        auto pkt = blankPacket();
        rem.makeRequest(*pkt, rng);
        rem.process(*pkt, st);
        EXPECT_EQ(load64(pkt->payload().data()), 0u);
    }
}

TEST(Crypto, DeterministicPerMessageAndOpDependent)
{
    CryptoFunction crypto;
    auto st = nullState();

    auto make = [&](std::uint8_t op) {
        auto pkt = blankPacket();
        auto p = pkt->payload();
        p[0] = op;
        for (int i = 1; i < 64; ++i)
            p[i] = static_cast<std::uint8_t>(i * 3);
        return pkt;
    };

    auto a1 = make(0), a2 = make(0), b = make(1), c = make(2);
    crypto.process(*a1, st);
    crypto.process(*a2, st);
    crypto.process(*b, st);
    crypto.process(*c, st);

    EXPECT_EQ(std::memcmp(a1->payload().data(), a2->payload().data(), 65),
              0)
        << "same op + message -> same signature";
    EXPECT_NE(std::memcmp(a1->payload().data() + 1,
                          b->payload().data() + 1, 64),
              0);
    EXPECT_NE(std::memcmp(b->payload().data() + 1,
                          c->payload().data() + 1, 64),
              0);
}

TEST(Crypto, RsaResultVerifiable)
{
    // The op-0 path computes digest^e mod n; recompute independently.
    CryptoFunction crypto;
    auto st = nullState();
    auto pkt = blankPacket(200);
    auto p = pkt->payload();
    p[0] = 0;
    for (std::size_t i = 1; i < p.size(); ++i)
        p[i] = static_cast<std::uint8_t>(i);

    std::vector<std::uint8_t> request(p.begin(), p.end());
    const auto digest = alg::Sha256::hash(request);
    const auto m = alg::BigUint::fromBytes(
        std::span<const std::uint8_t>(digest.data(), digest.size()));
    const auto expect = m.modexp(alg::BigUint(65537), crypto.modulus());

    crypto.process(*pkt, st);
    const auto bytes = expect.toBytes();
    EXPECT_EQ(std::memcmp(pkt->payload().data() + 1, bytes.data(),
                          std::min<std::size_t>(bytes.size(), 64)),
              0);
}

TEST(Compress, TracksRatioOnCompressibleTraffic)
{
    CompressFunction comp;
    auto st = nullState();
    Rng rng(10);
    for (int i = 0; i < 50; ++i) {
        auto pkt = blankPacket();
        comp.makeRequest(*pkt, rng);
        comp.process(*pkt, st);
    }
    ASSERT_GT(comp.bytesIn(), 0u);
    const double ratio = static_cast<double>(comp.bytesIn()) /
                         static_cast<double>(comp.bytesOut());
    EXPECT_GT(ratio, 1.5) << "Silesia-like payloads must compress";
}

TEST(Compress, ResponseHeaderIsConsistent)
{
    CompressFunction comp;
    auto st = nullState();
    Rng rng(11);
    auto pkt = blankPacket();
    comp.makeRequest(*pkt, rng);
    const std::size_t payload = pkt->payload().size();
    comp.process(*pkt, st);
    EXPECT_EQ(net::load32(pkt->payload().data()), payload);
    EXPECT_EQ(net::load32(pkt->payload().data() + 4), comp.bytesOut());
}

namespace {

/**
 * FNV-1a 64 over the responses of @p fn to 512 seeded requests, frame
 * sizes 64..1514 B. Locks the payload kernels' output bytes: response
 * sizes and bytes feed link timing and every drift gate downstream.
 */
std::uint64_t
responseDigest(NetworkFunction &fn, std::uint64_t seed)
{
    auto st = nullState();
    Rng rng(seed);
    Rng frames(seed ^ 0xF5A3);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 512; ++i) {
        auto pkt = blankPacket(64 + frames.uniformInt(1514 - 64 + 1));
        fn.makeRequest(*pkt, rng);
        fn.process(*pkt, st);
        for (std::uint8_t b : pkt->payload()) {
            h ^= b;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

} // namespace

// Any change to these digests means a payload kernel's output bytes
// moved: response sizes feed link timing, so every RunResult would too.
TEST(ByteIdentity, CompressResponses)
{
    CompressFunction comp;
    EXPECT_EQ(responseDigest(comp, 21), 0x507c965341339c22ull);
}

TEST(ByteIdentity, CryptoResponses)
{
    CryptoFunction crypto;
    EXPECT_EQ(responseDigest(crypto, 22), 0x79850411a983e906ull);
}

TEST(ByteIdentity, RemResponses)
{
    RemFunction rem;
    EXPECT_EQ(responseDigest(rem, 23), 0xe6efb4471391b08cull);
}

TEST(Pipeline, RunsBothStagesInOrder)
{
    // NAT + REM: NAT translates the header, REM scans the payload.
    auto pipe = makePipeline(FunctionId::Nat, FunctionId::Rem);
    EXPECT_FALSE(pipe->stateful());

    auto st = nullState();
    Rng rng(12);
    auto pkt = blankPacket();
    pipe->makeRequest(*pkt, rng);
    pipe->process(*pkt, st);
    // REM is last: payload leads with a match count (possibly 0),
    // and NAT ran: destination was rewritten into the internal range.
    EXPECT_EQ(pkt->ip().dst().value & 0xffff0000,
              net::Ipv4Addr(192, 168, 0, 0).value);
    EXPECT_TRUE(pkt->ip().checksumOk());
}

TEST(Pipeline, StatefulnessPropagates)
{
    EXPECT_TRUE(
        makePipeline(FunctionId::Count, FunctionId::Rem)->stateful());
    EXPECT_TRUE(
        makePipeline(FunctionId::Nat, FunctionId::Ema)->stateful());
}

TEST(Calibration, ProfilesMatchPaperAnchors)
{
    using enum FunctionId;
    // Table V / Table II anchors.
    EXPECT_NEAR(profile(Platform::SnicBf2, Nat).max_tp_gbps, 41.0, 0.01);
    EXPECT_NEAR(profile(Platform::HostSkylake, Nat).max_tp_gbps, 89.2,
                0.01);
    EXPECT_NEAR(profile(Platform::SnicBf2, Count).max_tp_gbps, 58.4, 0.01);
    EXPECT_NEAR(profile(Platform::SnicBf2, Kvs).max_tp_gbps, 3.0, 0.01);
    EXPECT_NEAR(profile(Platform::SnicBf2, Bayes).max_tp_gbps, 0.1, 0.001);
    // REM accel capped at 50 Gbps (§III-A).
    EXPECT_EQ(profile(Platform::SnicBf2, Rem).unit, ExecUnit::Accel);
    EXPECT_NEAR(profile(Platform::SnicBf2, Rem).cap_gbps, 50.0, 0.01);
    // Host crypto/compression ride QAT (Table I).
    EXPECT_EQ(profile(Platform::HostSkylake, Crypto).unit,
              ExecUnit::Accel);
    EXPECT_EQ(profile(Platform::HostSkylake, Compress).unit,
              ExecUnit::Accel);
}

TEST(Calibration, ServiceTimeReproducesMaxThroughput)
{
    // 8 cores at the per-core MTU service time must hit max_tp.
    for (Platform p : {Platform::HostSkylake, Platform::SnicBf2}) {
        for (FunctionId f : allFunctions()) {
            const auto &prof = profile(p, f);
            if (prof.unit != ExecUnit::Cpu)
                continue;
            const Tick per_pkt = prof.serviceTicks(1500);
            const double tp =
                gbps(1500, per_pkt) * prof.ref_cores;
            EXPECT_NEAR(tp, prof.max_tp_gbps, prof.max_tp_gbps * 0.01)
                << platformName(p) << "/" << functionName(f);
        }
    }
}

TEST(Calibration, SmallPacketsCostRelativelyMore)
{
    // §III-A: the SNIC reaches line rate at MTU but only 40 Gbps at
    // 64 B. Per-byte cost must rise as frames shrink.
    const auto &fwd = profile(Platform::SnicBf2, FunctionId::DpdkFwd);
    const double tp64 = gbps(64, fwd.serviceTicks(64)) * fwd.ref_cores;
    const double tp1500 =
        gbps(1500, fwd.serviceTicks(1500)) * fwd.ref_cores;
    EXPECT_NEAR(tp1500, 100.0, 1.0);
    EXPECT_NEAR(tp64, 40.0, 4.0);
}

TEST(Calibration, RemRulesetVariants)
{
    // §III-A: host wins on teakettle, loses 19x on snort_literals.
    const auto &tea =
        remProfile(Platform::HostSkylake, alg::RulesetKind::Teakettle);
    const auto &lite = remProfile(Platform::HostSkylake,
                                  alg::RulesetKind::SnortLiterals);
    const auto &snic =
        remProfile(Platform::SnicBf2, alg::RulesetKind::SnortLiterals);
    EXPECT_GT(tea.max_tp_gbps, snic.max_tp_gbps);
    EXPECT_NEAR(snic.max_tp_gbps / lite.max_tp_gbps, 19.0, 3.0);
}

TEST(Calibration, PkaRatiosInPaperRange)
{
    std::size_t n = 0;
    const auto *rows = pkaCalib(&n);
    ASSERT_EQ(n, 3u);
    for (std::size_t i = 0; i < n; ++i) {
        const double ratio = rows[i].host_ops_per_s /
                             rows[i].snic_ops_per_s;
        EXPECT_GE(ratio, 24.0) << rows[i].op;
        EXPECT_LE(ratio, 115.0 + 1e-9) << rows[i].op;
        const double lat_cut = 1.0 - static_cast<double>(
            rows[i].host_latency) / rows[i].snic_latency;
        EXPECT_GE(lat_cut, 0.95) << rows[i].op;
        EXPECT_LE(lat_cut, 0.99) << rows[i].op;
    }
}
