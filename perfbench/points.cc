// Workload table, point runs and their checks, spans, goldens.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "bench.hh"
#include "net/packet_pool.hh"

namespace perfbench {

using namespace halsim;
using funcs::FunctionId;

const std::vector<Workload> &
workloads()
{
    // Windows are part of each point's definition: the goldens hold
    // the RunResult of exactly these windows. Kernel points are short
    // because one simulated ms of comp costs ~0.25 s of wall time;
    // the trace points need hundreds of ms for the rate process to
    // swing through its distribution.
    static const std::vector<Workload> w = {
        {"kernels",
         {
             {"comp", FunctionId::Compress, net::kMtuFrameBytes, 60.0,
              std::nullopt, false, 2 * kMs, 4 * kMs},
             {"crypto", FunctionId::Crypto, net::kMtuFrameBytes, 60.0,
              std::nullopt, false, 2 * kMs, 4 * kMs},
             {"rem", FunctionId::Rem, net::kMtuFrameBytes, 60.0,
              std::nullopt, false, 2 * kMs, 4 * kMs},
         }},
        {"engine",
         {
             {"fwd", FunctionId::DpdkFwd, 64, 60.0, std::nullopt, false,
              2 * kMs, 8 * kMs},
             {"nat", FunctionId::Nat, 256, 40.0, std::nullopt, false,
              2 * kMs, 8 * kMs},
             {"count", FunctionId::Count, net::kMtuFrameBytes, 60.0,
              std::nullopt, false, 2 * kMs, 8 * kMs},
         }},
        {"control",
         {
             {"nat_hadoop", FunctionId::Nat, net::kMtuFrameBytes, 0.0,
              net::TraceKind::Hadoop, true, 20 * kMs, 200 * kMs},
             {"kvs_web", FunctionId::Kvs, net::kMtuFrameBytes, 0.0,
              net::TraceKind::Web, true, 20 * kMs, 200 * kMs},
             {"count_cache", FunctionId::Count, net::kMtuFrameBytes, 0.0,
              net::TraceKind::Cache, true, 20 * kMs, 200 * kMs},
         }},
    };
    return w;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

core::ServerConfig
makeConfig(const Point &p, std::uint64_t seed, bool obs)
{
    core::ServerConfig c = core::ServerConfig::halDefault(p.fn);
    c.frame_bytes = p.frame;
    c.seed = seed;
    if (p.control) {
        c.power.governor.enabled = true;
        c.slo.target_p99_us = 300.0;
        c.obs.stats = obs;
        c.obs.trace = obs;
        c.obs.spans = obs;
    }
    return c;
}

// --- spans ---------------------------------------------------------------

int
SpanLog::open(std::string name, int parent)
{
    if (!on_)
        return -1;
    const Clock::time_point t = Clock::now();
    spans_.push_back(Span{std::move(name), t, t, parent});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::close(int id)
{
    if (id >= 0)
        spans_[static_cast<std::size_t>(id)].end = Clock::now();
}

double
SpanLog::seconds(int id) const
{
    if (id < 0)
        return 0.0;
    const Span &s = spans_[static_cast<std::size_t>(id)];
    return secondsBetween(s.start, s.end);
}

void
SpanLog::writeJson(std::ostream &os) const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent >= 0)
            child[static_cast<std::size_t>(spans_[i].parent)] +=
                seconds(static_cast<int>(i));
    }
    auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double dur = secondsBetween(s.start, s.end);
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                      "\"self_us\":%.3f}}",
                      us(s.start), dur * 1e6, i, s.parent,
                      (dur - child[i]) * 1e6);
        os << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name << "\","
           << buf;
    }
    os << "]}\n";
}

// --- tally and goldens ---------------------------------------------------

void
Tally::operation(bool ok, const std::string &why)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::cerr << "perfbench: FAIL " << why << "\n";
    }
}

bool
Golden::load(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read golden file " + path;
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string kind, label;
        std::uint64_t seed = 0;
        if (!(ls >> kind >> seed >> label)) {
            *error = "malformed golden line: " + line;
            return false;
        }
        if (kind == "run") {
            std::string json;
            std::getline(ls >> std::ws, json);
            runs_[{seed, label}] = json;
        } else if (kind == "resp") {
            std::vector<std::uint64_t> d;
            std::string hex;
            while (ls >> hex) {
                char *end = nullptr;
                d.push_back(std::strtoull(hex.c_str(), &end, 16));
                if (*end != '\0') {
                    *error = "malformed digest in golden line: " + line;
                    return false;
                }
            }
            responses_[{seed, label}] = std::move(d);
        } else {
            *error = "unknown golden kind: " + kind;
            return false;
        }
    }
    return true;
}

const std::string *
Golden::run(std::uint64_t seed, const std::string &label) const
{
    const auto it = runs_.find({seed, label});
    return it == runs_.end() ? nullptr : &it->second;
}

const std::vector<std::uint64_t> *
Golden::responses(std::uint64_t seed, const std::string &label) const
{
    const auto it = responses_.find({seed, label});
    return it == responses_.end() ? nullptr : &it->second;
}

void
Golden::setRun(std::uint64_t seed, const std::string &label,
               std::string json)
{
    runs_[{seed, label}] = std::move(json);
}

void
Golden::setResponses(std::uint64_t seed, const std::string &label,
                     std::vector<std::uint64_t> digests)
{
    responses_[{seed, label}] = std::move(digests);
}

void
Golden::write(std::ostream &os) const
{
    os << "# perfbench goldens: 'run <seed> <point> <RunResult JSON>' "
          "and 'resp <seed> <point> <FNV-1a of each replayed "
          "response>'.\n";
    for (const auto &[k, json] : runs_)
        os << "run " << k.first << " " << k.second << " " << json << "\n";
    for (const auto &[k, d] : responses_) {
        os << "resp " << k.first << " " << k.second;
        char buf[24];
        for (std::uint64_t x : d) {
            std::snprintf(buf, sizeof(buf), " %016llx",
                          static_cast<unsigned long long>(x));
            os << buf;
        }
        os << "\n";
    }
}

// --- point runs ----------------------------------------------------------

namespace {

std::uint64_t
packetsMade()
{
    const net::PacketPool &pool = net::PacketPool::local();
    return pool.hits() + pool.misses();
}

} // namespace

PointRun
runPoint(const Point &p, std::uint64_t seed, bool obs, SpanLog &spans,
         int parent)
{
    // Every point starts from an empty frame pool, so allocation
    // counts do not depend on which point ran before.
    net::PacketPool::local().clear();
    const core::ServerConfig cfg = makeConfig(p, seed, obs);

    PointRun out;
    std::unique_ptr<EventQueue> eq;
    std::unique_ptr<core::ServerSystem> sys;
    {
        SpanScope span(spans, "setup", parent);
        const std::uint64_t a0 = allocCount();
        const Clock::time_point t0 = Clock::now();
        eq = std::make_unique<EventQueue>();
        sys = std::make_unique<core::ServerSystem>(*eq, cfg);
        const Clock::time_point t1 = Clock::now();
        out.setup_allocs = allocCount() - a0;
        out.setup_s = secondsBetween(t0, t1);
    }

    std::unique_ptr<net::RateProcess> rate =
        p.trace ? net::makeTrace(*p.trace)
                : std::make_unique<net::ConstantRate>(p.rate_gbps);
    const std::uint64_t pkts0 = packetsMade();
    const std::uint64_t ev0 = sys->eventsExecuted();
    {
        SpanScope span(spans, "run", parent);
        const std::uint64_t a0 = allocCount();
        const Clock::time_point t0 = Clock::now();
        out.result = sys->run(std::move(rate), p.warmup, p.measure);
        const Clock::time_point t1 = Clock::now();
        out.run_allocs = allocCount() - a0;
        out.run_s = secondsBetween(t0, t1);
    }
    out.events = sys->eventsExecuted() - ev0;
    out.packets = packetsMade() - pkts0;
    if (const core::LoadBalancingPolicy *lbp = sys->lbp())
        out.lbp_steps = lbp->adjustmentsUp() + lbp->adjustmentsDown();

    std::ostringstream os;
    out.result.toJson(os);
    out.json = os.str();
    sys.reset();
    eq.reset();
    return out;
}

void
checkPointRun(const Point &p, std::uint64_t seed, const PointRun &run,
              const Golden &golden, const std::string *first,
              Tally &tally)
{
    const core::RunResult &r = run.result;
    std::string why;
    if (r.past_clamps != 0)
        why += " past_clamps=" + std::to_string(r.past_clamps);

    const double parts = r.energy_snic_cpu_j + r.energy_snic_accel_j +
                         r.energy_host_cpu_j + r.energy_host_accel_j +
                         r.energy_extra_j + r.energy_static_j;
    if (!(std::abs(parts - r.energy_total_j) <=
          1e-9 * std::max(1.0, std::abs(r.energy_total_j)))) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      " energy parts sum %.12g != total %.12g", parts,
                      r.energy_total_j);
        why += buf;
    }

    if (isGoldenSeed(seed)) {
        const std::string *g = golden.run(seed, p.label);
        if (g == nullptr)
            why += " no golden RunResult recorded";
        else if (*g != run.json)
            why += " RunResult differs from golden\n  golden: " + *g +
                   "\n  got:    " + run.json;
    } else {
        ++tally.unchecked;
    }

    if (first != nullptr && *first != run.json)
        why += " RunResult differs from the first run of this point";

    tally.operation(why.empty(), p.label + ":" + why);
}

// --- helpers -------------------------------------------------------------

std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

} // namespace perfbench
