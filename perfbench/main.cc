/**
 * @file
 * End-to-end simulator benchmark: wall seconds per simulated
 * millisecond at the paper's (mode, function, rate) operating points.
 *
 *   perfbench --workload kernels|engine|control --seed N --seconds S
 *             --trace 0|1 --golden FILE [--trace-dir DIR]
 *   perfbench --record-golden FILE
 *
 * --trace 0 runs the workload's points in rounds until S seconds have
 * passed, timing each ServerSystem constructor and run() from outside,
 * and reports the end-to-end metrics (medians over rounds). --trace 1
 * is the traced run: it runs every point of every workload once under
 * benchmark-side spans, replays each layer's entry points with the
 * points' own inputs until S seconds have passed, reports the
 * per-layer metrics and writes the spans to DIR. Every run checks its
 * outputs; the last stdout line is one JSON object with the keys
 * correct, attempted, failed and metrics.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hh"

using namespace perfbench;
using namespace halsim;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string golden;
    std::string trace_dir = ".";
    std::string record;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --golden FILE [--trace-dir DIR]\n"
                 "       perfbench --record-golden FILE\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || v[0] == '-')
                usage("bad --seed '" + v + "'");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(a.seconds > 0.0))
                usage("bad --seconds '" + v + "'");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--golden") {
            a.golden = v;
        } else if (flag == "--trace-dir") {
            a.trace_dir = v;
        } else if (flag == "--record-golden") {
            a.record = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    return a;
}

/** Raw figures of an untraced run, printed for information. */
struct RawInfo
{
    std::size_t rounds = 0;
    double run_wall_s = 0.0;   //!< sum of per-point median run() wall
    double setup_s = 0.0;      //!< sum of per-point median setup wall
    double probe_s = 0.0;      //!< median probe time
};

// --- environment stamp ----------------------------------------------------

int
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 0;
    return CPU_COUNT(&set);
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto b = s.find_first_not_of(' ');
        const auto e = s.find_last_not_of(' ');
        if (b != std::string::npos)
            return s.substr(b, e - b + 1);
    }
#endif
    return "unknown";
}

std::string
compiler()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += c;
    }
    return o;
}

void
printEnv(const Args &a, const RawInfo &raw, const Tally &t)
{
    std::printf("perfbench env: {\"nproc\": %d, \"cpu\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                "\"unchecked\": %llu",
                nproc(), jsonEscape(cpuModel()).c_str(),
                jsonEscape(compiler()).c_str(), PERFBENCH_BUILD_TYPE,
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.trace ? 1 : 0, static_cast<unsigned long long>(t.unchecked));
    if (!a.trace)
        std::printf(", \"rounds\": %zu, \"raw_run_wall_s\": %.6g, "
                    "\"raw_setup_s\": %.6g, \"probe_s\": %.6g",
                    raw.rounds, raw.run_wall_s, raw.setup_s, raw.probe_s);
    std::printf("}\n");
}

void
printResult(const Tally &t, const Metrics &m)
{
    std::string s = "{\"correct\": ";
    s += t.failed == 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(t.attempted);
    s += ", \"failed\": " + std::to_string(t.failed);
    s += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : m) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", metric.value);
        s += std::string(first ? "" : ", ") + "\"" + name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + metric.unit +
             "\"}";
        first = false;
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
    std::fflush(stdout);
}

/** The RunResult with the fields that report obs's own output
 *  cleared: everything else must not depend on obs being on. */
std::string
simulationJson(core::RunResult r)
{
    r.trace_spans = 0;
    r.fr_dumps = 0;
    r.fr_trigger_fault = 0;
    r.fr_trigger_slo = 0;
    r.fr_trigger_shed = 0;
    r.fr_trigger_gov = 0;
    std::ostringstream os;
    r.toJson(os);
    return os.str();
}

// --- modes ----------------------------------------------------------------

int
recordGolden(const std::string &path)
{
    Golden g;
    SpanLog off(false);
    Tally unused;
    for (std::uint64_t seed : kGoldenSeeds) {
        for (const Workload &w : workloads()) {
            for (const Point &p : w.points) {
                g.setRun(seed, p.label,
                         runPoint(p, seed, true, off, -1).json);
                if (p.fn == funcs::FunctionId::Compress ||
                    p.fn == funcs::FunctionId::Rem)
                    continue;
                std::vector<std::uint64_t> d;
                verifyResponses(p, seed, g, unused, &d);
                g.setResponses(seed, p.label, std::move(d));
            }
        }
    }
    std::ofstream out(path);
    g.write(out);
    return out ? 0 : 1;
}

/**
 * Host-speed probe: a fixed branchy sort plus small-allocation churn
 * (~15 ms), written here so that no change to the simulator can move
 * it. On shared hosts the simulator's speed drifts by up to 2x over
 * tens of seconds as co-tenants come and go; this probe slows in
 * step (a latency-bound arithmetic loop does not), so wall times are
 * reported rescaled by the probes taken just before and after each
 * run. That cancels host drift and leaves changes to the simulator.
 */
double
probe()
{
    static std::vector<std::uint64_t> buf(1 << 15);
    static volatile std::uint64_t sink = 0;
    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = 88172645463325252ull;
    for (int r = 0; r < 4; ++r) {
        for (auto &v : buf) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v = x;
        }
        std::sort(buf.begin(), buf.end());
    }
    std::vector<std::vector<int>> vs;
    for (int r = 0; r < 100000; ++r) {
        vs.emplace_back(r % 13 + 1);
        if (vs.size() > 64)
            vs.erase(vs.begin());
    }
    sink = sink + buf[7] + vs.size();
    return secondsBetween(t0, Clock::now());
}

/** Probe wall time the reported seconds are rescaled to (the probe's
 *  uncontended time on the host the baseline was recorded on). */
constexpr double kProbeNominalS = 0.016;

/** Untraced run: rounds of every point, end-to-end metrics. */
RawInfo
untracedRun(const Args &a, const Workload &w, const Golden &golden,
            Tally &tally, Metrics &out)
{
    const Clock::time_point start = Clock::now();
    for (const Point &p : w.points)
        verifyResponses(p, a.seed, golden, tally, nullptr);

    SpanLog off(false);
    const std::size_t n = w.points.size();
    std::vector<std::vector<double>> setup(n), run(n), raw_setup(n),
        raw_run(n);
    std::vector<double> probes{probe()};
    RawInfo info;
    double round_s = 0.0;
    do {
        // Each round draws fresh traffic: a trace point's load depends
        // on its rate draws, so medians over many draws keep the
        // figures from hanging on one seed's luck. Round 0 uses the
        // seed itself, which is what the goldens hold.
        const std::uint64_t seed = a.seed + (info.rounds << 32);
        const Clock::time_point r0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            const PointRun pr = runPoint(w.points[i], seed, true, off, -1);
            probes.push_back(probe());
            const double scale =
                kProbeNominalS /
                (0.5 * (probes[probes.size() - 2] + probes.back()));
            checkPointRun(w.points[i], seed, pr, golden, nullptr, tally);
            setup[i].push_back(pr.setup_s * scale);
            run[i].push_back(pr.run_s * scale);
            raw_setup[i].push_back(pr.setup_s);
            raw_run[i].push_back(pr.run_s);
        }
        ++info.rounds;
        round_s = secondsBetween(r0, Clock::now());
    } while (secondsBetween(start, Clock::now()) + round_s <= a.seconds);

    double log_sum = 0.0, run_sum = 0.0, setup_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double r = median(run[i]);
        log_sum += std::log(r / w.points[i].simMs());
        run_sum += r;
        setup_sum += median(setup[i]);
        info.run_wall_s += median(raw_run[i]);
        info.setup_s += median(raw_setup[i]);
    }
    info.probe_s = median(probes);
    out["wall_s_per_sim_ms"] = {std::exp(log_sum / static_cast<double>(n)),
                                "s/ms"};
    out["run_wall_s"] = {run_sum, "s"};
    out["setup_s"] = {setup_sum, "s"};
    out["peak_rss_mb"] = {peakRssMb(), "MB"};
    out["pass_frac"] = {
        tally.attempted > 0
            ? static_cast<double>(tally.attempted - tally.failed) /
                  static_cast<double>(tally.attempted)
            : 0.0,
        "ratio"};
    return info;
}

/** Obs on/off run pairs per control point in the traced run. */
constexpr int kObsPairs = 3;

/** Traced run: every point once under spans, then layer replays. */
void
tracedRun(const Args &a, const Workload &w, const Golden &golden,
          Tally &tally, Metrics &out)
{
    const Clock::time_point start = Clock::now();
    SpanLog spans(true);
    SpanLog off(false);
    const int root = spans.open("workload:" + w.name, -1);

    std::vector<PointProfile> profiles;
    std::vector<std::size_t> own;
    double obs_on_s = 0.0, obs_off_s = 0.0;
    {
        SpanScope runs(spans, "points", root);
        for (const Workload &wk : workloads()) {
            for (const Point &p : wk.points) {
                verifyResponses(p, a.seed, golden, tally, nullptr);
                auto replay = std::make_unique<FunctionReplay>(p, a.seed);
                SpanScope ps(spans, "point:" + p.label, runs.id());
                // Payload batches right before and after the run, each
                // taken relative to the host-speed probes around it,
                // as is the run, so host drift cancels in the share.
                const double pa = probe();
                const double pre = replay->processBatch(spans, ps.id());
                const double pb = probe();
                PointRun pr = runPoint(p, a.seed, true, spans, ps.id());
                const double pc = probe();
                const double post = replay->processBatch(spans, ps.id());
                const double pd = probe();
                const double payload_s = 0.5 *
                                         (pre / (pa + pb) + post / (pc + pd)) *
                                         (pb + pc);
                checkPointRun(p, a.seed, pr, golden, nullptr, tally);
                if (p.control) {
                    // Obs on/off pairs of the same point: the simulation
                    // must not notice obs.
                    SpanScope po(spans, "obs_pairs", ps.id());
                    for (int pair = 0; pair < kObsPairs; ++pair) {
                        const PointRun on =
                            pair == 0 ? pr
                                      : runPoint(p, a.seed, true, spans,
                                                 po.id());
                        const PointRun poff =
                            runPoint(p, a.seed, false, spans, po.id());
                        tally.operation(
                            simulationJson(pr.result) ==
                                simulationJson(poff.result),
                            p.label + ": RunResult differs between obs "
                                      "on and obs off\n  on:  " +
                                simulationJson(pr.result) + "\n  off: " +
                                simulationJson(poff.result));
                        obs_on_s += on.run_s;
                        obs_off_s += poff.run_s;
                    }
                }
                if (&wk == &w)
                    own.push_back(profiles.size());
                profiles.push_back(PointProfile{&p, std::move(pr),
                                                std::move(replay),
                                                payload_s});
            }
        }
    }

    // The span recording's own cost: this workload's points untraced
    // and traced again, both after the process has warmed up.
    double traced_s = 0.0, untraced_s = 0.0;
    {
        SpanScope ts(spans, "trace_overhead", root);
        for (std::size_t i : own) {
            const PointProfile &pp = profiles[i];
            const PointRun plain = runPoint(*pp.point, a.seed, true, off, -1);
            const PointRun traced =
                runPoint(*pp.point, a.seed, true, spans, ts.id());
            for (const PointRun *r : {&plain, &traced})
                checkPointRun(*pp.point, a.seed, *r, golden, &pp.run.json,
                              tally);
            untraced_s += plain.run_s;
            traced_s += traced.run_s;
        }
    }

    {
        SpanScope rs(spans, "replay", root);
        replayLayers(profiles, own, a.seed,
                     start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(a.seconds)),
                     spans, rs.id(), out);
    }
    spans.close(root);

    double events = 0, pkts = 0, run_s = 0, run_allocs = 0, setup_allocs = 0;
    double lbp = 0, epochs = 0, parks = 0;
    for (std::size_t i : own) {
        const PointRun &r = profiles[i].run;
        events += static_cast<double>(r.events);
        pkts += static_cast<double>(r.packets);
        run_s += r.run_s;
        run_allocs += static_cast<double>(r.run_allocs);
        setup_allocs += static_cast<double>(r.setup_allocs);
        lbp += static_cast<double>(r.lbp_steps);
        epochs += static_cast<double>(r.result.gov_epochs);
        parks += static_cast<double>(r.result.gov_parks);
    }
    out["sim.events_per_pkt"] = {events / pkts, "count"};
    out["sim.events_per_s"] = {events / run_s, "1/s"};
    out["core.run_allocs_per_pkt"] = {run_allocs / pkts, "count"};
    out["core.setup_allocs"] = {setup_allocs, "count"};
    out["core.lbp.steps"] = {lbp, "count"};
    out["proc.gov.epochs"] = {epochs, "count"};
    out["proc.gov.parks"] = {parks, "count"};
    out["obs.overhead"] = {obs_on_s / obs_off_s, "ratio"};
    out["trace.overhead"] = {traced_s / untraced_s, "ratio"};

    std::filesystem::create_directories(a.trace_dir);
    const std::string path = a.trace_dir + "/spans-" + w.name + "-seed" +
                             std::to_string(a.seed) + ".json";
    std::ofstream f(path);
    spans.writeJson(f);
    std::printf("perfbench: %zu spans written to %s\n", spans.size(),
                path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    // Start glibc's allocator at the thresholds its dynamic adjustment
    // converges to (heap for blocks up to 32 MiB, trim only past twice
    // that). Left dynamic, whether a large block such as a REM
    // automaton gets fresh pages or recycled heap depends on which
    // point ran before, which moves setup_s and peak_rss_mb.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
    const Args a = parseArgs(argc, argv);
    if (!a.record.empty())
        return recordGolden(a.record);

    const Workload *w = findWorkload(a.workload);
    if (w == nullptr)
        usage("unknown workload '" + a.workload + "'");
    Golden golden;
    std::string err;
    if (a.golden.empty() || !golden.load(a.golden, &err))
        usage(a.golden.empty() ? "--golden is required" : err);

    Tally tally;
    Metrics metrics;
    RawInfo raw;
    if (a.trace)
        tracedRun(a, *w, golden, tally, metrics);
    else
        raw = untracedRun(a, *w, golden, tally, metrics);
    printEnv(a, raw, tally);
    printResult(tally, metrics);
    return 0;
}
