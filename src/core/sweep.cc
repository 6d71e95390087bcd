#include "core/sweep.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/config.hh"
#include "funcs/registry.hh"
#include "obs/registry.hh"
#include "obs/span.hh"
#include "proc/payload_pool.hh"
#include "sim/parallel.hh"

namespace halsim::core {

namespace {

/** Build tag stamped into trace metadata. A constant by design:
 *  artifacts must be byte-identical across checkouts and rebuilds,
 *  so no git-describe, hostnames, or timestamps. */
constexpr const char *kBuildTag = "halsim";

/** Selects 0 payload workers on this thread while it lives: points
 *  of a parallel sweep already fill every core. */
class InlineKernels
{
  public:
    InlineKernels() : prev_(proc::setPayloadWorkers(0)) {}
    ~InlineKernels() { proc::setPayloadWorkers(prev_); }
    InlineKernels(const InlineKernels &) = delete;
    InlineKernels &operator=(const InlineKernels &) = delete;

  private:
    std::optional<unsigned> prev_;
};

/** Write @p doc and a newline to @p path (a path that cannot be
 *  opened is reported on stderr). */
void
saveDoc(const std::string &path, const std::string &doc)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                     path.c_str());
        return;
    }
    os << doc << "\n";
}

/** The results artifact: {"bench","threads","points":[rows]}. */
void
saveResults(const std::string &path, const std::string &bench,
            unsigned threads, const std::vector<std::string> &rows)
{
    std::ostringstream os;
    os << "{\"bench\":\"" << obs::jsonEscape(bench)
       << "\",\"threads\":" << threads << ",\"points\":[";
    for (std::size_t i = 0; i < rows.size(); ++i)
        os << (i ? "," : "") << rows[i];
    os << "]}";
    saveDoc(path, os.str());
}

/** The stats and flight-recorder artifacts:
 *  {"bench","points":[{"label","<key>":{...}}, ...]}. */
void
saveLabeled(const std::string &path, const std::string &bench,
            const char *key, const std::vector<SweepJob> &jobs,
            const std::vector<std::string> &docs)
{
    std::ostringstream os;
    os << "{\"bench\":\"" << obs::jsonEscape(bench) << "\",\"points\":[";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        os << (i ? "," : "") << "{\"label\":\""
           << obs::jsonEscape(jobs[i].label) << "\",\"" << key
           << "\":" << docs[i] << "}";
    }
    os << "]}";
    saveDoc(path, os.str());
}

/** The trace artifact: one run_metadata event (bench, the first
 *  job's mode as preset, its seed, kBuildTag), then every point's
 *  Chrome events. */
void
saveTrace(const std::string &path, const std::string &bench,
          const std::vector<SweepJob> &jobs,
          const std::vector<std::string> &events)
{
    std::ostringstream os;
    os << "{\"traceEvents\":[";
    bool first = jobs.empty();
    if (!first) {
        os << "{\"name\":\"run_metadata\",\"ph\":\"M\",\"pid\":0,"
              "\"tid\":0,\"args\":{\"bench\":\""
           << obs::jsonEscape(bench) << "\",\"preset\":\""
           << obs::jsonEscape(jobs[0].mode) << "\",\"seed\":"
           << jobs[0].seed << ",\"build\":\"" << kBuildTag << "\"}}";
    }
    for (const std::string &e : events) {
        if (e.empty())
            continue;
        os << (first ? "" : ",") << e;
        first = false;
    }
    os << "],\"displayTimeUnit\":\"ns\"}";
    saveDoc(path, os.str());
}

/** The job that runs @p point on a ServerSystem. */
SweepJob
serverJob(const SweepPoint &point)
{
    SweepJob job;
    job.label = point.label;
    job.mode = modeName(point.cfg.mode);
    job.function = funcs::functionName(point.cfg.function);
    job.rate_gbps = point.trace ? 0.0 : point.rate_gbps;
    job.seed = point.cfg.seed;
    job.run = [point](const SweepOptions &opts, const KeepObs &keep) {
        ServerConfig cfg = point.cfg;
        applyObsFlags(opts, true, cfg.obs, cfg.slo);
        applyPowerFlags(opts, cfg);
        std::unique_ptr<net::RateProcess> rate;
        if (point.make_rate)
            rate = point.make_rate();
        else if (point.trace)
            rate = net::makeTrace(*point.trace);
        else
            rate = std::make_unique<net::ConstantRate>(point.rate_gbps);
        EventQueue eq;
        ServerSystem sys(eq, cfg);
        const RunResult r = sys.run(std::move(rate), point.warmup,
                                    point.measure, point.resample);
        keep(sys.obs());
        return r;
    };
    return job;
}

} // namespace

std::string
sweepRowJson(const SweepJob &job, const RunResult &r)
{
    std::ostringstream os;
    os << "{\"label\":\"" << obs::jsonEscape(job.label) << "\""
       << ",\"mode\":\"" << job.mode << "\""
       << ",\"function\":\"" << job.function
       << "\",\"rate_gbps\":" << obs::jsonNumber(job.rate_gbps) << ",";
    r.toJsonFields(os);
    os << "}";
    return os.str();
}

void
applyObsFlags(const SweepOptions &opts, bool stages, obs::ObsConfig &obs,
              obs::SloConfig &slo)
{
    obs.stats = obs.stats || !opts.stats_path.empty();
    obs.trace = obs.trace || (stages && !opts.trace_path.empty());
    obs.spans = obs.spans || !opts.trace_path.empty();
    if (!opts.flightrec_path.empty()) {
        obs.flightrec = true;
        if (opts.fr_armed != 0)
            obs.fr_armed = opts.fr_armed;
        else if (obs.fr_armed == 0)
            obs.fr_armed = (1u << obs::kFrTriggerKinds) - 1;
    }
    if (opts.slo_p99_us > 0.0 && !slo.enabled())
        slo.target_p99_us = opts.slo_p99_us;
}

std::vector<RunResult>
runSweep(const std::vector<SweepJob> &jobs, const SweepOptions &opts)
{
    const bool want_stats = !opts.stats_path.empty();
    const bool want_trace = !opts.trace_path.empty();
    const bool want_fr = !opts.flightrec_path.empty();

    std::vector<RunResult> results(jobs.size());
    std::vector<std::string> stats(jobs.size());
    std::vector<std::string> traces(jobs.size());
    std::vector<std::string> frs(jobs.size());
    const bool wide =
        (opts.threads == 0 ? hardwareThreads() : opts.threads) > 1;
    parallelFor(jobs.size(), opts.threads, [&](std::size_t i) {
        std::optional<InlineKernels> inline_kernels;
        if (wide)
            inline_kernels.emplace();
        results[i] = jobs[i].run(opts, [&, i](const obs::Observability *o) {
            if (o == nullptr)
                return;
            if (want_stats) {
                std::ostringstream os;
                o->writeStatsJson(os);
                stats[i] = os.str();
            }
            if (want_trace) {
                std::ostringstream os;
                bool first = true;
                o->spans()->writeChromeEvents(os, static_cast<int>(i),
                                              first);
                traces[i] = os.str();
            }
            if (want_fr && o->flightRecorder() != nullptr) {
                std::ostringstream os;
                o->flightRecorder()->writeJson(os);
                frs[i] = os.str();
            }
        });
    });

    if (!opts.json_path.empty()) {
        std::vector<std::string> rows;
        for (std::size_t i = 0; i < jobs.size(); ++i)
            rows.push_back(sweepRowJson(jobs[i], results[i]));
        saveResults(opts.json_path, opts.bench_name, opts.threads, rows);
    }
    if (want_stats)
        saveLabeled(opts.stats_path, opts.bench_name, "stats", jobs, stats);
    if (want_trace)
        saveTrace(opts.trace_path, opts.bench_name, jobs, traces);
    if (want_fr) {
        saveLabeled(opts.flightrec_path, opts.bench_name, "flightrec",
                    jobs, frs);
    }
    return results;
}

std::vector<RunResult>
runSweep(const std::vector<SweepPoint> &points, const SweepOptions &opts)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(points.size());
    for (const SweepPoint &p : points)
        jobs.push_back(serverJob(p));
    return runSweep(jobs, opts);
}

void
ArgRegistrar::value(std::string name, std::string metavar,
                    std::string help,
                    std::function<std::string(const std::string &)> parse)
{
    Opt o;
    o.name = std::move(name);
    o.metavar = std::move(metavar);
    o.help = std::move(help);
    o.parse = std::move(parse);
    opts_.push_back(std::move(o));
}

void
ArgRegistrar::flag(std::string name, std::string help,
                   std::function<void()> set)
{
    Opt o;
    o.name = std::move(name);
    o.help = std::move(help);
    o.set = std::move(set);
    opts_.push_back(std::move(o));
}

void
ArgRegistrar::printUsage(std::FILE *out) const
{
    std::fprintf(out, "usage: %s", prog_.c_str());
    for (const Opt &o : opts_) {
        if (o.metavar.empty())
            std::fprintf(out, " [%s]", o.name.c_str());
        else
            std::fprintf(out, " [%s %s]", o.name.c_str(),
                         o.metavar.c_str());
    }
    std::fprintf(out, "\n");
    if (!description_.empty())
        std::fprintf(out, "%s\n", description_.c_str());
    for (const Opt &o : opts_) {
        std::string left = o.name;
        if (!o.metavar.empty())
            left += " " + o.metavar;
        std::fprintf(out, "  %-22s %s\n", left.c_str(), o.help.c_str());
    }
}

void
ArgRegistrar::parse(int argc, char **argv) const
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            std::exit(0);
        }
        const Opt *match = nullptr;
        for (const Opt &o : opts_) {
            if (o.name == arg) {
                match = &o;
                break;
            }
        }
        if (match == nullptr) {
            std::fprintf(stderr, "%s: unknown argument '%s'\n",
                         prog_.c_str(), arg.c_str());
            printUsage(stderr);
            std::exit(2);
        }
        if (match->parse) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a %s operand\n",
                             prog_.c_str(), match->name.c_str(),
                             match->metavar.c_str());
                printUsage(stderr);
                std::exit(2);
            }
            const std::string error = match->parse(argv[++i]);
            if (!error.empty()) {
                std::fprintf(stderr, "%s: %s: %s\n", prog_.c_str(),
                             match->name.c_str(), error.c_str());
                std::exit(2);
            }
        } else {
            match->set();
        }
    }
}

void
registerSweepFlags(ArgRegistrar &reg, SweepOptions &opts)
{
    reg.value("--threads", "N|all",
              "sweep worker threads (all = every hardware thread)",
              [&opts](const std::string &v) -> std::string {
                  std::string error;
                  const auto parsed = parseThreadsValue(v.c_str(), &error);
                  if (!parsed)
                      return error;
                  opts.threads = *parsed;
                  return {};
              });
    reg.value("--json", "PATH", "write the results artifact here",
              [&opts](const std::string &v) -> std::string {
                  opts.json_path = v;
                  return {};
              });
    reg.value("--stats-out", "PATH",
              "write the per-point stats trees here",
              [&opts](const std::string &v) -> std::string {
                  opts.stats_path = v;
                  return {};
              });
    reg.value("--trace", "PATH",
              "record packet stages and request/control spans and "
              "write them as one Chrome trace_event JSON here",
              [&opts](const std::string &v) -> std::string {
                  opts.trace_path = v;
                  return {};
              });
    reg.value("--flightrec", "PATH",
              "enable the flight recorder and write its dumps here",
              [&opts](const std::string &v) -> std::string {
                  opts.flightrec_path = v;
                  return {};
              });
    reg.value(
        "--fr-trigger", "LIST",
        "arm flight-recorder triggers: comma-separated subset of "
        "fault,slo,shed,gov, or all",
        [&opts](const std::string &v) -> std::string {
            std::uint32_t mask = 0;
            std::size_t pos = 0;
            for (;;) {
                const std::size_t comma = v.find(',', pos);
                const std::string tok =
                    comma == std::string::npos
                        ? v.substr(pos)
                        : v.substr(pos, comma - pos);
                if (tok == "all")
                    mask |= (1u << obs::kFrTriggerKinds) - 1;
                else if (tok == "fault")
                    mask |= obs::frTriggerBit(obs::FrTrigger::Fault);
                else if (tok == "slo")
                    mask |= obs::frTriggerBit(obs::FrTrigger::Slo);
                else if (tok == "shed")
                    mask |= obs::frTriggerBit(obs::FrTrigger::Shed);
                else if (tok == "gov")
                    mask |= obs::frTriggerBit(obs::FrTrigger::Gov);
                else
                    return "unknown trigger '" + tok +
                           "' (want fault, slo, shed, gov, or all)";
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
            opts.fr_armed = mask;
            return {};
        });
    reg.value("--slo-p99", "US",
              "arm the SLO monitor at this p99 target (microseconds)",
              [&opts](const std::string &v) -> std::string {
                  char *end = nullptr;
                  const double us = std::strtod(v.c_str(), &end);
                  if (end == nullptr || *end != '\0' || !(us > 0.0)) {
                      return "needs a positive microsecond target, "
                             "got '" +
                             v + "'";
                  }
                  opts.slo_p99_us = us;
                  return {};
              });
    registerPowerFlags(reg, opts);
}

void
registerPowerFlags(ArgRegistrar &reg, SweepOptions &opts)
{
    reg.value("--governor", "on|off",
              "force the core-scaling governor on or off",
              [&opts](const std::string &v) -> std::string {
                  if (v == "on")
                      opts.governor = true;
                  else if (v == "off")
                      opts.governor = false;
                  else
                      return "needs on or off, got '" + v + "'";
                  return {};
              });
    reg.value("--gov-epoch", "US",
              "governor epoch in microseconds (implies nothing else)",
              [&opts](const std::string &v) -> std::string {
                  char *end = nullptr;
                  const double us = std::strtod(v.c_str(), &end);
                  if (end == nullptr || *end != '\0' || !(us > 0.0)) {
                      return "needs a positive microsecond epoch, "
                             "got '" +
                             v + "'";
                  }
                  opts.gov_epoch_us = us;
                  return {};
              });
}

void
applyPowerFlags(const SweepOptions &opts, ServerConfig &cfg)
{
    if (opts.governor)
        cfg.power.governor.enabled = *opts.governor;
    if (opts.gov_epoch_us) {
        cfg.power.governor.epoch = static_cast<Tick>(
            *opts.gov_epoch_us * static_cast<double>(kUs));
    }
}

SweepOptions
parseSweepArgs(int argc, char **argv, std::string bench_name)
{
    SweepOptions opts;
    opts.bench_name = std::move(bench_name);
    opts.threads = envDefaultThreads(opts.threads);
    ArgRegistrar reg(argv[0]);
    registerSweepFlags(reg, opts);
    reg.parse(argc, argv);
    return opts;
}

void
writeSweepJson(const std::string &path, const std::string &bench_name,
               const std::vector<SweepPoint> &points,
               const std::vector<RunResult> &results, unsigned threads)
{
    std::vector<std::string> rows;
    for (std::size_t i = 0; i < points.size(); ++i)
        rows.push_back(sweepRowJson(serverJob(points[i]), results[i]));
    saveResults(path, bench_name, threads, rows);
}

} // namespace halsim::core
