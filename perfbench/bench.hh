/**
 * @file
 * Shared declarations of the end-to-end simulator benchmark: the
 * workloads and their operating points, the benchmark-side span log,
 * the correctness tally, the recorded goldens, and the per-layer
 * replays.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "coherence/domain.hh"
#include "core/server.hh"
#include "funcs/function.hh"
#include "net/packet.hh"
#include "net/traffic.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace perfbench {

using halsim::Tick;

/** Heap allocations made by the whole process so far. */
std::uint64_t allocCount();

/** Median of @p v (sorted copy); 0 for empty. */
double median(std::vector<double> v);

/** Nearest-rank percentile @p q in [0, 1] of @p v; 0 for empty. */
double percentile(std::vector<double> v, double q);

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Simulated time run() adds after the measurement window to drain
 *  in-flight packets (fixed inside ServerSystem::run). */
inline constexpr Tick kDrain = 10 * halsim::kMs;

/** One (mode, function, rate) operating point; every point runs in
 *  Mode::Hal. */
struct Point
{
    std::string label;   //!< unique across workloads; golden key
    halsim::funcs::FunctionId fn;
    std::size_t frame;
    double rate_gbps;    //!< constant offered rate (ignored with trace)
    std::optional<halsim::net::TraceKind> trace;
    /** Governor on, SLO monitor armed, obs stats/trace/spans on. */
    bool control;
    Tick warmup;
    Tick measure;

    /** Simulated milliseconds run() advances. */
    double
    simMs() const
    {
        return static_cast<double>(warmup + measure + kDrain) /
               static_cast<double>(halsim::kMs);
    }
};

struct Workload
{
    std::string name;
    std::vector<Point> points;
};

/** Every workload, in a fixed order. */
const std::vector<Workload> &workloads();

const Workload *findWorkload(const std::string &name);

/** The server configuration of @p p. @p obs turns the control
 *  workload's stats/trace/spans on; it is ignored elsewhere. */
halsim::core::ServerConfig makeConfig(const Point &p, std::uint64_t seed,
                                      bool obs);

/**
 * Benchmark-side spans, kept in memory and written once at the end.
 * A disabled log records nothing, so the untraced run pays only the
 * branch.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on) {}

    /** Start a span under @p parent (-1 for a root); -1 when off. */
    int open(std::string name, int parent);

    void close(int id);

    double seconds(int id) const;

    std::size_t size() const { return spans_.size(); }

    /** Chrome trace_event JSON; args carry the parent and the self
     *  time (duration minus what direct children cover). */
    void writeJson(std::ostream &os) const;

  private:
    struct Span
    {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        int parent;
    };

    bool on_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** Opens a span on construction and closes it on scope exit. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, std::string name, int parent)
        : log_(log), id_(log.open(std::move(name), parent))
    {}
    ~SpanScope() { finish(); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

    /** Close the span now (once); its duration in seconds. */
    double
    finish()
    {
        if (open_) {
            log_.close(id_);
            open_ = false;
        }
        return log_.seconds(id_);
    }

  private:
    SpanLog &log_;
    int id_;
    bool open_ = true;
};

/** Operations attempted and failed; failures are explained on
 *  stderr. Checks without a reference are counted as unchecked. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t unchecked = 0;

    /** Count one operation; @p ok false records @p why. */
    void operation(bool ok, const std::string &why);
};

/**
 * Reference outputs recorded at the commit that introduced the
 * benchmark, for the default seed and one held-out seed: each point's
 * RunResult JSON, and the FNV-1a digest of each verified replayed
 * response of the functions that have no independent oracle.
 */
class Golden
{
  public:
    /** Load @p path; false (with @p error) when unreadable. */
    bool load(const std::string &path, std::string *error);

    const std::string *run(std::uint64_t seed,
                           const std::string &label) const;

    const std::vector<std::uint64_t> *
    responses(std::uint64_t seed, const std::string &label) const;

    void setRun(std::uint64_t seed, const std::string &label,
                std::string json);
    void setResponses(std::uint64_t seed, const std::string &label,
                      std::vector<std::uint64_t> digests);

    void write(std::ostream &os) const;

  private:
    using Key = std::pair<std::uint64_t, std::string>;
    std::map<Key, std::string> runs_;
    std::map<Key, std::vector<std::uint64_t>> responses_;
};

/** The default seed and the held-out seed that have goldens. */
inline constexpr std::uint64_t kGoldenSeeds[] = {1, 2};

inline bool
isGoldenSeed(std::uint64_t seed)
{
    for (std::uint64_t g : kGoldenSeeds) {
        if (g == seed)
            return true;
    }
    return false;
}

/** One construction + run() of a point, timed from outside. */
struct PointRun
{
    halsim::core::RunResult result;
    std::string json;                 //!< result.toJson()
    double setup_s = 0.0;             //!< EventQueue + ServerSystem ctor
    double run_s = 0.0;               //!< run() wall
    std::uint64_t setup_allocs = 0;
    std::uint64_t run_allocs = 0;
    std::uint64_t events = 0;         //!< eventsExecuted() in run()
    std::uint64_t packets = 0;        //!< requests the run generated
    std::uint64_t lbp_steps = 0;      //!< Fwd_Th moves up + down
};

/** Build and run @p p, with setup/run spans under @p parent. */
PointRun runPoint(const Point &p, std::uint64_t seed, bool obs,
                  SpanLog &spans, int parent);

/**
 * Per-run checks: no schedule-into-past clamps, an energy breakdown
 * that sums to the total, the golden RunResult for golden seeds, and
 * a result identical to @p first (an earlier run of the same point in
 * this process) when given.
 */
void checkPointRun(const Point &p, std::uint64_t seed,
                   const PointRun &run, const Golden &golden,
                   const std::string *first, Tally &tally);

/** FNV-1a 64 over @p n bytes. */
std::uint64_t fnv1a(const std::uint8_t *data, std::size_t n);

/** Replayed responses verified per point. */
inline constexpr std::size_t kVerifyPackets = 16;

/**
 * Replay kVerifyPackets requests of @p p through a fresh instance of
 * its function and verify each response: comp by inflating it with
 * system zlib, rem against a naive scan, the rest against the golden
 * digests. With @p record set the digests are stored there instead.
 */
void verifyResponses(const Point &p, std::uint64_t seed,
                     const Golden &golden, Tally &tally,
                     std::vector<std::uint64_t> *record);

struct Metric
{
    double value;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/**
 * One point's function replayed outside the simulator: a fresh
 * instance processes requests from the point's own generator, each
 * restored before every pass.
 */
class FunctionReplay
{
  public:
    FunctionReplay(const Point &p, std::uint64_t seed);

    FunctionReplay(const FunctionReplay &) = delete;
    FunctionReplay &operator=(const FunctionReplay &) = delete;

    /** process() over every request timed as one batch, counting
     *  allocations; seconds per packet. */
    double processBatch(SpanLog &spans, int parent);

    /** process() and makeRequest() timed call by call (each sample
     *  includes two clock reads), pooled for percentiles. */
    void sampleCalls(SpanLog &spans, int parent);

    double processNs(double q) const { return percentile(process_ns_, q); }
    double makeRequestNs(double q) const { return percentile(make_ns_, q); }
    double allocsPerPacket() const;

  private:
    /** Restore every packet to its request. */
    void restore();

    halsim::funcs::FunctionPtr fn_;
    std::size_t frame_;
    halsim::coherence::CoherenceDomain domain_;
    halsim::Rng rng_;
    std::vector<std::vector<std::uint8_t>> requests_;   //!< whole frames
    std::vector<halsim::net::PacketPtr> pkts_;
    std::vector<double> process_ns_;
    std::vector<double> make_ns_;
    std::uint64_t batched_ = 0;
    std::uint64_t batch_allocs_ = 0;
};

/** A point's traced run with its payload replay. */
struct PointProfile
{
    const Point *point;
    PointRun run;
    std::unique_ptr<FunctionReplay> replay;
    /** Replayed process() seconds per packet: one batch right before
     *  and one right after run(), rescaled to the host speed during
     *  run() by the probes around each. */
    double payload_s = 0.0;
};

/**
 * The traced run's layer replays: alg kernels, every function's
 * process/makeRequest, the event queue, packet construction and
 * checksum, eSwitch, ring, director and merger. Replays repeat until
 * @p deadline (at least once), each batch under a span.
 *
 * @param profiles  one traced run of every point of every workload
 * @param own       the indices in @p profiles of this workload's points
 */
void replayLayers(const std::vector<PointProfile> &profiles,
                  const std::vector<std::size_t> &own,
                  std::uint64_t seed, Clock::time_point deadline,
                  SpanLog &spans, int parent, Metrics &out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
