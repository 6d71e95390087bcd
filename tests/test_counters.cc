/**
 * @file
 * Exact per-run counters at fixed HAL operating points: the events
 * run() executes, the heap allocations made while the server is built
 * and while it runs, the LBP threshold steps, and the events run()
 * deschedules (each an O(log n) removal from the event heap). The
 * simulator is seeded and the payload kernels run inline, so every
 * count is a deterministic function of the code: one extra event or
 * one extra allocation per packet fails the test, where a wall-clock
 * gate would not see it. The points are perfbench's engine and kernels
 * points and one control point, each with a shorter window.
 *
 * After a deliberate change to one of these counts, copy the measured
 * values the failure prints into the table below.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>

#include "bench.hh"
#include "proc/payload_pool.hh"

using namespace halsim;
using funcs::FunctionId;

namespace {

struct Counts
{
    std::uint64_t events = 0;       //!< eventsExecuted() in run()
    std::uint64_t setup_allocs = 0; //!< EventQueue + ServerSystem ctor
    std::uint64_t run_allocs = 0;   //!< during run()
    std::uint64_t lbp_steps = 0;    //!< Fwd_Th moves up + down
    std::uint64_t deschedules = 0;  //!< EventQueue::deschedules() in run()

    bool operator==(const Counts &) const = default;
};

struct CountPoint
{
    perfbench::Point point;
    Counts expected;
};

/** gtest names a failing point by its label. */
void
PrintTo(const CountPoint &p, std::ostream *os)
{
    *os << p.point.label;
}

constexpr std::size_t kMtu = net::kMtuFrameBytes;

const CountPoint kPoints[] = {
    // engine
    {{"fwd", FunctionId::DpdkFwd, 64, 60.0, std::nullopt, false, 1 * kMs,
      2 * kMs},
     {2706814, 98, 352221, 25, 3}},
    {{"nat", FunctionId::Nat, 256, 40.0, std::nullopt, false, 1 * kMs,
      2 * kMs},
     {447232, 99, 58753, 17, 3}},
    {{"count", FunctionId::Count, kMtu, 60.0, std::nullopt, false, 1 * kMs,
      2 * kMs},
     {117966, 101, 15061, 28, 3}},
    // kernels
    {{"comp", FunctionId::Compress, kMtu, 60.0, std::nullopt, false,
      1 * kMs, 2 * kMs},
     {121143, 34, 16358, 30, 3}},
    {{"crypto", FunctionId::Crypto, kMtu, 60.0, std::nullopt, false,
      1 * kMs, 2 * kMs},
     {131888, 40, 15265, 30, 3}},
    {{"rem", FunctionId::Rem, kMtu, 60.0, std::nullopt, false, 1 * kMs,
      2 * kMs},
     {122878, 2672, 15164, 30, 3}},
    // control: governor, SLO monitor and obs on
    {{"nat_hadoop", FunctionId::Nat, kMtu, 0.0, net::TraceKind::Hadoop,
      true, 5 * kMs, 20 * kMs},
     {80044, 661, 13389, 11, 3}},
};

/** One build and run() of @p p at seed 1, counted as perfbench
 *  counts it (from an empty frame pool). */
Counts
runCounted(const perfbench::Point &p)
{
    perfbench::SpanLog spans(false);
    const perfbench::PointRun r =
        perfbench::runPoint(p, 1, /*obs=*/true, spans, -1);
    return {r.events, r.setup_allocs, r.run_allocs, r.lbp_steps, 0};
}

/** Events descheduled during run() of @p p at seed 1: the same build
 *  as runCounted's, on a queue the test owns (runPoint keeps its
 *  queue private). */
std::uint64_t
runDeschedules(const perfbench::Point &p)
{
    EventQueue eq;
    core::ServerSystem sys(eq, perfbench::makeConfig(p, 1, /*obs=*/true));
    std::unique_ptr<net::RateProcess> rate =
        p.trace ? net::makeTrace(*p.trace)
                : std::make_unique<net::ConstantRate>(p.rate_gbps);
    const std::uint64_t before = eq.deschedules();
    sys.run(std::move(rate), p.warmup, p.measure);
    return eq.deschedules() - before;
}

std::string
report(const Counts &got, const Counts &want)
{
    std::ostringstream os;
    auto row = [&](const char *name, std::uint64_t g, std::uint64_t w) {
        os << "\n  " << name << ": measured " << g << ", expected " << w
           << (g == w ? "" : "  <-- differs");
    };
    row("events", got.events, want.events);
    row("setup_allocs", got.setup_allocs, want.setup_allocs);
    row("run_allocs", got.run_allocs, want.run_allocs);
    row("lbp_steps", got.lbp_steps, want.lbp_steps);
    row("deschedules", got.deschedules, want.deschedules);
    os << "\n  table entry: {" << got.events << ", " << got.setup_allocs
       << ", " << got.run_allocs << ", " << got.lbp_steps << ", "
       << got.deschedules << "}";
    return os.str();
}

class Counters : public ::testing::TestWithParam<CountPoint>
{
  protected:
    // Kernels inline: payload worker start-up would enter the count.
    void SetUp() override { prev_ = proc::setPayloadWorkers(0); }
    void TearDown() override { proc::setPayloadWorkers(prev_); }

  private:
    std::optional<unsigned> prev_;
};

TEST_P(Counters, ExactPerRun)
{
    const CountPoint &p = GetParam();
    // The deschedule run comes first: it also builds every lazily
    // initialised static the point touches, so the counted run does
    // not depend on which test ran before it in this process.
    const std::uint64_t deschedules = runDeschedules(p.point);
    Counts got = runCounted(p.point);
    got.deschedules = deschedules;
    EXPECT_TRUE(got == p.expected)
        << p.point.label << report(got, p.expected);
}

INSTANTIATE_TEST_SUITE_P(
    HalPoints, Counters, ::testing::ValuesIn(kPoints),
    [](const ::testing::TestParamInfo<CountPoint> &info) {
        return info.param.point.label;
    });

} // namespace
