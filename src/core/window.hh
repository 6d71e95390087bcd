/**
 * @file
 * MeasurementWindow: the measurement protocol ServerSystem and
 * FleetSystem share. The paper's headline metric is delivered Gbps
 * over average system watts across a window that opens after warmup
 * (§V-B, Fig. 3). This module owns the energy ledger, the SLO monitor
 * and the obs facade, opens and closes the window, samples the
 * windowed maximum throughput, fills the RunResult fields both
 * systems compute alike, and wires the flight-recorder triggers and
 * `slo` / `flightrec` stats. The system keeps what really differs:
 * which meters reset at warmup, its drain after close() (a fixed
 * 10 ms for the server, quiescence for the fleet), and its own
 * RunResult fields.
 */

#ifndef HALSIM_CORE_WINDOW_HH
#define HALSIM_CORE_WINDOW_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hh"
#include "obs/energy.hh"
#include "obs/obs.hh"
#include "obs/slo.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"

namespace halsim::core {

struct RunResult;

/** Throw std::invalid_argument("<what>: e1; e2; ...") unless
 *  @p errors is empty. */
void throwIfInvalid(const char *what,
                    const std::vector<std::string> &errors);

/**
 * @p cfg after its validate() found nothing; otherwise throw every
 * violation at once. Both system constructors validate through this
 * before building any component.
 */
template <class Config>
Config
validated(Config cfg, const char *what)
{
    throwIfInvalid(what, cfg.validate());
    return cfg;
}

class MeasurementWindow
{
  public:
    /** Builds the SLO monitor and the obs facade when their configs
     *  enable them, and arms the SLO-violation trigger of the flight
     *  recorder. */
    MeasurementWindow(EventQueue &eq, const obs::ObsConfig &obs,
                      const obs::SloConfig &slo);

    MeasurementWindow(const MeasurementWindow &) = delete;
    MeasurementWindow &operator=(const MeasurementWindow &) = delete;

    obs::EnergyLedger &energy() { return energy_; }

    /** Null unless the SLO config sets a target. */
    obs::SloMonitor *slo() { return slo_.get(); }

    /** Null unless the obs config enables anything. */
    obs::Observability *obs() { return obs_.get(); }
    const obs::Observability *obs() const { return obs_.get(); }

    /** Fire the flight recorder's Fault trigger on every injected
     *  fault (counted even while the recorder is off). */
    void hookFaults(fault::FaultHooks &fh);

    /**
     * Register `<slo>.{epochs,violation_epochs,target_p99_us,
     * worst_epoch_p99_us}` (SLO monitor on) and `<fr>.{recorded,
     * dumps,dumps_dropped,triggers_*}` (always, reading zero while
     * the recorder is off, so the bench schema's paths exist in
     * every stats artifact). A null @p reg registers nothing.
     */
    void attachObs(obs::StatsRegistry *reg, std::string_view slo,
                   std::string_view fr) const;

    /**
     * Open the window at @p start (the current tick) for a run
     * ending at @p end, and sample @p delivered_bytes every
     * @p resample_epoch (at least 1 ms) for
     * RunResult::max_window_gbps.
     */
    void open(Tick start, Tick end, Tick resample_epoch,
              std::function<std::uint64_t()> delivered_bytes);

    /** Close at the window end, before any drain: drained work's
     *  draw and latencies stay out of the window. */
    void close();

    /**
     * After the drain: max_window_gbps, energy_eff, past_clamps,
     * trace_spans, fr_*, slo_*, energy_total_j, j_per_request and
     * j_per_gb. Reads r.delivered_gbps, r.system_power_w and
     * r.responses, so set those first.
     */
    void fill(RunResult &r);

  private:
    EventQueue &eq_;
    obs::EnergyLedger energy_;
    std::unique_ptr<obs::SloMonitor> slo_;
    std::unique_ptr<obs::Observability> obs_;

    Tick end_ = 0;
    Tick window_ = 0;
    std::function<std::uint64_t()> deliveredBytes_;
    std::uint64_t lastBytes_ = 0;
    double maxWindowGbps_ = 0.0;
    CallbackEvent sampler_;
};

} // namespace halsim::core

#endif // HALSIM_CORE_WINDOW_HH
