#include "core/window.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/server.hh"
#include "obs/hooks.hh"
#include "obs/registry.hh"
#include "obs/span.hh"

namespace halsim::core {

void
throwIfInvalid(const char *what, const std::vector<std::string> &errors)
{
    if (errors.empty())
        return;
    std::string msg = std::string(what) + ": ";
    for (std::size_t i = 0; i < errors.size(); ++i) {
        if (i)
            msg += "; ";
        msg += errors[i];
    }
    throw std::invalid_argument(msg);
}

MeasurementWindow::MeasurementWindow(EventQueue &eq,
                                     const obs::ObsConfig &obs,
                                     const obs::SloConfig &slo)
    : eq_(eq)
{
    // The SLO monitor exists whenever it is configured, independent
    // of obs, so the RunResult SLO fields do not depend on whether
    // stats or tracing are on.
    if (slo.enabled())
        slo_ = std::make_unique<obs::SloMonitor>(slo);
    if (obs.enabled())
        obs_ = std::make_unique<obs::Observability>(eq_, obs);

    obs::FlightRecorder *fr =
        obs_ != nullptr ? obs_->flightRecorder() : nullptr;
    if (fr != nullptr && slo_ != nullptr) {
        slo_->setOnViolation([this, fr](Tick, double p99_us) {
            obs::frTrigger(fr, eq_.now(), obs::FrTrigger::Slo,
                           static_cast<std::uint32_t>(p99_us));
        });
    }

    // Windowed throughput for the "Max" columns of Table V. The
    // window tracks the rate-modulation epoch so bursts are not
    // averaged away.
    sampler_.setCallback([this] {
        const std::uint64_t b = deliveredBytes_();
        maxWindowGbps_ =
            std::max(maxWindowGbps_, gbps(b - lastBytes_, window_));
        lastBytes_ = b;
        if (eq_.now() + window_ <= end_)
            eq_.scheduleIn(&sampler_, window_);
    });
}

void
MeasurementWindow::hookFaults(fault::FaultHooks &fh)
{
    fh.on_inject = [this](const fault::FaultEvent &ev) {
        obs::frTrigger(obs_ != nullptr ? obs_->flightRecorder()
                                       : nullptr,
                       eq_.now(), obs::FrTrigger::Fault, ev.index);
    };
}

void
MeasurementWindow::attachObs(obs::StatsRegistry *reg,
                             std::string_view slo,
                             std::string_view fr) const
{
    if (reg == nullptr)
        return;
    // One allocation per path: setup allocations are a benchmark
    // counter (core.setup_allocs).
    const auto path = [](std::string_view prefix, std::string_view leaf) {
        std::string p;
        p.reserve(prefix.size() + leaf.size());
        p.append(prefix).append(leaf);
        return p;
    };

    if (slo_ != nullptr) {
        const obs::SloMonitor *m = slo_.get();
        reg->fnCounter(path(slo, ".epochs"), [m] { return m->epochs(); });
        reg->fnCounter(path(slo, ".violation_epochs"),
                       [m] { return m->violationEpochs(); });
        reg->fnGauge(path(slo, ".target_p99_us"),
                     [m] { return m->targetP99Us(); });
        reg->fnGauge(path(slo, ".worst_epoch_p99_us"),
                     [m] { return m->worstEpochP99Us(); });
    }

    const obs::FlightRecorder *f =
        obs_ != nullptr ? obs_->flightRecorder() : nullptr;
    reg->fnCounter(path(fr, ".recorded"),
                   [f] { return f != nullptr ? f->recorded() : 0; });
    reg->fnCounter(path(fr, ".dumps"),
                   [f] { return f != nullptr ? f->dumps() : 0; });
    reg->fnCounter(path(fr, ".dumps_dropped"),
                   [f] { return f != nullptr ? f->dumpsDropped() : 0; });
    const auto trigger = [f](obs::FrTrigger t) {
        return [f, t] { return f != nullptr ? f->triggers(t) : 0; };
    };
    reg->fnCounter(path(fr, ".triggers_fault"),
                   trigger(obs::FrTrigger::Fault));
    reg->fnCounter(path(fr, ".triggers_slo"),
                   trigger(obs::FrTrigger::Slo));
    reg->fnCounter(path(fr, ".triggers_shed"),
                   trigger(obs::FrTrigger::Shed));
    reg->fnCounter(path(fr, ".triggers_gov"),
                   trigger(obs::FrTrigger::Gov));
}

void
MeasurementWindow::open(Tick start, Tick end, Tick resample_epoch,
                        std::function<std::uint64_t()> delivered_bytes)
{
    energy_.beginWindow(start);
    if (slo_ != nullptr)
        slo_->beginWindow(start, end);

    // Observability covers the measurement window only: discard
    // warmup samples and records and start the probe sampler. All of
    // it is read-only, so results are identical with obs off.
    if (obs_ != nullptr) {
        obs_->registry().resetAll();
        if (obs_->spans() != nullptr)
            obs_->spans()->clear();
        if (obs_->flightRecorder() != nullptr)
            obs_->flightRecorder()->clear();
        obs_->startSampling(end);
    }

    end_ = end;
    window_ = std::max<Tick>(resample_epoch, 1 * kMs);
    deliveredBytes_ = std::move(delivered_bytes);
    lastBytes_ = deliveredBytes_();
    maxWindowGbps_ = 0.0;
    eq_.scheduleIn(&sampler_, window_);
}

void
MeasurementWindow::close()
{
    if (sampler_.scheduled())
        eq_.deschedule(&sampler_);
    if (obs_ != nullptr)
        obs_->stopSampling();
    energy_.endWindow(end_);
    if (slo_ != nullptr)
        slo_->finishWindow();
}

void
MeasurementWindow::fill(RunResult &r)
{
    r.max_window_gbps = std::max(maxWindowGbps_, r.delivered_gbps);
    r.energy_eff = r.system_power_w > 0.0
                       ? r.delivered_gbps / r.system_power_w
                       : 0.0;
    r.past_clamps = eq_.pastClamps();

    if (obs_ != nullptr) {
        if (obs_->config().spans)
            r.trace_spans = obs_->spans()->recorded();
        if (obs::FlightRecorder *f = obs_->flightRecorder();
            f != nullptr) {
            // The drain already ran every scheduled flush; this only
            // closes dumps whose post window outlived the run.
            f->finalizePending(eq_.now());
            r.fr_dumps = f->dumps();
            r.fr_trigger_fault = f->triggers(obs::FrTrigger::Fault);
            r.fr_trigger_slo = f->triggers(obs::FrTrigger::Slo);
            r.fr_trigger_shed = f->triggers(obs::FrTrigger::Shed);
            r.fr_trigger_gov = f->triggers(obs::FrTrigger::Gov);
        }
    }

    r.energy_total_j = energy_.totalJ();
    r.j_per_request = r.responses > 0
                          ? r.energy_total_j /
                                static_cast<double>(r.responses)
                          : 0.0;
    const double window_gb = r.delivered_gbps * energy_.windowSeconds();
    r.j_per_gb = window_gb > 0.0 ? r.energy_total_j / window_gb : 0.0;

    if (slo_ != nullptr) {
        r.slo_target_p99_us = slo_->targetP99Us();
        r.slo_worst_p99_us = slo_->worstEpochP99Us();
        r.slo_epochs = slo_->epochs();
        r.slo_violation_epochs = slo_->violationEpochs();
    }
}

} // namespace halsim::core
