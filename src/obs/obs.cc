#include "obs/obs.hh"

namespace halsim::obs {

std::vector<std::string>
ObsConfig::validate() const
{
    std::vector<std::string> errors;
    if (!enabled())
        return errors;
    if (stats && sample_epoch == 0)
        errors.emplace_back("obs.sample_epoch must be > 0 when obs.stats "
                            "is on");
    if ((trace || spans) && trace_capacity == 0)
        errors.emplace_back("obs.trace_capacity must be > 0 when "
                            "obs.trace or obs.spans is on");
    if ((trace || spans) && trace_sample_every == 0)
        errors.emplace_back("obs.trace_sample_every must be > 0 when "
                            "obs.trace or obs.spans is on");
    if (flightrec && fr_capacity == 0)
        errors.emplace_back("obs.fr_capacity must be > 0 when "
                            "obs.flightrec is on");
    if (flightrec && fr_max_dumps == 0)
        errors.emplace_back("obs.fr_max_dumps must be > 0 when "
                            "obs.flightrec is on");
    return errors;
}

Observability::Observability(EventQueue &eq, const ObsConfig &cfg)
    : eq_(eq), cfg_(cfg)
{
    if (cfg_.trace || cfg_.spans) {
        SpanTracer::Config sc;
        sc.capacity = cfg_.trace_capacity;
        sc.sample_every = cfg_.trace_sample_every;
        spans_ = std::make_unique<SpanTracer>(sc);
    }
    if (cfg_.flightrec) {
        FlightRecorder::Config fc;
        fc.capacity = cfg_.fr_capacity;
        fc.pre = cfg_.fr_pre;
        fc.post = cfg_.fr_post;
        fc.armed = cfg_.fr_armed;
        fc.max_dumps = cfg_.fr_max_dumps;
        flightRec_ = std::make_unique<FlightRecorder>(eq_, fc);
    }
    sampleEvent_.setCallback([this] { onSample(); });
}

Observability::~Observability()
{
    stopSampling();
}

void
Observability::startSampling(Tick until)
{
    if (!cfg_.stats || cfg_.sample_epoch == 0)
        return;
    until_ = until;
    if (eq_.now() + cfg_.sample_epoch <= until_)
        eq_.reschedule(&sampleEvent_, eq_.now() + cfg_.sample_epoch);
}

void
Observability::stopSampling()
{
    if (sampleEvent_.scheduled())
        eq_.deschedule(&sampleEvent_);
}

void
Observability::onSample()
{
    reg_.sampleProbes(eq_.now());
    if (eq_.now() + cfg_.sample_epoch <= until_)
        eq_.schedule(&sampleEvent_, eq_.now() + cfg_.sample_epoch);
}

} // namespace halsim::obs
