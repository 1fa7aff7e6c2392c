#include "sim/fault.hh"

#include <algorithm>

#include "core/logging.hh"

namespace tpupoint {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None: return "none";
      case FaultKind::TransientError: return "transient-error";
      case FaultKind::LatencySpike: return "latency-spike";
      case FaultKind::StreamReset: return "stream-reset";
    }
    panic("faultKindName: unknown kind");
}

bool
FaultSpec::enabled() const
{
    for (const auto &window : windows) {
        if (!window.quiet())
            return true;
    }
    return false;
}

FaultSpec
FaultSpec::uniform(double error_rate, double spike_rate,
                   double reset_rate)
{
    FaultWindow window;
    window.error_rate = error_rate;
    window.spike_rate = spike_rate;
    window.reset_rate = reset_rate;
    FaultSpec spec;
    spec.windows.push_back(window);
    return spec;
}

bool
PreemptionSpec::enabled() const
{
    return !events.empty() || rate_per_hour > 0;
}

PreemptionSpec
PreemptionSpec::at(SimTime when, PreemptionKind kind)
{
    PreemptionSpec spec;
    spec.events.push_back({when, kind});
    return spec;
}

PreemptionSpec
PreemptionSpec::poisson(double per_hour, std::uint64_t seed)
{
    PreemptionSpec spec;
    spec.rate_per_hour = per_hour;
    spec.seed = seed;
    return spec;
}

PreemptionPlan::PreemptionPlan(const PreemptionSpec &spec,
                               std::uint64_t fallback_seed)
    : schedule(spec.events),
      rng(spec.seed ? spec.seed : fallback_seed)
{
    if (spec.rate_per_hour < 0)
        fatal("PreemptionPlan: rate must be non-negative");
    if (spec.maintenance_share < 0 || spec.maintenance_share > 1)
        fatal("PreemptionPlan: maintenance share must lie in [0, 1]");
    for (const auto &event : schedule) {
        if (event.at < 0)
            fatal("PreemptionPlan: events cannot predate the run");
    }
    if (spec.rate_per_hour > 0) {
        // Materialize the Poisson arrivals up front — exponential
        // inter-arrival gaps at the configured hourly rate — so the
        // whole schedule is a pure function of the seed, however
        // many attempts end up consulting it.
        constexpr SimTime kHour = 3600 * kSec;
        const SimTime horizon = spec.horizon > 0
            ? spec.horizon : 30 * 24 * kHour;
        double t_hours = 0;
        for (;;) {
            t_hours += rng.exponential(spec.rate_per_hour);
            const SimTime at = static_cast<SimTime>(
                t_hours * static_cast<double>(kHour));
            if (at >= horizon)
                break;
            PreemptionEvent event;
            event.at = at;
            event.kind = rng.bernoulli(spec.maintenance_share)
                ? PreemptionKind::Maintenance
                : PreemptionKind::Eviction;
            schedule.push_back(event);
        }
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const PreemptionEvent &a,
                        const PreemptionEvent &b) {
                         return a.at < b.at;
                     });
}

const PreemptionEvent *
PreemptionPlan::poll(SimTime now)
{
    if (cursor >= schedule.size() || schedule[cursor].at > now)
        return nullptr;
    ++fired;
    return &schedule[cursor++];
}

void
PreemptionPlan::discardUntil(SimTime now)
{
    while (cursor < schedule.size() && schedule[cursor].at <= now) {
        ++cursor;
        ++skipped;
    }
}

std::string
PreemptionPlan::summary() const
{
    return std::to_string(schedule.size()) + " scheduled, " +
        std::to_string(fired) + " triggered, " +
        std::to_string(skipped) + " discarded";
}

FaultPlan::FaultPlan(const FaultSpec &spec,
                     std::uint64_t fallback_seed)
    : plan(spec), rng(spec.seed ? spec.seed : fallback_seed)
{
    for (const auto &window : plan.windows) {
        if (window.error_rate < 0 || window.error_rate > 1 ||
            window.spike_rate < 0 || window.spike_rate > 1 ||
            window.reset_rate < 0 || window.reset_rate > 1)
            fatal("FaultPlan: rates must lie in [0, 1]");
        if (window.end <= window.begin)
            fatal("FaultPlan: window end must follow its begin");
    }
}

FaultDecision
FaultPlan::sample(SimTime now)
{
    ++sampled;
    FaultDecision decision;
    const FaultWindow *active = nullptr;
    for (const auto &window : plan.windows) {
        if (window.active(now) && !window.quiet()) {
            active = &window;
            break;
        }
    }
    if (!active)
        return decision;

    // One class per attempt, errors taking precedence over resets
    // over spikes; each draw comes from the plan's own stream so
    // the schedule is a pure function of the seed.
    if (rng.bernoulli(active->error_rate)) {
        decision.kind = FaultKind::TransientError;
    } else if (rng.bernoulli(active->reset_rate)) {
        decision.kind = FaultKind::StreamReset;
        decision.completed_fraction = rng.nextDouble();
    } else if (rng.bernoulli(active->spike_rate)) {
        decision.kind = FaultKind::LatencySpike;
        decision.extra_latency = static_cast<SimTime>(
            static_cast<double>(active->spike_latency) *
            rng.exponential(1.0));
    }
    ++counts[static_cast<std::size_t>(decision.kind)];
    return decision;
}

std::uint64_t
FaultPlan::injected(FaultKind kind) const
{
    return counts[static_cast<std::size_t>(kind)];
}

std::uint64_t
FaultPlan::injectedTotal() const
{
    return injected(FaultKind::TransientError) +
        injected(FaultKind::LatencySpike) +
        injected(FaultKind::StreamReset);
}

std::string
FaultPlan::summary() const
{
    std::string out;
    out += "errors=" +
        std::to_string(injected(FaultKind::TransientError));
    out += " spikes=" +
        std::to_string(injected(FaultKind::LatencySpike));
    out += " resets=" +
        std::to_string(injected(FaultKind::StreamReset));
    out += " of " + std::to_string(sampled) + " samples";
    return out;
}

void
checkBackoff(const char *who, double multiplier, double jitter)
{
    if (multiplier < 1)
        fatal(who, ": backoff multiplier must be >= 1");
    if (jitter < 0 || jitter > 1)
        fatal(who, ": jitter must lie in [0, 1]");
}

} // namespace tpupoint
