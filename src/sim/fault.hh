/**
 * @file
 * Transient-fault injection for Resource-backed services. A real
 * cloud bucket is not a steady-state pipe: requests fail with
 * retryable errors, tail latency spikes, and long transfers are
 * reset mid-stream. A FaultPlan is a deterministic, seeded schedule
 * of such events keyed to simulated time; services sample it once
 * per operation attempt and react (retry, stall, resume), so whole
 * fault experiments replay bit-for-bit from one seed.
 *
 * Interruption of the device itself — preemptible-instance
 * eviction, maintenance restarts — is modeled the same way: a
 * PreemptionSpec is a deterministic schedule of PreemptionEvents a
 * running TrainingSession consults at safe boundaries, aborting
 * with a partial result when one has landed (the robustness layer
 * ResilientRunner recovers from).
 */

#ifndef TPUPOINT_SIM_FAULT_HH
#define TPUPOINT_SIM_FAULT_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hh"
#include "core/types.hh"

namespace tpupoint {

/** Classes of injected behaviour, sampled per operation attempt. */
enum class FaultKind : std::uint8_t {
    None,           ///< The attempt proceeds normally.
    TransientError, ///< The request fails after its round trip.
    LatencySpike,   ///< The attempt succeeds but pays tail latency.
    StreamReset,    ///< The transfer dies partway through.
};

/** Printable fault-kind name. */
const char *faultKindName(FaultKind kind);

/**
 * One window of the schedule. Rates are per-attempt probabilities;
 * a window with all rates zero is quiet. Windows are keyed to sim
 * time so experiments can model, e.g., a five-minute brown-out in
 * the middle of a run.
 */
struct FaultWindow
{
    SimTime begin = 0;
    SimTime end = kTimeForever;

    /** P(retryable request error) per attempt. */
    double error_rate = 0.0;

    /** P(tail-latency spike) per attempt. */
    double spike_rate = 0.0;

    /** Mean added latency of a spike (exponential tail). */
    SimTime spike_latency = 80 * kMsec;

    /** P(mid-transfer stream reset) per attempt. */
    double reset_rate = 0.0;

    /** True when @p now falls inside [begin, end). */
    bool
    active(SimTime now) const
    {
        return now >= begin && now < end;
    }

    /** True when every rate is zero. */
    bool
    quiet() const
    {
        return error_rate <= 0 && spike_rate <= 0 && reset_rate <= 0;
    }
};

/** The full injection schedule plus its seed — a config value. */
struct FaultSpec
{
    std::vector<FaultWindow> windows;

    /** Plan seed; 0 derives one from the owning session's seed. */
    std::uint64_t seed = 0;

    /** True when any window can actually inject something. */
    bool enabled() const;

    /** One always-active window with the given rates. */
    static FaultSpec uniform(double error_rate,
                             double spike_rate = 0.0,
                             double reset_rate = 0.0);
};

/** Outcome of sampling the plan for one operation attempt. */
struct FaultDecision
{
    FaultKind kind = FaultKind::None;

    /** LatencySpike: latency added on top of the clean attempt. */
    SimTime extra_latency = 0;

    /**
     * StreamReset: fraction of the transfer paid before the reset
     * killed it, in [0, 1).
     */
    double completed_fraction = 0.0;

    /** True when the attempt must be retried. */
    bool
    failed() const
    {
        return kind == FaultKind::TransientError ||
            kind == FaultKind::StreamReset;
    }
};

/** Classes of device interruption a Cloud TPU job can suffer. */
enum class PreemptionKind : std::uint8_t {
    Eviction,    ///< Preemptible-instance eviction; the device is gone.
    Maintenance, ///< Host maintenance event; the device restarts.
};

/** One scheduled device interruption, keyed to simulated time. */
struct PreemptionEvent
{
    SimTime at = 0;
    PreemptionKind kind = PreemptionKind::Eviction;
};

/**
 * The device-interruption schedule — a config value, like
 * FaultSpec. Explicit events model known maintenance windows;
 * `rate_per_hour` adds seeded Poisson arrivals (the preemptible-TPU
 * eviction model) materialized deterministically over `horizon`.
 * Sessions consult the live PreemptionPlan at safe boundaries (the
 * host-loop joins where TPUEstimator regains control) and abort
 * with a partial result when an event has landed.
 */
struct PreemptionSpec
{
    /** Explicit interruptions (any order; the plan sorts them). */
    std::vector<PreemptionEvent> events;

    /** Mean Poisson eviction arrivals per simulated hour. */
    double rate_per_hour = 0.0;

    /** P(a sampled arrival is Maintenance rather than Eviction). */
    double maintenance_share = 0.0;

    /** Sampling horizon for rate arrivals; 0 = 30 simulated days. */
    SimTime horizon = 0;

    /** Plan seed; 0 derives one from the owning session's seed. */
    std::uint64_t seed = 0;

    /** True when the spec can interrupt anything. */
    bool enabled() const;

    /** One explicit interruption at @p when. */
    static PreemptionSpec at(
        SimTime when, PreemptionKind kind = PreemptionKind::Eviction);

    /** Poisson evictions at @p per_hour mean arrivals. */
    static PreemptionSpec poisson(double per_hour,
                                  std::uint64_t seed = 0);
};

/**
 * A live, seeded instance of a PreemptionSpec: the full
 * interruption schedule, materialized at construction so a fixed
 * seed yields the same interruptions every run. Events are consumed
 * in time order with poll(); events that land while no device is
 * held (between attempts of a restarted run) are dropped with
 * discardUntil(). One plan spans every attempt of a resilient run,
 * so a consumed interruption never fires twice.
 */
class PreemptionPlan
{
  public:
    /** A quiet plan: poll() always returns nullptr. */
    PreemptionPlan() : rng(0) {}

    /**
     * @param fallback_seed Used when @p spec.seed is zero, so every
     *     session derives a distinct-but-reproducible stream from
     *     its own seed.
     */
    PreemptionPlan(const PreemptionSpec &spec,
                   std::uint64_t fallback_seed);

    /** True when any interruption is scheduled at all. */
    bool enabled() const { return !schedule.empty(); }

    /** The full materialized schedule, ascending by time. */
    const std::vector<PreemptionEvent> &events() const
    {
        return schedule;
    }

    /**
     * The earliest unconsumed event with `at <= now`, or nullptr.
     * The returned event is consumed: it will interrupt exactly one
     * attempt. The pointer stays valid for the plan's lifetime.
     */
    const PreemptionEvent *poll(SimTime now);

    /**
     * Drop unconsumed events with `at <= now`: an interruption that
     * lands while no device is held (restart backoff) evicts
     * nothing.
     */
    void discardUntil(SimTime now);

    /** Events consumed by poll() so far. */
    std::uint64_t triggered() const { return fired; }

    /** Events dropped by discardUntil() so far. */
    std::uint64_t discarded() const { return skipped; }

    /**
     * Deterministic jitter draw in [0, 1) for restart backoff,
     * from the plan's own stream — one seed fixes the whole
     * preemption experiment, arrivals and backoffs alike.
     */
    double jitter() { return rng.nextDouble(); }

    /** "2 scheduled, 1 triggered, 0 discarded". */
    std::string summary() const;

  private:
    std::vector<PreemptionEvent> schedule;
    std::size_t cursor = 0;
    Rng rng;
    std::uint64_t fired = 0;
    std::uint64_t skipped = 0;
};

/**
 * A live, seeded instance of a FaultSpec. Sampling order is the
 * simulator's (single-threaded, deterministic) event order, so a
 * fixed seed yields the same fault sequence every run. One plan is
 * shared by every service it is injected into; counters record what
 * was actually injected for tests and reports.
 */
class FaultPlan
{
  public:
    /** A quiet plan: sample() always returns None. */
    FaultPlan() : rng(0) {}

    /**
     * @param fallback_seed Used when @p spec.seed is zero, so every
     *     session derives a distinct-but-reproducible stream from
     *     its own seed.
     */
    FaultPlan(const FaultSpec &spec, std::uint64_t fallback_seed);

    /** Sample the outcome of one operation attempt starting now. */
    FaultDecision sample(SimTime now);

    /**
     * Deterministic jitter draw in [0, 1) for retry backoff. Drawn
     * from the same stream as the faults so one seed fixes the
     * whole experiment.
     */
    double jitter() { return rng.nextDouble(); }

    /** True when some window can inject. */
    bool enabled() const { return plan.enabled(); }

    /** Attempts sampled (including ones that drew None). */
    std::uint64_t samples() const { return sampled; }

    /** Faults injected of @p kind. */
    std::uint64_t injected(FaultKind kind) const;

    /** Faults injected across all kinds (None excluded). */
    std::uint64_t injectedTotal() const;

    /** "errors=3 spikes=1 resets=0 of 512 samples". */
    std::string summary() const;

  private:
    FaultSpec plan;
    Rng rng;
    std::uint64_t sampled = 0;
    std::array<std::uint64_t, 4> counts{};
};

/**
 * The backoff storage retries (RetryPolicy) and preemption restarts
 * (ResilientOptions) share: min(initial * multiplier^exponent, max),
 * scaled by 1 +/- @p jitter with the swing drawn from @p plan's own
 * stream, so one seed fixes the whole schedule. Nothing is drawn
 * when @p plan is null or @p jitter is 0.
 */
template <typename Plan>
SimTime
jitteredBackoff(SimTime initial, double multiplier, SimTime max,
                double jitter, int exponent, Plan *plan)
{
    double delay = static_cast<double>(initial);
    for (int i = 0; i < exponent; ++i)
        delay *= multiplier;
    delay = std::min(delay, static_cast<double>(max));
    if (plan && jitter > 0)
        delay *= 1.0 + jitter * (2.0 * plan->jitter() - 1.0);
    return static_cast<SimTime>(delay);
}

/** Fatal, naming @p who, unless @p multiplier >= 1 and @p jitter
 * lies in [0, 1]. */
void checkBackoff(const char *who, double multiplier, double jitter);

} // namespace tpupoint

#endif // TPUPOINT_SIM_FAULT_HH
