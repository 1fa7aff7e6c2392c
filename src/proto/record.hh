/**
 * @file
 * Statistical profile records. TPUPoint-Profiler does not retain raw
 * events; each profile window is summarized into per-step operator
 * statistics plus device meta-data (TPU idle time, MXU utilization),
 * exactly the information Section III-A describes.
 *
 * ProfileRecord is the row view of one record's wire payload, used
 * by the row codec (proto/serialize) only. In memory a profile is
 * its payloads, which consumers decode to ColumnarRecord
 * (proto/columnar); OpStats/OpStatsMap also serve the analyzer's
 * name-keyed phase rankings.
 */

#ifndef TPUPOINT_PROTO_RECORD_HH
#define TPUPOINT_PROTO_RECORD_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/types.hh"

namespace tpupoint {

/** Accumulated statistics for one operator type within one step. */
struct OpStats
{
    std::uint64_t count = 0;     ///< Invocations.
    SimTime total_duration = 0;  ///< Sum of elapsed times.

    void
    add(SimTime duration)
    {
        ++count;
        total_duration += duration;
    }

    void
    merge(const OpStats &other)
    {
        count += other.count;
        total_duration += other.total_duration;
    }
};

/** Map from operator-type label to its accumulated statistics. */
using OpStatsMap = std::map<std::string, OpStats>;

/**
 * Per-step summary: all operator statistics grouped by the TPU step
 * number, split by device side, plus step timing.
 */
struct StepStats
{
    StepId step = kNoStep;
    SimTime begin = kTimeForever; ///< Earliest event start seen.
    SimTime end = 0;              ///< Latest event end seen.
    OpStatsMap host_ops;
    OpStatsMap tpu_ops;
    SimTime tpu_busy = 0;  ///< TPU time attributed to ops.
    SimTime tpu_idle = 0;  ///< TPU time stalled on infeed/outfeed.
    SimTime mxu_active = 0; ///< Equivalent full-MXU-activity time.

    /** Wall-clock span covered by this step's events. */
    SimTime span() const { return end > begin ? end - begin : 0; }
};

/**
 * One profile response: a bounded window of execution summarized
 * into per-step statistics. `truncated` marks windows that hit the
 * 1M-event or 60 s transport cap.
 */
struct ProfileRecord
{
    std::uint64_t sequence = 0;   ///< Profile number in the session.
    SimTime window_begin = 0;
    SimTime window_end = 0;
    std::uint64_t event_count = 0;
    bool truncated = false;

    /**
     * Events the collector rejected after the window hit a
     * transport cap (1M events / 60 s). Quantifies what
     * `truncated` only flags: how much of the window is missing
     * (container v5; 0 on older profiles).
     */
    std::uint64_t events_dropped = 0;

    /** Device meta-data sampled with the response. */
    double tpu_idle_fraction = 0.0;  ///< Idle / elapsed in window.
    double mxu_utilization = 0.0;    ///< MXU-active / elapsed.

    /** Storage retry events (transient faults) in the window. */
    std::uint64_t retries = 0;

    /** Time lost to failed attempts + backoff in the window. */
    SimTime retry_time = 0;

    /**
     * Attempt of a resilient run this window belongs to (container
     * v4; 0 on v3 profiles and single-attempt runs).
     */
    std::uint32_t attempt = 0;

    /**
     * True for an attempt-boundary marker record: a stepless record
     * announcing that the previous attempt was preempted at
     * `preempted_at_step` and this attempt resumes from
     * `resume_step` (the restored checkpoint). Steps in
     * (resume_step, preempted_at_step] are replays.
     */
    bool attempt_boundary = false;

    /** Boundary only: last step the preempted attempt completed. */
    StepId preempted_at_step = 0;

    /** Boundary only: checkpoint step the new attempt resumes at. */
    StepId resume_step = 0;

    /** Per-step summaries, ascending by step. */
    std::vector<StepStats> steps;

    /** Window duration. */
    SimTime span() const { return window_end - window_begin; }
};

} // namespace tpupoint

#endif // TPUPOINT_PROTO_RECORD_HH
