/**
 * @file
 * TPUPoint-Profiler (Section III): the core of the toolchain. A
 * profiling thread periodically requests profiles from the TPU
 * while training continues uninterrupted; an optional recording
 * thread persists each statistical record to cloud storage for
 * TPUPoint-Analyzer. Mirrors the Figure 2 programming interface:
 *
 * @code
 *   TpuPointProfiler profiler(sim, session, options);
 *   profiler.start(/\*analyzer=*\/true);
 *   session.start(...);   // estimator.train(...)
 *   sim.run();
 *   profiler.stop();
 * @endcode
 *
 * The recording path is streaming: each harvested record's wire
 * payload is framed through a backpressured RecordSpool (trace
 * transport layer) and can be spooled directly to a caller-supplied
 * stream via streamTo(), keeping host memory bounded for
 * arbitrarily long runs. In memory a profile is those same
 * payloads: ProfilerOptions::retain_records keeps a copy of each
 * (payloads()) for the optimizer and in-process analysis, which
 * decode them exactly as they would decode the written file.
 */

#ifndef TPUPOINT_PROFILER_PROFILER_HH
#define TPUPOINT_PROFILER_PROFILER_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/span.hh"
#include "profiler/collector.hh"
#include "runtime/session.hh"
#include "sim/simulator.hh"
#include "trace/spool.hh"

namespace tpupoint {

/** TPUPoint-Profiler options. */
struct ProfilerOptions
{
    /** Period between profile requests to the Cloud TPU. */
    SimTime profile_interval = 1 * kSec;

    /**
     * Keep harvested records' payloads in host memory
     * (payloads()). The
     * optimizer and the in-process analyze examples need this;
     * long-running stream-to-disk profiling turns it off for
     * bounded memory.
     */
    bool retain_records = true;

    /** Recording-thread spool: chunking and backpressure. */
    RecordSpoolOptions spool;

    /**
     * Attempt index stamped into every harvested record (container
     * v4). A resilient run profiles each attempt with a fresh
     * profiler; the stamp lets the analyzer stitch the attempts
     * back into one continuous profile.
     */
    std::uint32_t attempt = 0;
};

/**
 * The profiler. One instance profiles one TrainingSession.
 */
class TpuPointProfiler
{
  public:
    TpuPointProfiler(Simulator &simulator, TrainingSession &session,
                     const ProfilerOptions &options = {});

    ~TpuPointProfiler();

    /**
     * Stream the recorded profile to @p out while the run
     * progresses (the recording thread's storage bucket). Must be
     * called before start(); the stream is sealed at stop().
     */
    void streamTo(std::ostream &out);

    /**
     * Record through an externally owned spool instead of creating
     * one. The spool is shared — several profilers (one per attempt
     * of a resilient run) can write the same container, with the
     * owner interleaving attempt-boundary records and sealing the
     * stream once the whole run is over; stop() leaves it open.
     * Must be called before start(); @p shared must outlive the
     * profiler.
     */
    void streamTo(RecordSpool &shared);

    /**
     * Begin profiling. With @p analyzer true the recording thread
     * persists every record through the spool (to the streamTo()
     * sink when one is attached) for post-execution analysis; with
     * false records are only buffered in host memory (the
     * TPUPoint-Optimizer path).
     */
    void start(bool analyzer = true);

    /** Stop profiling: harvest and store the final record. */
    void stop();

    /** True between start() and stop(). */
    bool running() const { return active; }

    /**
     * The wire payload of every record harvested so far, in
     * harvest order: the bytes the spool framed.
     * @pre ProfilerOptions::retain_records
     */
    const std::vector<std::string> &payloads() const;

    /** Records harvested, independent of retention. */
    std::uint64_t recordsRecorded() const
    {
        return records_recorded;
    }

    /** Frame all retained payloads as a profile container. */
    void writeRecords(std::ostream &out) const;

    /** Bytes the recording thread pushed to cloud storage. */
    std::uint64_t bytesRecorded() const { return recorded_bytes; }

    /** Times the recording spool hit its backpressure bound. */
    std::uint64_t spoolStalls() const
    {
        return spool ? spool->stalls() : 0;
    }

    /** Profile requests issued. */
    std::uint64_t requestsIssued() const { return requests; }

  private:
    void scheduleNextRequest();
    void handleResponse();

    Simulator &sim;
    TrainingSession &session;
    ProfilerOptions opts;
    StatsCollector collector;
    std::unique_ptr<obs::TraceSpan> run_span;
    std::vector<std::string> retained; ///< payloads()
    std::string payload; ///< The last harvested window's payload.
    std::unique_ptr<RecordSpool> spool;
    RecordSpool *external_spool = nullptr;
    std::ostream *sink = nullptr;
    bool active = false;
    bool analyzer_enabled = false;
    EventId pending_request = 0;
    std::uint64_t requests = 0;
    std::uint64_t recorded_bytes = 0;
    std::uint64_t records_recorded = 0;
};

} // namespace tpupoint

#endif // TPUPOINT_PROFILER_PROFILER_HH
