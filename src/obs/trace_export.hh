/**
 * @file
 * Trace-event JSON export: the bridge between TPUPoint's recorded
 * profiles (and the toolchain's own spans) and the viewers the real
 * Cloud TPU stack feeds — chrome://tracing and Perfetto both load
 * the trace-event JSON produced here. Two sources share the format:
 *
 *  - ProfileTraceWriter turns a stream of decoded records into
 *    device/host tracks: one `X` duration event per per-step
 *    operator row, a step track, a profile-window track, counter
 *    tracks for idle/MXU, and an instant event at every
 *    attempt-boundary (preemption) marker.
 *  - writeSpanTrace turns the obs::SpanBuffer self-telemetry into
 *    one track per tool thread.
 *
 * The analyzer's chrome://tracing file (writeChromeTrace) is a
 * third. All three build their documents from the helpers below,
 * so the event shapes are written in one place.
 *
 * All timestamps are microseconds, as the trace-event spec
 * requires; profile tracks carry simulated time, span tracks carry
 * wall time (normalized to start at zero).
 */

#ifndef TPUPOINT_OBS_TRACE_EXPORT_HH
#define TPUPOINT_OBS_TRACE_EXPORT_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "core/json.hh"
#include "obs/span.hh"
#include "proto/columnar.hh"

namespace tpupoint {
namespace obs {

/** Open a trace document: `{"traceEvents":[`. */
void beginTraceDocument(JsonWriter &json);

/** Close a trace document opened by beginTraceDocument. */
void endTraceDocument(JsonWriter &json);

/** One `"ph":"M"` event naming track @p tid of process @p pid. */
void writeThreadName(JsonWriter &json, int pid, std::uint64_t tid,
                     std::string_view label);

/**
 * Open one `"ph":"X"` duration event and write its name, pid, tid,
 * ts and dur; @p start and @p duration are nanoseconds, written as
 * microseconds. The caller may add fields (e.g. "args") and closes
 * the event with endObject().
 */
void beginDurationEvent(JsonWriter &json, std::string_view name,
                        int pid, std::uint64_t tid, SimTime start,
                        SimTime duration);

/** Profile-export knobs. */
struct ProfileTraceOptions
{
    /** Export only steps in [first_step, last_step]. The default
     * range covers every step. */
    StepId first_step = 0;
    StepId last_step = kNoStep;

    /** Emit per-step operator rows (the bulk of the events). */
    bool include_ops = true;

    /** Emit idle-fraction / MXU counter tracks. */
    bool include_counters = true;

    /** Pretty-print the JSON. */
    bool pretty = false;
};

/**
 * Streaming exporter: records are added one at a time as the
 * profile reader produces them, so memory stays bounded by one
 * record regardless of profile size. finish() (or destruction)
 * closes the JSON document.
 */
class ProfileTraceWriter
{
  public:
    ProfileTraceWriter(std::ostream &out,
                       const ProfileTraceOptions &options = {});

    ProfileTraceWriter(const ProfileTraceWriter &) = delete;
    ProfileTraceWriter &operator=(const ProfileTraceWriter &) =
        delete;

    ~ProfileTraceWriter();

    /**
     * Export one record (window, steps, ops or boundary). Each
     * step's op rows are emitted in name order.
     */
    void add(const ColumnarRecord &record);

    /** Close the trace document. Idempotent. */
    void finish();

    /** `X` duration events emitted so far. */
    std::uint64_t durationEvents() const { return x_events; }

    /** Instant (attempt-boundary) events emitted so far. */
    std::uint64_t instantEvents() const { return i_events; }

    /** Steps skipped by the [first_step, last_step] filter. */
    std::uint64_t stepsFiltered() const { return filtered; }

  private:
    void durationEvent(std::string_view name, int tid,
                       SimTime start, SimTime duration,
                       std::uint64_t count = 0);
    void opRows(SimTime begin, OpStatsSpan ops, int tid);

    ProfileTraceOptions opts;
    JsonWriter json;
    bool finished = false;
    std::uint64_t x_events = 0;
    std::uint64_t i_events = 0;
    std::uint64_t filtered = 0;

    /** opRows() sort scratch: (name, entry), capacity retained. */
    std::vector<std::pair<std::string_view, const ColumnarOpStats *>>
        named_ops;
};

/**
 * Export the toolchain's own spans: one track per recording
 * thread, wall times normalized so the earliest span starts at 0.
 */
void writeSpanTrace(const std::vector<SpanRecord> &spans,
                    std::ostream &out, bool pretty = false);

/** Convenience: export a SpanBuffer's current contents. */
void writeSpanTrace(const SpanBuffer &buffer, std::ostream &out,
                    bool pretty = false);

} // namespace obs
} // namespace tpupoint

#endif // TPUPOINT_OBS_TRACE_EXPORT_HH
