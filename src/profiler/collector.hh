/**
 * @file
 * The statistics collector behind TPUPoint-Profiler. It consumes
 * the raw event stream and maintains per-step operator statistics
 * for the current profile window — "by storing only statistical
 * information in a profile, TPUPoint-Profiler reduces memory
 * consumption and accelerates the post-processing" (Section III-A).
 */

#ifndef TPUPOINT_PROFILER_COLLECTOR_HH
#define TPUPOINT_PROFILER_COLLECTOR_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hh"
#include "proto/event.hh"
#include "proto/limits.hh"
#include "proto/record.hh"

namespace tpupoint {

/**
 * Aggregates trace events into the per-step summaries of one
 * profile window. Enforces the transport caps: once a window holds
 * 1,000,000 events or spans 60 s, further events are dropped and
 * the harvested record is flagged truncated.
 *
 * The per-event fold works on integers only. Each distinct label
 * text gets a dense id the first time it is seen, and a small
 * pointer-keyed cache maps every label pointer to that id, so an
 * event costs one pointer-hash probe plus a few adds into the
 * step's id-indexed counters; a TraceRun costs the same per
 * distinct label of its summary instead of per op. harvest() writes
 * the window's wire
 * payload straight from those counters, in name order; no
 * name-keyed map is built.
 *
 * Labels are interned strings: a `TraceEvent::type` pointer must
 * keep the same text for the collector's lifetime. The same text
 * at two addresses still folds into one entry.
 */
class StatsCollector : public TraceSink
{
  public:
    /** Begin the first window at @p start. */
    explicit StatsCollector(SimTime start = 0);

    /** Move-only: the last-step cache points into `steps`. */
    StatsCollector(StatsCollector &&) = default;
    StatsCollector &operator=(StatsCollector &&) = default;

    /**
     * Fold one event into the current window.
     * Panics on an event with no type label (a null `type`).
     */
    void record(const TraceEvent &event) override;

    /**
     * Fold a run into the current window, ending in the state its
     * events would leave through record(). A run that fits under
     * both caps is folded whole: one label probe and two adds per
     * distinct label. One that would cross a cap, or whose overhead
     * could make a duration negative, goes through record() event
     * by event, so truncation and drop counts stay exact.
     */
    void recordRun(const TraceRun &run) override;

    /**
     * Close the current window and write its record's wire payload
     * (the bytes encodeProfileRecord gives, stamped with
     * @p attempt) into @p payload, replacing its contents and
     * reusing its capacity. A fresh window begins at
     * @p window_end. Flushes the accepted-event count into
     * `profiler.events_accepted`.
     * @return events accepted into the closed window. A window with
     *     none still uses up a sequence number.
     */
    std::uint64_t harvest(SimTime window_end, std::string &payload,
                          std::uint32_t attempt = 0);

    /**
     * Add the events accepted since the last flush to the
     * `profiler.events_accepted` counter. The per-event path does
     * not touch the counter; harvest() flushes, and an owner that
     * abandons a window without harvesting it must flush first.
     */
    void flushMetrics();

    /** Events accepted into the current window. */
    std::uint64_t eventsInWindow() const { return events; }

    /** Events rejected from the current window after a cap. */
    std::uint64_t eventsDropped() const { return dropped; }

    /** True once the current window hit a transport cap. */
    bool overflowed() const { return truncated; }

    /** Start timestamp of the current window. */
    SimTime windowBegin() const { return window_begin; }

  private:
    /** Label flags, computed once per distinct label text and
     * applied per step at harvest. */
    enum LabelFlag : std::uint8_t
    {
        kTpuIdle = 1,      ///< Infeed/Outfeed: TPU idle, not busy.
        kStorageRetry = 2, ///< A retried storage transfer.
    };

    /** One pointer-cache slot; an empty slot has a null key. */
    struct LabelSlot
    {
        const char *key = nullptr;
        std::uint32_t id = 0;
    };

    /** One step's running totals. `ops[2 * id]` holds label id's
     * host statistics and `ops[2 * id + 1]` its TPU statistics. */
    struct StepAccumulator
    {
        StepId step = kNoStep;
        SimTime begin = kTimeForever;
        SimTime end = 0;
        SimTime mxu_active = 0;
        std::vector<OpStats> ops;
    };

    std::uint32_t lookupLabel(const char *type);
    std::uint32_t internLabel(const char *type);
    StepAccumulator &accumulatorFor(StepId step);
    StepAccumulator &openStep(StepId step);
    void reject(const TraceEvent &event, const char *why);
    const std::vector<std::uint32_t> &idsByName();

    std::vector<LabelSlot> label_cache; ///< Power-of-two slots.
    std::size_t label_cache_used = 0;
    std::vector<std::string> label_names;  ///< Text, by id.
    std::vector<std::uint8_t> label_flags; ///< LabelFlag bits, by id.
    std::unordered_map<std::string, std::uint32_t> label_ids;
    std::vector<std::uint32_t> sorted_ids; ///< Ids in name order.

    /** The window's steps in ascending step order, then spares
     * from earlier windows, cleared, whose `ops` keep their
     * capacity: after warm-up a new step allocates nothing. */
    std::vector<StepAccumulator> steps;
    std::size_t open_steps = 0; ///< Steps in the current window.
    StepId cached_step = kNoStep;
    StepAccumulator *cached_accumulator = nullptr;

    SimTime window_begin;
    std::uint64_t events = 0;
    std::uint64_t events_flushed = 0; ///< Already in the counter.
    std::uint64_t dropped = 0;
    std::uint64_t sequence = 0;
    bool truncated = false;
    StepId latest_step = 0;

    /** Registry counters, resolved once. Pointers (not references)
     * keep the collector assignable — the profiler replaces its
     * collector at every start(). */
    obs::Counter *accepted_metric;
    obs::Counter *dropped_metric;
};

/**
 * A sink that retains raw events (tests and visualization demos
 * only — the production path never stores raw events).
 */
class InMemoryTrace : public TraceSink
{
  public:
    void
    record(const TraceEvent &event) override
    {
        trace.push_back(event);
    }

    const std::vector<TraceEvent> &events() const { return trace; }

    void clear() { trace.clear(); }

  private:
    std::vector<TraceEvent> trace;
};

} // namespace tpupoint

#endif // TPUPOINT_PROFILER_COLLECTOR_HH
