/**
 * @file
 * The analyzer's working set: all profile records of a run merged
 * into one per-step table (TPUPoint-Analyzer "extracts the records
 * from all statistical profiles and aggregates records together
 * using the TPU step numbers" — Section IV-A, stage 1).
 *
 * Storage is columnar: parallel per-step arrays for the scalar
 * columns (step id, timing, device counters, replay flag) and, for
 * the per-step operator statistics, one id-sorted entry vector per
 * row, with operator names interned to dense u32 ids
 * (core/interner). The builder folds into those rows and build()
 * hands them over as they are, so finishing a table copies nothing.
 * Detectors walk each row's contiguous entries and compare integer
 * ids; a name is looked up through the interner only where a label
 * is printed.
 */

#ifndef TPUPOINT_ANALYZER_STEP_TABLE_HH
#define TPUPOINT_ANALYZER_STEP_TABLE_HH

#include <string>
#include <utility>
#include <vector>

#include "proto/columnar.hh"

namespace tpupoint {

/**
 * Per-step statistics aggregated across every profile window,
 * ascending by step number. Columnar accessors index by row
 * position (0..size()), not by step id.
 */
class StepTable
{
  public:
    /** Number of steps observed. */
    std::size_t size() const { return ids.size(); }

    /** Columnar accessors (unchecked; index < size()). */
    StepId stepId(std::size_t i) const { return ids[i]; }
    SimTime beginTime(std::size_t i) const { return begins[i]; }
    SimTime endTime(std::size_t i) const { return ends[i]; }
    SimTime tpuBusy(std::size_t i) const { return busys[i]; }
    SimTime tpuIdle(std::size_t i) const { return idles[i]; }
    SimTime mxuActive(std::size_t i) const { return mxus[i]; }
    bool replayed(std::size_t i) const { return replays[i] != 0; }

    /** Wall-clock span covered by step @p i's events. */
    SimTime
    span(std::size_t i) const
    {
        return ends[i] > begins[i] ? ends[i] - begins[i] : 0;
    }

    /** Step @p i's operator entries, sorted by interned id. */
    OpStatsSpan hostOps(std::size_t i) const { return host_rows[i]; }
    OpStatsSpan tpuOps(std::size_t i) const { return tpu_rows[i]; }

    /** Sum of all step spans (the execution time phases divide). */
    SimTime totalDuration() const;

  private:
    friend class StepTableBuilder;

    std::vector<StepId> ids;
    std::vector<SimTime> begins, ends, busys, idles, mxus;
    std::vector<std::uint8_t> replays;

    /** Row i's op entries, id-sorted: the builder's merge rows. */
    std::vector<std::vector<ColumnarOpStats>> host_rows, tpu_rows;
};

/**
 * Incremental step aggregation: records are folded in one at a
 * time as they arrive from the streaming reader, so the table can
 * be built while the profile is still being read (or recorded)
 * without materializing the record list. Rows are kept sorted by
 * step id throughout (ingest is effectively append-only for
 * in-order profiles), so build() is a move, not a sort or a copy.
 */
class StepTableBuilder
{
  public:
    /**
     * Fold one decoded record into the aggregation: entries merge
     * id-to-id by linear merge of the sorted runs.
     */
    void ingest(const ColumnarRecord &record);

    /** Records folded in so far. */
    std::uint64_t recordsIngested() const { return records_seen; }

    /** Steps aggregated so far. */
    std::size_t stepsAggregated() const { return table.size(); }

    /**
     * Read-only view of the in-progress aggregation: rows sorted by
     * step id, the table build() will return. The incremental
     * detectors consume settled rows through it without waiting
     * for the build; a later ingest may still fold into a row (see
     * touchedFloor()), so op spans taken from it are valid only
     * until the next ingest or dropAfter().
     */
    const StepTable &rows() const { return table; }

    /**
     * Rewind detection for incremental consumers: the lowest row
     * index any fold has touched since the last clear (SIZE_MAX
     * when nothing folded). A consumer that has observed rows
     * [0, n) re-observes from scratch when the floor dips below n
     * — an out-of-order window or attempt stitch changed history.
     */
    std::size_t touchedFloor() const { return touched_floor; }

    /** Reset the touch floor after the consumer caught up. */
    void
    clearTouchedFloor()
    {
        touched_floor = static_cast<std::size_t>(-1);
    }

    /**
     * Attempt stitching, part 1: erase every aggregated step with
     * id > @p after. A preempted attempt's final windows carry
     * steps past the resume point — completed steps the restart
     * will re-run (which must not double-count) and prefetch
     * activity attributed to steps that never finished. Rows are
     * sorted by step id, so this is one binary search plus a
     * truncation of each column: O(log n + tail).
     * @param dropped_span When non-null, accumulates the wall span
     *     of the dropped rows (the discarded work).
     * @return Rows erased.
     */
    std::size_t dropAfter(StepId after,
                          SimTime *dropped_span = nullptr);

    /**
     * Attempt stitching, part 2: steps in (@p after, @p through]
     * ingested from now on are marked replayed — the checkpoint ->
     * preemption gap the restarted attempt runs again.
     */
    void markReplayed(StepId after, StepId through);

    /** Finish aggregation; the builder's rows move into the
     * table. */
    StepTable build() &&;

  private:
    /** Row index for @p step, inserting a fresh row if absent. */
    std::size_t rowFor(StepId step, SimTime begin, SimTime end);

    /** Fold one step's scalar columns + sorted op runs. */
    void foldStep(StepId step, SimTime begin, SimTime end,
                  SimTime busy, SimTime idle, SimTime mxu,
                  OpStatsSpan host, OpStatsSpan tpu);

    /** The rows aggregated so far, sorted ascending by step id. */
    StepTable table;

    /** Reused merge scratch (capacity retained). */
    std::vector<ColumnarOpStats> scratch;

    std::uint64_t records_seen = 0;

    /** Lowest row index folded since clearTouchedFloor(). */
    std::size_t touched_floor = static_cast<std::size_t>(-1);

    /** (after, through] ranges whose re-ingested steps are
     * replays. */
    std::vector<std::pair<StepId, StepId>> replay_ranges;
};

} // namespace tpupoint

#endif // TPUPOINT_ANALYZER_STEP_TABLE_HH
