/**
 * @file
 * The analyzer's working set: all profile records of a run merged
 * into one per-step table (TPUPoint-Analyzer "extracts the records
 * from all statistical profiles and aggregates records together
 * using the TPU step numbers" — Section IV-A, stage 1).
 *
 * Storage is columnar: parallel per-step arrays for the scalar
 * columns (step id, timing, device counters, replay flag) and a
 * CSR layout — offset columns into flat, id-sorted operator-entry
 * arrays — for the per-step operator statistics, with operator
 * names interned to dense u32 ids (core/interner). Detectors walk
 * contiguous memory and compare integer ids; a name is looked up
 * through the interner only where a label is printed.
 */

#ifndef TPUPOINT_ANALYZER_STEP_TABLE_HH
#define TPUPOINT_ANALYZER_STEP_TABLE_HH

#include <string>
#include <utility>
#include <vector>

#include "proto/columnar.hh"
#include "proto/record.hh"

namespace tpupoint {

class StepTable;

/**
 * Incremental step aggregation: records are folded in one at a
 * time as they arrive from the streaming reader, so the table can
 * be built while the profile is still being read (or recorded)
 * without materializing the record list. Rows are kept sorted by
 * step id throughout (ingest is effectively append-only for
 * in-order profiles), so build() is a flatten, not a sort.
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
    std::size_t stepsAggregated() const { return ids.size(); }

    /**
     * Read-only peek at row @p i of the in-progress aggregation
     * (rows are sorted by step id, same order build() flattens
     * them in). The incremental detectors consume settled rows
     * through these without waiting for the table; a later ingest
     * may still fold into the row (see touchedFloor()).
     */
    StepId rowStepId(std::size_t i) const { return ids[i]; }

    /** Wall span of in-progress row @p i. */
    SimTime
    rowSpan(std::size_t i) const
    {
        return ends[i] > begins[i] ? ends[i] - begins[i] : 0;
    }

    /** In-progress row @p i's host op entries, id-sorted. */
    OpStatsSpan
    rowHostOps(std::size_t i) const
    {
        return OpStatsSpan(host_rows[i]);
    }

    /** In-progress row @p i's TPU op entries, id-sorted. */
    OpStatsSpan
    rowTpuOps(std::size_t i) const
    {
        return OpStatsSpan(tpu_rows[i]);
    }

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

    /** Finish aggregation; the builder is consumed. */
    StepTable build() &&;

  private:
    /** Row index for @p step, inserting a fresh row if absent. */
    std::size_t rowFor(StepId step, SimTime begin, SimTime end);

    /** Fold one step's scalar columns + sorted op runs. */
    void foldStep(StepId step, SimTime begin, SimTime end,
                  SimTime busy, SimTime idle, SimTime mxu,
                  OpStatsSpan host, OpStatsSpan tpu);

    /** Parallel columns, sorted ascending by step id. */
    std::vector<StepId> ids;
    std::vector<SimTime> begins, ends, busys, idles, mxus;
    std::vector<std::uint8_t> replays;

    /** Per-row op entries, id-sorted (flattened to CSR on build). */
    std::vector<std::vector<ColumnarOpStats>> host_rows;
    std::vector<std::vector<ColumnarOpStats>> tpu_rows;

    /** Reused merge scratch (capacity retained). */
    std::vector<ColumnarOpStats> scratch;

    std::uint64_t records_seen = 0;

    /** Lowest row index folded since clearTouchedFloor(). */
    std::size_t touched_floor = static_cast<std::size_t>(-1);

    /** (after, through] ranges whose re-ingested steps are
     * replays. */
    std::vector<std::pair<StepId, StepId>> replay_ranges;
};

/**
 * Per-step statistics aggregated across every profile window,
 * ascending by step number. Columnar accessors index by row
 * position (0..size()), not by step id.
 */
class StepTable
{
  public:
    /**
     * Merge in-memory records into a table (one-shot builder; each
     * record crosses the toColumnar() boundary).
     */
    static StepTable fromRecords(
        const std::vector<ProfileRecord> &records);

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
    OpStatsSpan
    hostOps(std::size_t i) const
    {
        return OpStatsSpan(host_entries.data() + host_offsets[i],
                           host_offsets[i + 1] - host_offsets[i]);
    }

    OpStatsSpan
    tpuOps(std::size_t i) const
    {
        return OpStatsSpan(tpu_entries.data() + tpu_offsets[i],
                           tpu_offsets[i + 1] - tpu_offsets[i]);
    }

    /** Sum of all step spans (the execution time phases divide). */
    SimTime totalDuration() const;

  private:
    friend class StepTableBuilder;

    std::vector<StepId> ids;
    std::vector<SimTime> begins, ends, busys, idles, mxus;
    std::vector<std::uint8_t> replays;

    /** CSR: row i's entries are *_entries[*_offsets[i] ..
     * *_offsets[i+1]), id-sorted. Offsets have size()+1 elements
     * (or are empty for an empty table). */
    std::vector<std::uint32_t> host_offsets, tpu_offsets;
    std::vector<ColumnarOpStats> host_entries, tpu_entries;
};

} // namespace tpupoint

#endif // TPUPOINT_ANALYZER_STEP_TABLE_HH
