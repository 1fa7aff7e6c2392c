#include "analyzer/step_table.hh"

#include <algorithm>

namespace tpupoint {

namespace {

/**
 * Merge the id-sorted run @p src into the id-sorted row @p dst,
 * accumulating stats for shared ids, via @p scratch (linear merge;
 * scratch capacity is retained across calls).
 */
void
mergeOpRuns(std::vector<ColumnarOpStats> &dst, OpStatsSpan src,
            std::vector<ColumnarOpStats> &scratch)
{
    if (src.empty())
        return;
    if (dst.empty()) {
        dst.assign(src.begin(), src.end());
        return;
    }
    scratch.clear();
    std::size_t i = 0, j = 0;
    while (i < dst.size() && j < src.size()) {
        if (dst[i].op == src[j].op) {
            ColumnarOpStats merged = dst[i];
            merged.count += src[j].count;
            merged.total_duration += src[j].total_duration;
            scratch.push_back(merged);
            ++i;
            ++j;
        } else if (dst[i].op < src[j].op) {
            scratch.push_back(dst[i]);
            ++i;
        } else {
            scratch.push_back(src[j]);
            ++j;
        }
    }
    for (; i < dst.size(); ++i)
        scratch.push_back(dst[i]);
    for (; j < src.size(); ++j)
        scratch.push_back(src[j]);
    dst.assign(scratch.begin(), scratch.end());
}

} // namespace

std::size_t
StepTableBuilder::rowFor(StepId step, SimTime begin, SimTime end)
{
    StepTable &t = table;
    // Profiles arrive in step order, so appending is the common
    // case; the binary-search path handles out-of-order windows
    // and re-ingested (replayed) steps.
    if (t.ids.empty() || step > t.ids.back()) {
        t.ids.push_back(step);
        t.begins.push_back(begin);
        t.ends.push_back(end);
        t.busys.push_back(0);
        t.idles.push_back(0);
        t.mxus.push_back(0);
        t.replays.push_back(0);
        t.host_rows.emplace_back();
        t.tpu_rows.emplace_back();
        return t.ids.size() - 1;
    }
    const auto it =
        std::lower_bound(t.ids.begin(), t.ids.end(), step);
    const auto row =
        static_cast<std::size_t>(it - t.ids.begin());
    if (it != t.ids.end() && *it == step) {
        // Existing row: widen the event envelope.
        t.begins[row] = std::min(t.begins[row], begin);
        t.ends[row] = std::max(t.ends[row], end);
        return row;
    }
    const auto offset = static_cast<std::ptrdiff_t>(row);
    t.ids.insert(t.ids.begin() + offset, step);
    t.begins.insert(t.begins.begin() + offset, begin);
    t.ends.insert(t.ends.begin() + offset, end);
    t.busys.insert(t.busys.begin() + offset, 0);
    t.idles.insert(t.idles.begin() + offset, 0);
    t.mxus.insert(t.mxus.begin() + offset, 0);
    t.replays.insert(t.replays.begin() + offset, 0);
    // Note: explicit empty-vector values; a braced `{}` here would
    // pick the initializer-list overload and insert nothing.
    t.host_rows.insert(t.host_rows.begin() + offset,
                       std::vector<ColumnarOpStats>());
    t.tpu_rows.insert(t.tpu_rows.begin() + offset,
                      std::vector<ColumnarOpStats>());
    return row;
}

void
StepTableBuilder::foldStep(StepId step, SimTime begin, SimTime end,
                           SimTime busy, SimTime idle, SimTime mxu,
                           OpStatsSpan host, OpStatsSpan tpu)
{
    const std::size_t row = rowFor(step, begin, end);
    touched_floor = std::min(touched_floor, row);
    table.busys[row] += busy;
    table.idles[row] += idle;
    table.mxus[row] += mxu;
    mergeOpRuns(table.host_rows[row], host, scratch);
    mergeOpRuns(table.tpu_rows[row], tpu, scratch);
    for (const auto &[after, through] : replay_ranges) {
        if (step > after && step <= through) {
            table.replays[row] = 1;
            break;
        }
    }
}

void
StepTableBuilder::ingest(const ColumnarRecord &record)
{
    for (std::size_t i = 0; i < record.stepCount(); ++i) {
        foldStep(record.step[i], record.begin[i], record.end[i],
                 record.tpu_busy[i], record.tpu_idle[i],
                 record.mxu_active[i], record.hostOps(i),
                 record.tpuOps(i));
    }
    ++records_seen;
}

std::size_t
StepTableBuilder::dropAfter(StepId after, SimTime *dropped_span)
{
    StepTable &t = table;
    const auto it =
        std::upper_bound(t.ids.begin(), t.ids.end(), after);
    const auto first =
        static_cast<std::size_t>(it - t.ids.begin());
    const std::size_t dropped = t.ids.size() - first;
    if (dropped > 0)
        touched_floor = std::min(touched_floor, first);
    if (dropped_span) {
        for (std::size_t row = first; row < t.ids.size(); ++row)
            *dropped_span += t.span(row);
    }
    t.ids.resize(first);
    t.begins.resize(first);
    t.ends.resize(first);
    t.busys.resize(first);
    t.idles.resize(first);
    t.mxus.resize(first);
    t.replays.resize(first);
    t.host_rows.resize(first);
    t.tpu_rows.resize(first);
    return dropped;
}

void
StepTableBuilder::markReplayed(StepId after, StepId through)
{
    if (through <= after)
        return; // a restart from the very preemption point
    replay_ranges.emplace_back(after, through);
}

StepTable
StepTableBuilder::build() &&
{
    return std::move(table);
}

SimTime
StepTable::totalDuration() const
{
    SimTime total = 0;
    for (std::size_t i = 0; i < ids.size(); ++i)
        total += span(i);
    return total;
}

} // namespace tpupoint
