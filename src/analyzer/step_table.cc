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
    // Profiles arrive in step order, so appending is the common
    // case; the binary-search path handles out-of-order windows
    // and re-ingested (replayed) steps.
    if (ids.empty() || step > ids.back()) {
        ids.push_back(step);
        begins.push_back(begin);
        ends.push_back(end);
        busys.push_back(0);
        idles.push_back(0);
        mxus.push_back(0);
        replays.push_back(0);
        host_rows.emplace_back();
        tpu_rows.emplace_back();
        return ids.size() - 1;
    }
    const auto it =
        std::lower_bound(ids.begin(), ids.end(), step);
    const auto row =
        static_cast<std::size_t>(it - ids.begin());
    if (it != ids.end() && *it == step) {
        // Existing row: widen the event envelope.
        begins[row] = std::min(begins[row], begin);
        ends[row] = std::max(ends[row], end);
        return row;
    }
    const auto offset = static_cast<std::ptrdiff_t>(row);
    ids.insert(ids.begin() + offset, step);
    begins.insert(begins.begin() + offset, begin);
    ends.insert(ends.begin() + offset, end);
    busys.insert(busys.begin() + offset, 0);
    idles.insert(idles.begin() + offset, 0);
    mxus.insert(mxus.begin() + offset, 0);
    replays.insert(replays.begin() + offset, 0);
    // Note: explicit empty-vector values; a braced `{}` here would
    // pick the initializer-list overload and insert nothing.
    host_rows.insert(host_rows.begin() + offset,
                     std::vector<ColumnarOpStats>());
    tpu_rows.insert(tpu_rows.begin() + offset,
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
    busys[row] += busy;
    idles[row] += idle;
    mxus[row] += mxu;
    mergeOpRuns(host_rows[row], host, scratch);
    mergeOpRuns(tpu_rows[row], tpu, scratch);
    for (const auto &[after, through] : replay_ranges) {
        if (step > after && step <= through) {
            replays[row] = 1;
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
    const auto it =
        std::upper_bound(ids.begin(), ids.end(), after);
    const auto first =
        static_cast<std::size_t>(it - ids.begin());
    const std::size_t dropped = ids.size() - first;
    if (dropped > 0)
        touched_floor = std::min(touched_floor, first);
    if (dropped_span) {
        for (std::size_t row = first; row < ids.size(); ++row) {
            *dropped_span +=
                ends[row] > begins[row] ? ends[row] - begins[row]
                                        : 0;
        }
    }
    ids.resize(first);
    begins.resize(first);
    ends.resize(first);
    busys.resize(first);
    idles.resize(first);
    mxus.resize(first);
    replays.resize(first);
    host_rows.resize(first);
    tpu_rows.resize(first);
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
    StepTable table;
    table.ids = std::move(ids);
    table.begins = std::move(begins);
    table.ends = std::move(ends);
    table.busys = std::move(busys);
    table.idles = std::move(idles);
    table.mxus = std::move(mxus);
    table.replays = std::move(replays);

    // Flatten the per-row op runs into CSR.
    const std::size_t rows = table.ids.size();
    std::size_t host_total = 0, tpu_total = 0;
    for (std::size_t i = 0; i < rows; ++i) {
        host_total += host_rows[i].size();
        tpu_total += tpu_rows[i].size();
    }
    table.host_offsets.reserve(rows + 1);
    table.tpu_offsets.reserve(rows + 1);
    table.host_entries.reserve(host_total);
    table.tpu_entries.reserve(tpu_total);
    table.host_offsets.push_back(0);
    table.tpu_offsets.push_back(0);
    for (std::size_t i = 0; i < rows; ++i) {
        table.host_entries.insert(table.host_entries.end(),
                                  host_rows[i].begin(),
                                  host_rows[i].end());
        table.tpu_entries.insert(table.tpu_entries.end(),
                                 tpu_rows[i].begin(),
                                 tpu_rows[i].end());
        table.host_offsets.push_back(
            static_cast<std::uint32_t>(table.host_entries.size()));
        table.tpu_offsets.push_back(
            static_cast<std::uint32_t>(table.tpu_entries.size()));
    }
    host_rows.clear();
    tpu_rows.clear();
    return table;
}

StepTable
StepTable::fromRecords(const std::vector<ProfileRecord> &records)
{
    StepTableBuilder builder;
    ColumnarRecord columnar;
    for (const auto &record : records) {
        toColumnar(record, columnar);
        builder.ingest(columnar);
    }
    return std::move(builder).build();
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
