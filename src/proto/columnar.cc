#include "proto/columnar.hh"

#include <algorithm>

#include "core/logging.hh"
#include "proto/serialize.hh"
#include "trace/bytes.hh"

namespace tpupoint {

void
ColumnarRecord::clear()
{
    sequence = 0;
    window_begin = 0;
    window_end = 0;
    event_count = 0;
    truncated = false;
    events_dropped = 0;
    tpu_idle_fraction = 0.0;
    mxu_utilization = 0.0;
    retries = 0;
    retry_time = 0;
    attempt = 0;
    attempt_boundary = false;
    preempted_at_step = 0;
    resume_step = 0;
    step.clear();
    begin.clear();
    end.clear();
    tpu_busy.clear();
    tpu_idle.clear();
    mxu_active.clear();
    host_offsets.clear();
    tpu_offsets.clear();
    host_ops.clear();
    tpu_ops.clear();
}

namespace {

/**
 * Decode one wire op-stats map into @p ops, interning names from
 * views borrowed off the payload (no string copies). Appended
 * entries are id-sorted afterwards so consumers can merge them
 * linearly; a name repeated within the map is malformed, as in
 * decodeProfileRecord.
 */
bool
getOpStatsColumnar(ByteReader &in,
                   std::vector<ColumnarOpStats> &ops,
                   StringInterner &interner)
{
    std::uint32_t count;
    if (!in.getU32(count))
        return false;
    const std::size_t first = ops.size();
    for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t length;
        std::string_view name;
        ColumnarOpStats entry;
        if (!in.getU32(length) || !in.getBytes(length, name) ||
            !in.getU64(entry.count) ||
            !in.getI64(entry.total_duration))
            return false;
        entry.op = interner.intern(name);
        ops.push_back(entry);
    }
    const auto run = ops.begin() + static_cast<std::ptrdiff_t>(first);
    std::sort(run, ops.end(),
              [](const ColumnarOpStats &a,
                 const ColumnarOpStats &b) { return a.op < b.op; });
    return std::adjacent_find(run, ops.end(),
                              [](const ColumnarOpStats &a,
                                 const ColumnarOpStats &b) {
                                  return a.op == b.op;
                              }) == ops.end();
}

} // namespace

bool
decodeProfileRecordColumnar(std::string_view payload,
                            ColumnarRecord &record,
                            StringInterner &interner)
{
    record.clear();
    ByteReader in(payload);
    std::uint32_t truncated = 0;
    std::uint32_t num_steps = 0;
    if (!in.getU64(record.sequence) ||
        !in.getI64(record.window_begin) ||
        !in.getI64(record.window_end) ||
        !in.getU64(record.event_count) ||
        !in.getU32(truncated) ||
        !in.getF64(record.tpu_idle_fraction) ||
        !in.getF64(record.mxu_utilization) ||
        !in.getU64(record.retries) ||
        !in.getI64(record.retry_time) ||
        !in.getU32(num_steps))
        return false;
    record.truncated = truncated != 0;
    // Same plausibility bound as the row decoder: each step needs
    // at least 56 payload bytes.
    if (num_steps > in.remaining() / 56)
        return false;
    record.host_offsets.push_back(0);
    record.tpu_offsets.push_back(0);
    for (std::uint32_t i = 0; i < num_steps; ++i) {
        std::uint64_t step_id;
        SimTime begin, end, busy, idle, mxu;
        if (!in.getU64(step_id) || !in.getI64(begin) ||
            !in.getI64(end) || !in.getI64(busy) ||
            !in.getI64(idle) || !in.getI64(mxu) ||
            !getOpStatsColumnar(in, record.host_ops, interner))
            return false;
        record.host_offsets.push_back(
            static_cast<std::uint32_t>(record.host_ops.size()));
        if (!getOpStatsColumnar(in, record.tpu_ops, interner))
            return false;
        record.tpu_offsets.push_back(
            static_cast<std::uint32_t>(record.tpu_ops.size()));
        record.step.push_back(step_id);
        record.begin.push_back(begin);
        record.end.push_back(end);
        record.tpu_busy.push_back(busy);
        record.tpu_idle.push_back(idle);
        record.mxu_active.push_back(mxu);
    }
    // Version tails, mirroring decodeProfileRecord: v3 ends after
    // the steps, v4 adds attempt continuity, v5 the drop count.
    if (in.atEnd())
        return true;
    std::uint32_t boundary = 0;
    if (!in.getU32(record.attempt) || !in.getU32(boundary) ||
        !in.getU64(record.preempted_at_step) ||
        !in.getU64(record.resume_step))
        return false;
    record.attempt_boundary = boundary != 0;
    if (in.atEnd())
        return true;
    if (!in.getU64(record.events_dropped))
        return false;
    return in.atEnd();
}

void
toColumnar(const ProfileRecord &row, ColumnarRecord &out)
{
    if (!decodeProfileRecordColumnar(encodeProfileRecord(row), out,
                                     StringInterner::global()))
        panic("toColumnar: encoded record does not decode");
}

} // namespace tpupoint
