#include "proto/serialize.hh"

#include "core/logging.hh"
#include "trace/bytes.hh"

namespace tpupoint {

namespace {

void
putOpStatsMap(ByteWriter &out, const OpStatsMap &ops)
{
    out.putU32(static_cast<std::uint32_t>(ops.size()));
    for (const auto &[name, stats] : ops) {
        out.putString(name);
        out.putU64(stats.count);
        out.putI64(stats.total_duration);
    }
}

bool
getOpStatsMap(ByteReader &in, OpStatsMap &ops)
{
    std::uint32_t count;
    if (!in.getU32(count))
        return false;
    ops.clear();
    for (std::uint32_t i = 0; i < count; ++i) {
        std::string name;
        OpStats stats;
        if (!in.getString(name) || !in.getU64(stats.count) ||
            !in.getI64(stats.total_duration))
            return false;
        // The encoder writes from a name-keyed map: a repeated
        // name is malformed.
        if (!ops.emplace(std::move(name), stats).second)
            return false;
    }
    return true;
}

} // namespace

std::string
encodeProfileRecord(const ProfileRecord &record)
{
    ByteWriter out;
    out.putU64(record.sequence);
    out.putI64(record.window_begin);
    out.putI64(record.window_end);
    out.putU64(record.event_count);
    out.putU32(record.truncated ? 1 : 0);
    out.putF64(record.tpu_idle_fraction);
    out.putF64(record.mxu_utilization);
    out.putU64(record.retries);
    out.putI64(record.retry_time);
    out.putU32(static_cast<std::uint32_t>(record.steps.size()));
    for (const auto &s : record.steps) {
        out.putU64(s.step);
        out.putI64(s.begin);
        out.putI64(s.end);
        out.putI64(s.tpu_busy);
        out.putI64(s.tpu_idle);
        out.putI64(s.mxu_active);
        putOpStatsMap(out, s.host_ops);
        putOpStatsMap(out, s.tpu_ops);
    }
    // Container v4: the attempt-continuity tail. Appended after the
    // steps so v3 payloads decode as records that simply end here.
    out.putU32(record.attempt);
    out.putU32(record.attempt_boundary ? 1 : 0);
    out.putU64(record.preempted_at_step);
    out.putU64(record.resume_step);
    // Container v5: the transport-cap drop count; v4 payloads end
    // above and decode with events_dropped = 0.
    out.putU64(record.events_dropped);
    return std::move(out).str();
}

bool
decodeProfileRecord(std::string_view payload,
                    ProfileRecord &record)
{
    record = ProfileRecord();
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
    // Each step needs at least 56 payload bytes (six 8-byte
    // fields plus two empty op maps); reject counts the remaining
    // payload cannot possibly hold before resizing.
    if (num_steps > in.remaining() / 56)
        return false;
    record.steps.resize(num_steps);
    for (auto &s : record.steps) {
        if (!in.getU64(s.step) || !in.getI64(s.begin) ||
            !in.getI64(s.end) || !in.getI64(s.tpu_busy) ||
            !in.getI64(s.tpu_idle) || !in.getI64(s.mxu_active) ||
            !getOpStatsMap(in, s.host_ops) ||
            !getOpStatsMap(in, s.tpu_ops))
            return false;
    }
    // A v3 payload ends here; a v4 payload carries the
    // attempt-continuity tail.
    if (in.atEnd())
        return true;
    std::uint32_t boundary = 0;
    if (!in.getU32(record.attempt) || !in.getU32(boundary) ||
        !in.getU64(record.preempted_at_step) ||
        !in.getU64(record.resume_step))
        return false;
    record.attempt_boundary = boundary != 0;
    // A v4 payload ends here; v5 adds the drop count.
    if (in.atEnd())
        return true;
    if (!in.getU64(record.events_dropped))
        return false;
    return in.atEnd();
}

std::string
encodeAttemptBoundary(std::uint32_t attempt, StepId preempted_at_step,
                      StepId resume_step, SimTime at)
{
    ProfileRecord boundary;
    boundary.attempt = attempt;
    boundary.attempt_boundary = true;
    boundary.preempted_at_step = preempted_at_step;
    boundary.resume_step = resume_step;
    boundary.window_begin = at;
    boundary.window_end = at;
    return encodeProfileRecord(boundary);
}

ProfileReader::ProfileReader(std::istream &in, bool salvage)
    : framing(in, salvage)
{
    if (!salvage && framing.status() != StreamStatus::Ok)
        fatal("ProfileReader: ", framing.error());
}

template <typename Decode>
bool
ProfileReader::readNext(Decode &&decode)
{
    std::string_view payload;
    for (;;) {
        switch (framing.next(payload)) {
          case StreamStatus::Ok:
            if (decode(payload))
                return true;
            if (!framing.salvaging())
                fatal("ProfileReader: malformed record payload");
            // The chunk CRC passed but this payload does not decode
            // (written damaged, or a version skew): drop the
            // record, keep the stream.
            ++undecodable;
            continue;
          case StreamStatus::End:
            return false;
          case StreamStatus::Truncated:
          case StreamStatus::Corrupt:
            fatal("ProfileReader: ", framing.error());
        }
        panic("ProfileReader: unreachable stream status");
    }
}

bool
ProfileReader::read(ProfileRecord &record)
{
    return readNext([&record](std::string_view payload) {
        return decodeProfileRecord(payload, record);
    });
}

bool
ProfileReader::read(ColumnarRecord &record,
                    StringInterner &interner)
{
    return readNext([&](std::string_view payload) {
        return decoder.decode(payload, record, interner);
    });
}

} // namespace tpupoint
