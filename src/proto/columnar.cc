#include "proto/columnar.hh"

#include <algorithm>
#include <functional>

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

/**
 * The (interned name, id) pair for @p name: from the decoder's own
 * table when an earlier payload resolved it, else from @p interner,
 * then remembered.
 */
ColumnarDecoder::CachedName
ColumnarDecoder::resolve(std::string_view name, StringInterner &interner)
{
    const std::size_t hash = std::hash<std::string_view>{}(name);
    if (!known.empty()) {
        const std::size_t mask = known.size() - 1;
        for (std::size_t i = hash & mask; known[i].id != kNoId;
             i = (i + 1) & mask) {
            if (known[i].name == name)
                return known[i];
        }
    }
    CachedName resolved;
    resolved.id = interner.intern(name, resolved.name);
    const auto place = [](std::vector<CachedName> &table,
                          const CachedName &entry, std::size_t at) {
        const std::size_t mask = table.size() - 1;
        while (table[at & mask].id != kNoId)
            ++at;
        table[at & mask] = entry;
    };
    if (2 * (known_used + 1) > known.size()) {
        std::vector<CachedName> grown(
            std::max<std::size_t>(64, 2 * known.size()));
        for (const CachedName &entry : known) {
            if (entry.id != kNoId)
                place(grown, entry, std::hash<std::string_view>{}(entry.name));
        }
        known = std::move(grown);
    }
    place(known, resolved, hash);
    ++known_used;
    return resolved;
}

/**
 * Decode one wire op-stats map into @p ops. Each name is a view
 * borrowed off the payload, matched against @p cache's slot for its
 * position and resolved only on a mismatch. Entries are id-sorted
 * afterwards (skipped when the ids already arrive strictly
 * increasing, which also rules out duplicates) so consumers can
 * merge them linearly; a name repeated within the map is malformed,
 * as in decodeProfileRecord.
 */
bool
ColumnarDecoder::decodeOps(ByteReader &in,
                           std::vector<ColumnarOpStats> &ops,
                           std::vector<CachedName> &cache,
                           StringInterner &interner)
{
    std::uint32_t count;
    if (!in.getU32(count))
        return false;
    // Every entry takes at least 20 bytes (length, count, total):
    // reject an implausible count before anything grows by it.
    if (count > in.remaining() / 20)
        return false;
    if (cache.size() < count)
        cache.resize(count);
    const std::size_t first = ops.size();
    ops.resize(first + count);
    ColumnarOpStats *entry = ops.data() + first;
    bool increasing = true;
    for (std::uint32_t i = 0; i < count; ++i, ++entry) {
        // The name, then its u64 count and total as one block.
        std::uint32_t length;
        if (!in.getU32(length))
            return false;
        const char *fixed = in.block(std::size_t{length} + 16);
        if (!fixed)
            return false;
        const std::string_view name(fixed, length);
        fixed += length;
        CachedName &slot = cache[i];
        if (slot.id == kNoId || slot.name != name)
            slot = resolve(name, interner);
        entry->op = slot.id;
        entry->count = loadLE64(fixed);
        entry->total_duration = static_cast<SimTime>(loadLE64(fixed + 8));
        if (i > 0 && entry->op <= entry[-1].op)
            increasing = false;
    }
    if (increasing)
        return true;
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

bool
ColumnarDecoder::decode(std::string_view payload,
                        ColumnarRecord &record,
                        StringInterner &interner)
{
    if (bound_serial != interner.serial()) {
        // The cached names and ids belong to another interner.
        host_names.clear();
        tpu_names.clear();
        known.clear();
        known_used = 0;
        bound_serial = interner.serial();
    }
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
        // Step id, begin, end, busy, idle, mxu: six u64 fields.
        const char *header = in.block(48);
        if (!header ||
            !decodeOps(in, record.host_ops, host_names, interner))
            return false;
        record.host_offsets.push_back(
            static_cast<std::uint32_t>(record.host_ops.size()));
        if (!decodeOps(in, record.tpu_ops, tpu_names, interner))
            return false;
        record.tpu_offsets.push_back(
            static_cast<std::uint32_t>(record.tpu_ops.size()));
        const auto field = [header](int k) {
            return static_cast<SimTime>(loadLE64(header + 8 * k));
        };
        record.step.push_back(loadLE64(header));
        record.begin.push_back(field(1));
        record.end.push_back(field(2));
        record.tpu_busy.push_back(field(3));
        record.tpu_idle.push_back(field(4));
        record.mxu_active.push_back(field(5));
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

} // namespace tpupoint
