#include "profiler/collector.hh"

#include <algorithm>
#include <bit>
#include <numeric>
#include <string_view>

#include "core/logging.hh"
#include "graph/op.hh"
#include "host/host_ops.hh"
#include "obs/logger.hh"

namespace tpupoint {

namespace {

/**
 * A saturated window drops every further event, so the drop report
 * must be per-interval, not per-event — one structured line with
 * the running tally, never a line per dropped event.
 */
void
reportDrop(const char *why, std::uint64_t dropped_total)
{
    static obs::LogSite drop_site(5000);
    obs::Logger::global().logLimited(
        drop_site, LogLevel::Warn, "profiler",
        "profile window saturated; dropping events",
        {{"cause", why}, {"dropped", dropped_total}});
}

/** Fibonacci hash of a label pointer into a table of @p slots
 * entries (a power of two). */
std::size_t
slotFor(const char *key, std::size_t slots)
{
    const auto bits = static_cast<unsigned>(std::countr_zero(slots));
    const std::uint64_t mixed =
        reinterpret_cast<std::uintptr_t>(key) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(mixed >> (64 - bits));
}

constexpr std::size_t kInitialLabelSlots = 64;

[[noreturn]] void
panicNullLabel()
{
    panic("StatsCollector::record: event has no op-type label "
          "(TraceEvent::type is null)");
}

} // namespace

StatsCollector::StatsCollector(SimTime start)
    : label_cache(kInitialLabelSlots), window_begin(start),
      accepted_metric(&obs::MetricsRegistry::global().counter(
          "profiler.events_accepted")),
      dropped_metric(&obs::MetricsRegistry::global().counter(
          "profiler.events_dropped"))
{
}

inline std::uint32_t
StatsCollector::lookupLabel(const char *type)
{
    const std::size_t mask = label_cache.size() - 1;
    for (std::size_t i = slotFor(type, label_cache.size());;
         i = (i + 1) & mask) {
        // Empty slots come first: a null label never matches one.
        const LabelSlot &slot = label_cache[i];
        if (slot.key == nullptr)
            return internLabel(type);
        if (slot.key == type)
            return slot.id;
    }
}

[[gnu::noinline]] std::uint32_t
StatsCollector::internLabel(const char *type)
{
    if (type == nullptr)
        panicNullLabel();
    const auto [it, inserted] = label_ids.try_emplace(
        type, static_cast<std::uint32_t>(label_names.size()));
    if (inserted) {
        const std::string_view text = it->first;
        std::uint8_t flags = 0;
        if (text == opKindName(OpKind::Infeed) ||
            text == opKindName(OpKind::Outfeed))
            flags |= kTpuIdle;
        if (text == hostop::kStorageRetry)
            flags |= kStorageRetry;
        label_names.push_back(it->first);
        label_flags.push_back(flags);
    }

    const auto place = [](std::vector<LabelSlot> &table,
                          const LabelSlot &slot) {
        const std::size_t mask = table.size() - 1;
        std::size_t i = slotFor(slot.key, table.size());
        while (table[i].key != nullptr)
            i = (i + 1) & mask;
        table[i] = slot;
    };
    // Keep the cache at most half full so probes stay short.
    if (2 * (label_cache_used + 1) > label_cache.size()) {
        std::vector<LabelSlot> grown(2 * label_cache.size());
        for (const LabelSlot &slot : label_cache) {
            if (slot.key != nullptr)
                place(grown, slot);
        }
        label_cache = std::move(grown);
    }
    place(label_cache, {type, it->second});
    ++label_cache_used;
    return it->second;
}

inline StatsCollector::StepAccumulator &
StatsCollector::accumulatorFor(StepId step)
{
    // A resolved step is never kNoStep, so kNoStep marks "none".
    if (step != cached_step) {
        cached_step = step;
        cached_accumulator = &steps[step];
    }
    return *cached_accumulator;
}

[[gnu::noinline]] void
StatsCollector::reject(const TraceEvent &event, const char *why)
{
    if (event.type == nullptr)
        panicNullLabel();
    truncated = true;
    ++dropped;
    dropped_metric->add(1);
    reportDrop(why, dropped);
}

void
StatsCollector::record(const TraceEvent &event)
{
    if (events >= kMaxEventsPerProfile) [[unlikely]] {
        reject(event, "event cap");
        return;
    }
    if (event.end() - window_begin > kMaxProfileDuration)
        [[unlikely]] {
        reject(event, "duration cap");
        return;
    }
    const std::uint32_t id = lookupLabel(event.type);
    StepId step = event.step;
    if (step == kNoStep) {
        step = latest_step; // out-of-step events join the current
    } else {
        latest_step = std::max(latest_step, step);
    }
    StepAccumulator &acc = accumulatorFor(step);
    acc.begin = std::min(acc.begin, event.start);
    acc.end = std::max(acc.end, event.end());
    const bool tpu = event.device == EventDevice::Tpu;
    const std::size_t index = 2 * std::size_t{id} + (tpu ? 1 : 0);
    if (index >= acc.ops.size())
        acc.ops.resize(2 * label_names.size());
    acc.ops[index].add(event.duration);
    if (tpu)
        acc.mxu_active += event.mxu_active;
    ++events;
}

void
StatsCollector::flushMetrics()
{
    if (events > events_flushed) {
        accepted_metric->add(events - events_flushed);
        events_flushed = events;
    }
}

const std::vector<std::uint32_t> &
StatsCollector::idsByName()
{
    if (sorted_ids.size() != label_names.size()) {
        sorted_ids.resize(label_names.size());
        std::iota(sorted_ids.begin(), sorted_ids.end(), 0u);
        std::sort(sorted_ids.begin(), sorted_ids.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      return label_names[a] < label_names[b];
                  });
    }
    return sorted_ids;
}

ProfileRecord
StatsCollector::harvest(SimTime window_end)
{
    flushMetrics();

    ProfileRecord record;
    record.sequence = sequence++;
    record.window_begin = window_begin;
    record.window_end = window_end;
    record.event_count = events;
    record.truncated = truncated;
    record.events_dropped = dropped;

    // Build the name-keyed maps in name order, so every insertion
    // lands at the end of its map. TPU time splits into busy and
    // idle by label, and retries surface as window meta-data so
    // the analyzer can attribute slowdown without op-name lookups.
    const std::vector<std::uint32_t> &ids = idsByName();
    SimTime busy = 0;
    SimTime mxu = 0;
    record.steps.reserve(steps.size());
    for (const auto &[step, acc] : steps) {
        StepStats &stats = record.steps.emplace_back();
        stats.step = step;
        stats.begin = acc.begin;
        stats.end = acc.end;
        stats.mxu_active = acc.mxu_active;
        for (const std::uint32_t id : ids) {
            const std::size_t index = 2 * std::size_t{id};
            if (index >= acc.ops.size())
                continue;
            const OpStats &host = acc.ops[index];
            const OpStats &tpu = acc.ops[index + 1];
            const std::uint8_t flags = label_flags[id];
            if (host.count)
                stats.host_ops.emplace_hint(stats.host_ops.end(),
                                            label_names[id], host);
            if (tpu.count) {
                stats.tpu_ops.emplace_hint(stats.tpu_ops.end(),
                                           label_names[id], tpu);
                (flags & kTpuIdle ? stats.tpu_idle : stats.tpu_busy) +=
                    tpu.total_duration;
            }
            if (flags & kStorageRetry) {
                record.retries += host.count + tpu.count;
                record.retry_time +=
                    host.total_duration + tpu.total_duration;
            }
        }
        busy += stats.tpu_busy;
        mxu += acc.mxu_active;
    }
    const double span = static_cast<double>(record.span());
    if (span > 0) {
        record.tpu_idle_fraction =
            std::max(0.0, 1.0 - static_cast<double>(busy) / span);
        record.mxu_utilization = static_cast<double>(mxu) / span;
    }

    steps.clear();
    cached_step = kNoStep;
    cached_accumulator = nullptr;
    events = 0;
    events_flushed = 0;
    dropped = 0;
    truncated = false;
    window_begin = window_end;
    return record;
}

} // namespace tpupoint
