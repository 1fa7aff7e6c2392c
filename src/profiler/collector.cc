#include "profiler/collector.hh"

#include <algorithm>
#include <bit>
#include <numeric>
#include <string_view>

#include "core/logging.hh"
#include "graph/op.hh"
#include "host/host_ops.hh"
#include "obs/logger.hh"
#include "trace/bytes.hh"

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
        cached_accumulator = &openStep(step);
    }
    return *cached_accumulator;
}

[[gnu::noinline]] StatsCollector::StepAccumulator &
StatsCollector::openStep(StepId step)
{
    const auto by_step = [](const StepAccumulator &acc, StepId id) {
        return acc.step < id;
    };
    const auto open_end =
        steps.begin() + static_cast<std::ptrdiff_t>(open_steps);
    const auto found =
        std::lower_bound(steps.begin(), open_end, step, by_step);
    if (found != open_end && found->step == step)
        return *found;
    // Rotate the first spare into the step's sorted position.
    const auto at = found - steps.begin();
    if (open_steps == steps.size())
        steps.emplace_back();
    std::rotate(steps.begin() + at,
                steps.begin() + static_cast<std::ptrdiff_t>(open_steps),
                steps.begin() + static_cast<std::ptrdiff_t>(open_steps + 1));
    ++open_steps;
    StepAccumulator &acc = steps[static_cast<std::size_t>(at)];
    acc.step = step;
    return acc;
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
StatsCollector::recordRun(const TraceRun &run)
{
    const std::uint64_t n = run.ops.size();
    // With no negative duration, event ends never decrease, so the
    // last event is the one the duration cap would see first.
    if (n == 0 || run.overhead < 0 ||
        events + n > kMaxEventsPerProfile ||
        run.end() - window_begin > kMaxProfileDuration) [[unlikely]] {
        TraceSink::recordRun(run);
        return;
    }
    StepId step = run.step;
    if (step == kNoStep) {
        step = latest_step;
    } else {
        latest_step = std::max(latest_step, step);
    }
    StepAccumulator &acc = accumulatorFor(step);
    acc.begin = std::min(acc.begin, run.start);
    acc.end = std::max(acc.end, run.end());
    const bool tpu = run.device == EventDevice::Tpu;
    for (const RunLabel &label : run.labels) {
        const std::uint32_t id = lookupLabel(label.type);
        const std::size_t index = 2 * std::size_t{id} + (tpu ? 1 : 0);
        if (index >= acc.ops.size())
            acc.ops.resize(2 * label_names.size());
        OpStats &stats = acc.ops[index];
        stats.count += label.count;
        stats.total_duration += label.base +
            static_cast<SimTime>(label.count) * run.overhead;
    }
    if (tpu)
        acc.mxu_active += run.mxu_active;
    events += n;
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

std::uint64_t
StatsCollector::harvest(SimTime window_end, std::string &payload,
                        std::uint32_t attempt)
{
    flushMetrics();

    // The v5 record payload, field for field as encodeProfileRecord
    // writes it. Counts and totals that precede what they sum are
    // written as zeros and patched once known.
    ByteWriter out(std::move(payload));
    out.putU64(sequence++);
    out.putI64(window_begin);
    out.putI64(window_end);
    out.putU64(events);
    out.putU32(truncated ? 1 : 0);
    const std::size_t window_totals = out.size();
    out.putF64(0.0); // tpu_idle_fraction
    out.putF64(0.0); // mxu_utilization
    out.putU64(0);   // retries
    out.putI64(0);   // retry_time
    out.putU32(static_cast<std::uint32_t>(open_steps));

    // Op entries go out in name order. TPU time splits into busy
    // and idle by label, and retries surface as window meta-data so
    // the analyzer can attribute slowdown without op-name lookups.
    const std::vector<std::uint32_t> &ids = idsByName();
    SimTime busy = 0;
    SimTime mxu = 0;
    OpStats retries;
    for (std::size_t i = 0; i < open_steps; ++i) {
        const StepAccumulator &acc = steps[i];
        out.putU64(acc.step);
        out.putI64(acc.begin);
        out.putI64(acc.end);
        const std::size_t step_totals = out.size();
        out.putI64(0); // tpu_busy
        out.putI64(0); // tpu_idle
        out.putI64(acc.mxu_active);
        SimTime step_busy = 0;
        SimTime step_idle = 0;
        for (const std::size_t side : {0, 1}) { // host, then TPU
            const std::size_t count_at = out.size();
            std::uint32_t count = 0;
            out.putU32(0);
            for (const std::uint32_t id : ids) {
                const std::size_t index = 2 * std::size_t{id} + side;
                if (index >= acc.ops.size() || acc.ops[index].count == 0)
                    continue;
                const OpStats &stats = acc.ops[index];
                out.putString(label_names[id]);
                out.putU64(stats.count);
                out.putI64(stats.total_duration);
                ++count;
                const std::uint8_t flags = label_flags[id];
                if (side == 1) {
                    (flags & kTpuIdle ? step_idle : step_busy) +=
                        stats.total_duration;
                }
                if (flags & kStorageRetry)
                    retries.merge(stats);
            }
            out.patchU32(count_at, count);
        }
        out.patchU64(step_totals, static_cast<std::uint64_t>(step_busy));
        out.patchU64(step_totals + 8,
                     static_cast<std::uint64_t>(step_idle));
        busy += step_busy;
        mxu += acc.mxu_active;
    }
    const double span = static_cast<double>(window_end - window_begin);
    if (span > 0) {
        out.patchU64(window_totals,
                     std::bit_cast<std::uint64_t>(std::max(
                         0.0, 1.0 - static_cast<double>(busy) / span)));
        out.patchU64(window_totals + 8,
                     std::bit_cast<std::uint64_t>(
                         static_cast<double>(mxu) / span));
    }
    out.patchU64(window_totals + 16, retries.count);
    out.patchU64(window_totals + 24,
                 static_cast<std::uint64_t>(retries.total_duration));
    // The attempt-continuity tail of a plain window, then the drop
    // count.
    out.putU32(attempt);
    out.putU32(0); // attempt_boundary
    out.putU64(0); // preempted_at_step
    out.putU64(0); // resume_step
    out.putU64(dropped);
    payload = std::move(out).str();

    const std::uint64_t harvested = events;
    for (std::size_t i = 0; i < open_steps; ++i) {
        StepAccumulator &acc = steps[i];
        acc.begin = kTimeForever;
        acc.end = 0;
        acc.mxu_active = 0;
        std::fill(acc.ops.begin(), acc.ops.end(), OpStats{});
    }
    open_steps = 0;
    cached_step = kNoStep;
    cached_accumulator = nullptr;
    events = 0;
    events_flushed = 0;
    dropped = 0;
    truncated = false;
    window_begin = window_end;
    return harvested;
}

} // namespace tpupoint
