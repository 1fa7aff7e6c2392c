#include "obs/pool_metrics.hh"

#include <cstdlib>
#include <limits>
#include <thread>

#include "core/strings.hh"
#include "obs/logger.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace tpupoint {
namespace obs {

ThreadPoolHooks
instrumentedPoolHooks(const std::string &pool_name)
{
    auto &registry = MetricsRegistry::global();
    const std::string prefix = "pool." + pool_name;

    // Register once, capture by reference: registry references
    // stay valid for the process lifetime, so each hook invocation
    // is relaxed atomics with no lock and no lookup.
    Counter &tasks = registry.counter(prefix + ".tasks");
    Counter &steals = registry.counter(prefix + ".steals");
    Gauge &depth_gauge = registry.gauge(prefix + ".queue_depth");
    HistogramOptions latency;
    latency.first_bound = 64; // microseconds; ~64us .. ~67s
    Histogram &task_us =
        registry.histogram(prefix + ".task_us", latency);
    Histogram &queue_wait_us =
        registry.histogram(prefix + ".queue_wait_us", latency);

    ThreadPoolHooks hooks;
    hooks.on_task_done = [&tasks, &task_us,
                          &queue_wait_us](const TaskTiming &t) {
        tasks.add(1);
        task_us.observe(
            static_cast<std::uint64_t>(t.run_ns() / 1000));
        queue_wait_us.observe(
            static_cast<std::uint64_t>(t.queued_ns() / 1000));
        if (t.label != nullptr) {
            // One wall-time span per labeled task; SpanBuffer is
            // bounded, so a very long sweep drops (and counts)
            // the excess instead of growing without bound.
            SpanRecord record;
            record.name = t.label;
            record.thread_id = currentThreadId();
            record.begin_ns = t.started_ns;
            record.end_ns = t.finished_ns;
            record.args.emplace_back(
                "queue_wait_us",
                std::to_string(t.queued_ns() / 1000));
            if (t.stolen)
                record.args.emplace_back("stolen", "true");
            SpanBuffer::global().add(std::move(record));
        }
    };
    hooks.on_queue_depth = [&depth_gauge](std::size_t depth) {
        depth_gauge.set(static_cast<std::int64_t>(depth));
    };
    hooks.on_steal = [&steals]() { steals.add(1); };
    return hooks;
}

unsigned
resolveThreadCount(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("TPUPOINT_THREADS")) {
        // Strict parse: "banana" or an overflowing value must not
        // silently become some thread count. A bad setting is
        // warned about once per resolution and ignored.
        std::uint64_t parsed = 0;
        if (parseUint64(env, &parsed) && parsed > 0 &&
            parsed <= std::numeric_limits<unsigned>::max()) {
            return static_cast<unsigned>(parsed);
        }
        logWarn("core", "ignoring TPUPOINT_THREADS: want a "
                        "positive integer",
                {{"value", env}});
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace obs
} // namespace tpupoint
