/**
 * @file
 * Standard observability wiring for core::ThreadPool: hooks that
 * charge every executed task to the global MetricsRegistry
 * (counters `pool.<name>.tasks` / `.steals`, gauge
 * `.queue_depth`, histograms `.task_us` / `.queue_wait_us`) and
 * deposit a wall-time span per *labeled* task into the global
 * SpanBuffer. Like every obs instrument, the hooks measure wall
 * time only — they never touch simulated time or seeded streams,
 * so instrumented and bare pools produce bit-identical results.
 * resolveThreadCount() lives here too: it warns about a bad
 * TPUPOINT_THREADS through obs::Logger.
 */

#ifndef TPUPOINT_OBS_POOL_METRICS_HH
#define TPUPOINT_OBS_POOL_METRICS_HH

#include <string>

#include "core/thread_pool.hh"

namespace tpupoint {
namespace obs {

/**
 * Build hooks that publish pool telemetry under
 * `pool.<pool_name>.*`. The instruments are registered once here
 * and captured by reference, so the per-task hot path is lock-free
 * relaxed-atomic updates.
 */
ThreadPoolHooks instrumentedPoolHooks(const std::string &pool_name);

/**
 * Resolve a user-facing thread count: @p requested when positive,
 * else the TPUPOINT_THREADS environment variable when set to a
 * positive integer, else std::thread::hardware_concurrency()
 * (minimum 1). This is the one place the `--threads` default
 * semantics live.
 */
unsigned resolveThreadCount(unsigned requested);

} // namespace obs
} // namespace tpupoint

#endif // TPUPOINT_OBS_POOL_METRICS_HH
