/**
 * @file
 * Scoped wall-time spans for the toolchain itself: how long the
 * *tools* spent profiling, ingesting, clustering or restarting — as
 * opposed to the simulated time the tools reason about. A TraceSpan
 * measures the wall time between its construction and destruction
 * (std::chrono::steady_clock) and deposits a SpanRecord into a
 * bounded in-memory buffer, attributed with the recording thread
 * and optional key=value args. Spans never touch the Simulator or
 * any seeded stream, so instrumented and uninstrumented runs are
 * bit-identical.
 */

#ifndef TPUPOINT_OBS_SPAN_HH
#define TPUPOINT_OBS_SPAN_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tpupoint {
namespace obs {

/** One completed span. Times are steady-clock nanoseconds. */
struct SpanRecord
{
    std::string name;
    std::uint64_t thread_id = 0;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    std::vector<std::pair<std::string, std::string>> args;

    std::int64_t duration_ns() const { return end_ns - begin_ns; }
};

/**
 * Bounded, thread-safe buffer of completed spans. Once full,
 * further spans are dropped and counted — self-telemetry must
 * never grow without bound inside a long sweep.
 */
class SpanBuffer
{
  public:
    explicit SpanBuffer(std::size_t capacity = 8192);

    /** The process-wide buffer the CLI tools dump. */
    static SpanBuffer &global();

    /** Deposit one completed span. */
    void add(SpanRecord record);

    /** Copy of every retained span, in completion order. */
    std::vector<SpanRecord> snapshot() const;

    /** Spans retained. */
    std::size_t size() const;

    /** Spans rejected because the buffer was full. */
    std::uint64_t dropped() const;

    /** Retention bound. */
    std::size_t capacity() const { return bound; }

    /** Forget everything (tests and per-run dumps). */
    void clear();

  private:
    mutable std::mutex guard;
    std::vector<SpanRecord> spans;
    std::size_t bound;
    std::uint64_t rejected = 0;
};

/**
 * RAII span: times the enclosing scope on the wall clock and
 * records into a SpanBuffer (the global one by default) when the
 * scope exits.
 *
 * @code
 *   {
 *       obs::TraceSpan span("analyze.kmeans");
 *       span.arg("steps", table.size());
 *       ... // work
 *   }   // span recorded here
 * @endcode
 */
class TraceSpan
{
  public:
    explicit TraceSpan(std::string name,
                       SpanBuffer &buffer = SpanBuffer::global());

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Records the span. */
    ~TraceSpan();

    /** Attach one key=value argument. */
    TraceSpan &arg(std::string key, std::string value);
    TraceSpan &arg(std::string key, std::uint64_t value);
    TraceSpan &arg(std::string key, double value);

    /** Close and record the span before scope exit. Idempotent. */
    void finish();

  private:
    SpanBuffer &sink;
    SpanRecord record;
    std::chrono::steady_clock::time_point started;
    bool done = false;
};

/** Stable identifier for the calling thread (for span records). */
std::uint64_t currentThreadId();

} // namespace obs
} // namespace tpupoint

#endif // TPUPOINT_OBS_SPAN_HH
