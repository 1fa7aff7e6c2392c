#include "obs/span.hh"

#include <atomic>
#include <cstdio>

#include "obs/flight_recorder.hh"
#include "obs/logger.hh"
#include "obs/metrics.hh"

namespace tpupoint {
namespace obs {

namespace {

/** Small dense thread ids: nicer trace tracks than hashed
 * std::thread::id values. */
std::uint64_t
nextThreadId()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

std::int64_t
nowNs(std::chrono::steady_clock::time_point at)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               at.time_since_epoch())
        .count();
}

} // namespace

std::uint64_t
currentThreadId()
{
    thread_local std::uint64_t id = nextThreadId();
    return id;
}

SpanBuffer::SpanBuffer(std::size_t capacity)
    : bound(capacity ? capacity : 1)
{
}

SpanBuffer &
SpanBuffer::global()
{
    static SpanBuffer *buffer = new SpanBuffer();
    return *buffer;
}

void
SpanBuffer::add(SpanRecord record)
{
    FlightRecorder &flight = FlightRecorder::global();
    if (flight.enabled())
        flight.recordSpan(record);
    {
        std::lock_guard<std::mutex> lock(guard);
        if (spans.size() < bound) {
            spans.push_back(std::move(record));
            return;
        }
        ++rejected;
    }
    // Overflow is silent truncation no more: every dropped span is
    // counted, and the condition is reported once per interval
    // instead of once per span (a long sweep can drop millions).
    static Counter &drop_counter =
        MetricsRegistry::global().counter("obs.spans_dropped");
    drop_counter.add(1);
    static LogSite overflow_site(10000);
    Logger::global().logLimited(
        overflow_site, LogLevel::Warn, "obs",
        "span buffer full; dropping spans",
        {{"capacity", static_cast<std::uint64_t>(bound)},
         {"last", record.name}});
}

std::vector<SpanRecord>
SpanBuffer::snapshot() const
{
    std::lock_guard<std::mutex> lock(guard);
    return spans;
}

std::size_t
SpanBuffer::size() const
{
    std::lock_guard<std::mutex> lock(guard);
    return spans.size();
}

std::uint64_t
SpanBuffer::dropped() const
{
    std::lock_guard<std::mutex> lock(guard);
    return rejected;
}

void
SpanBuffer::clear()
{
    std::lock_guard<std::mutex> lock(guard);
    spans.clear();
    rejected = 0;
}

TraceSpan::TraceSpan(std::string name, SpanBuffer &buffer)
    : sink(buffer), started(std::chrono::steady_clock::now())
{
    record.name = std::move(name);
    record.thread_id = currentThreadId();
    record.begin_ns = nowNs(started);
}

TraceSpan::~TraceSpan()
{
    finish();
}

TraceSpan &
TraceSpan::arg(std::string key, std::string value)
{
    record.args.emplace_back(std::move(key), std::move(value));
    return *this;
}

TraceSpan &
TraceSpan::arg(std::string key, std::uint64_t value)
{
    return arg(std::move(key), std::to_string(value));
}

TraceSpan &
TraceSpan::arg(std::string key, double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return arg(std::move(key), std::string(buf));
}

void
TraceSpan::finish()
{
    if (done)
        return;
    done = true;
    record.end_ns = nowNs(std::chrono::steady_clock::now());
    sink.add(std::move(record));
}

} // namespace obs
} // namespace tpupoint
