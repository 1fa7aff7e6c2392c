#include "obs/logger.hh"

#include <chrono>
#include <cstdlib>
#include <limits>

#include "core/json.hh"
#include "obs/flight_recorder.hh"

namespace tpupoint {
namespace obs {

namespace {

std::int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now()
                   .time_since_epoch())
        .count();
}

} // namespace

bool
LogSite::admit(std::int64_t now_ns,
               std::uint64_t *suppressed_out)
{
    for (;;) {
        std::int64_t last =
            last_ns.load(std::memory_order_relaxed);
        const bool ever_admitted =
            last != std::numeric_limits<std::int64_t>::min();
        if (ever_admitted && now_ns - last < interval_ns) {
            suppressed_count.fetch_add(
                1, std::memory_order_relaxed);
            return false;
        }
        if (last_ns.compare_exchange_strong(
                last, now_ns, std::memory_order_relaxed)) {
            if (suppressed_out != nullptr)
                *suppressed_out = suppressed_count.exchange(
                    0, std::memory_order_relaxed);
            return true;
        }
        // Another thread won the slot this interval; our event is
        // one of the suppressed repeats. Loop re-reads and counts.
    }
}

Logger::Logger() = default;

Logger &
Logger::global()
{
    static Logger *logger = new Logger();
    return *logger;
}

bool
Logger::parseFormat(const char *name, LogFormat *format)
{
    if (name == nullptr)
        return false;
    const std::string_view text(name);
    if (text == "text")
        *format = LogFormat::Text;
    else if (text == "json" || text == "jsonl")
        *format = LogFormat::Json;
    else
        return false;
    return true;
}

void
Logger::setFormat(LogFormat format)
{
    format_resolved.store(true, std::memory_order_relaxed);
    wire.store(format, std::memory_order_relaxed);
}

LogFormat
Logger::format() const
{
    if (!format_resolved.exchange(true,
                                  std::memory_order_relaxed)) {
        LogFormat parsed;
        if (parseFormat(std::getenv("TPUPOINT_LOG_FORMAT"),
                        &parsed))
            wire.store(parsed, std::memory_order_relaxed);
    }
    return wire.load(std::memory_order_relaxed);
}

void
Logger::setStream(std::FILE *stream)
{
    std::lock_guard<std::mutex> lock(guard);
    out = stream != nullptr ? stream : stderr;
}

std::uint64_t
Logger::emitted() const
{
    return emit_count.load(std::memory_order_relaxed);
}

void
Logger::log(LogLevel level, std::string_view component,
            std::string_view message,
            std::initializer_list<LogField> fields)
{
    emit(level, component, message, fields, 0);
}

void
Logger::logLimited(LogSite &site, LogLevel level,
                   std::string_view component,
                   std::string_view message,
                   std::initializer_list<LogField> fields)
{
    std::uint64_t suppressed = 0;
    if (!site.admit(steadyNowNs(), &suppressed))
        return;
    emit(level, component, message, fields, suppressed);
}

void
Logger::emit(LogLevel level, std::string_view component,
             std::string_view message,
             std::initializer_list<LogField> fields,
             std::uint64_t suppressed)
{
    const std::int64_t ts_ns = steadyNowNs();

    // The JSONL form feeds both the json wire format and the
    // flight-recorder mirror, so build it whenever either wants it.
    FlightRecorder &flight = FlightRecorder::global();
    const bool to_stream = level >= LogConfig::threshold();
    const LogFormat encoding = format();
    const bool want_json =
        flight.enabled() ||
        (to_stream && encoding == LogFormat::Json);

    std::string json;
    if (want_json) {
        json.reserve(128 + message.size());
        json += "{\"ts_ns\":";
        json += std::to_string(ts_ns);
        json += ",\"level\":\"";
        json += logLevelName(level);
        json += "\",\"component\":\"";
        json += JsonWriter::escape(component);
        json += "\",\"msg\":\"";
        json += JsonWriter::escape(message);
        json += "\"";
        for (const LogField &field : fields) {
            json += ",\"";
            json += JsonWriter::escape(field.key);
            json += "\":";
            if (field.quoted) {
                json += "\"";
                json += JsonWriter::escape(field.value);
                json += "\"";
            } else {
                json += field.value;
            }
        }
        if (suppressed > 0) {
            json += ",\"suppressed\":";
            json += std::to_string(suppressed);
        }
        json += "}";
        flight.record(json);
    }

    if (!to_stream)
        return;

    std::string line;
    if (encoding == LogFormat::Json) {
        line = std::move(json);
    } else {
        line.reserve(64 + message.size());
        line += "tpupoint: ";
        line += logLevelName(level);
        line += ": [";
        line += component;
        line += "] ";
        line += message;
        for (const LogField &field : fields) {
            line += " ";
            line += field.key;
            line += "=";
            line += field.value;
        }
        if (suppressed > 0) {
            line += " suppressed=";
            line += std::to_string(suppressed);
        }
    }

    std::lock_guard<std::mutex> lock(guard);
    std::fprintf(out, "%s\n", line.c_str());
    std::fflush(out);
    emit_count.fetch_add(1, std::memory_order_relaxed);
}

} // namespace obs
} // namespace tpupoint
