/**
 * @file
 * Structured logging: the toolchain's one emitter. Every log line
 * any tool, daemon or bench prints comes through obs::Logger, so a
 * fleet daemon gets one contract everywhere — every event
 * machine-parseable, attributable to a component, carrying its
 * context (session, job, attempt) as key/value fields, and
 * rate-limited per call site so a wedged session cannot flood the
 * log. core/logging keeps only the error path (fatal/panic throw;
 * their catch sites report what()) and the level threshold this
 * logger reads:
 *
 *  - two wire formats, selected by TPUPOINT_LOG_FORMAT or
 *    setFormat(): "text" (one human line, `key=value` suffix) and
 *    "json" (one JSONL object per event: ts_ns, level, component,
 *    msg, then the fields);
 *  - timestamps are steady-clock nanoseconds — monotonic, so two
 *    events order correctly even across an NTP step, and never
 *    derived from the sim clock, so logging cannot perturb a run;
 *  - every event (including ones below the stderr threshold) is
 *    mirrored into the FlightRecorder when it is enabled: the
 *    black box retains debug-level context the terminal never saw;
 *  - LogSite gives each call site an independent token-bucket-ish
 *    limiter: the first event passes, repeats inside the interval
 *    are counted, and the next admitted event carries a
 *    `suppressed=N` field instead of N spam lines.
 */

#ifndef TPUPOINT_OBS_LOGGER_HH
#define TPUPOINT_OBS_LOGGER_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>

#include "core/logging.hh"

namespace tpupoint {
namespace obs {

/** Output encodings. */
enum class LogFormat : std::uint8_t {
    Text, ///< "tpupoint: level: [component] msg key=value ..."
    Json, ///< One JSON object per line (JSONL).
};

/** One key/value attachment on a log event. */
struct LogField
{
    LogField(std::string_view k, std::string_view v)
        : key(k), value(v), quoted(true)
    {
    }

    LogField(std::string_view k, const char *v)
        : key(k), value(v), quoted(true)
    {
    }

    LogField(std::string_view k, const std::string &v)
        : key(k), value(v), quoted(true)
    {
    }

    LogField(std::string_view k, std::uint64_t v)
        : key(k), value(std::to_string(v)), quoted(false)
    {
    }

    LogField(std::string_view k, std::int64_t v)
        : key(k), value(std::to_string(v)), quoted(false)
    {
    }

    LogField(std::string_view k, int v)
        : key(k), value(std::to_string(v)), quoted(false)
    {
    }

    LogField(std::string_view k, bool v)
        : key(k), value(v ? "true" : "false"), quoted(false)
    {
    }

    std::string key;
    std::string value;
    bool quoted; ///< JSON: emit as string (true) or literal.
};

/**
 * Per-call-site rate limiter. Declare one `static LogSite site;`
 * next to the noisy log statement; the logger admits the first
 * event, suppresses (and counts) repeats inside `interval_ms`, and
 * annotates the next admitted event with the suppressed count.
 * Thread-safe; admission is a CAS on the last-admitted timestamp.
 */
class LogSite
{
  public:
    explicit LogSite(std::int64_t interval_ms = 1000)
        : interval_ns(interval_ms * 1000000)
    {
    }

    /**
     * @param now_ns Monotonic now (injectable for tests).
     * @param suppressed_out Events swallowed since the last
     *     admission; only meaningful when admitted.
     * @return true when this event may be emitted.
     */
    bool admit(std::int64_t now_ns,
               std::uint64_t *suppressed_out);

    /** Events suppressed and not yet reported. */
    std::uint64_t
    suppressed() const
    {
        return suppressed_count.load(std::memory_order_relaxed);
    }

  private:
    std::int64_t interval_ns;
    std::atomic<std::int64_t> last_ns{
        std::numeric_limits<std::int64_t>::min()};
    std::atomic<std::uint64_t> suppressed_count{0};
};

class Logger
{
  public:
    Logger();

    /** The process-wide logger. */
    static Logger &global();

    /**
     * Emit one structured event. Threshold filtering follows
     * LogConfig::threshold() for the stream; the FlightRecorder
     * mirror (when enabled) receives every event regardless, so
     * the black box out-remembers the terminal.
     */
    void log(LogLevel level, std::string_view component,
             std::string_view message,
             std::initializer_list<LogField> fields = {});

    /** log() gated by @p site's rate limit; admitted events carry
     * a `suppressed=N` field after any suppression run. */
    void logLimited(LogSite &site, LogLevel level,
                    std::string_view component,
                    std::string_view message,
                    std::initializer_list<LogField> fields = {});

    /** Select the wire format (overrides the environment). */
    void setFormat(LogFormat format);

    LogFormat format() const;

    /** Parse "text" / "json". @return false otherwise. */
    static bool parseFormat(const char *name, LogFormat *format);

    /**
     * Redirect emission (tests capture; default stderr). Pass
     * nullptr to restore stderr.
     */
    void setStream(std::FILE *stream);

    /** Events written to the stream (post-threshold). */
    std::uint64_t emitted() const;

  private:
    void emit(LogLevel level, std::string_view component,
              std::string_view message,
              std::initializer_list<LogField> fields,
              std::uint64_t suppressed);

    mutable std::mutex guard;
    std::FILE *out = stderr;
    mutable std::atomic<LogFormat> wire{LogFormat::Text};
    std::atomic<std::uint64_t> emit_count{0};
    mutable std::atomic<bool> format_resolved{false};
};

/** Convenience wrappers over Logger::global(). */
inline void
logInfo(std::string_view component, std::string_view message,
        std::initializer_list<LogField> fields = {})
{
    Logger::global().log(LogLevel::Info, component, message,
                         fields);
}

inline void
logWarn(std::string_view component, std::string_view message,
        std::initializer_list<LogField> fields = {})
{
    Logger::global().log(LogLevel::Warn, component, message,
                         fields);
}

inline void
logDebug(std::string_view component, std::string_view message,
         std::initializer_list<LogField> fields = {})
{
    Logger::global().log(LogLevel::Debug, component, message,
                         fields);
}

} // namespace obs
} // namespace tpupoint

#endif // TPUPOINT_OBS_LOGGER_HH
