/**
 * @file
 * gem5-flavoured error reporting and the log threshold: fatal for
 * user errors and panic for internal invariant violations, both of
 * which throw and print nothing themselves (every catch site
 * reports what(); an uncaught throw reaches std::terminate, which
 * prints it). LogConfig holds the level threshold obs::Logger, the
 * toolchain's one emitter, filters its stream by.
 */

#ifndef TPUPOINT_CORE_LOGGING_HH
#define TPUPOINT_CORE_LOGGING_HH

#include <sstream>
#include <string>

namespace tpupoint {

/** Severity of a log event (fatal/panic throw instead). */
enum class LogLevel { Debug, Info, Warn };

/**
 * Global log verbosity control: obs::Logger suppresses stream
 * events below the threshold. Defaults to Info; the
 * TPUPOINT_LOG_LEVEL environment variable (debug/info/warn)
 * overrides the default on first use, and tests raise it
 * explicitly to keep output clean.
 */
class LogConfig
{
  public:
    /** Current minimum level that will be emitted. */
    static LogLevel threshold();

    /** Set the minimum level that will be emitted. */
    static void setThreshold(LogLevel level);

    /**
     * Re-read TPUPOINT_LOG_LEVEL and apply it.
     * @return true when the variable held a valid level; an unset
     *     or unparsable value leaves the threshold untouched.
     */
    static bool loadFromEnvironment();

    /**
     * Parse a level name ("debug", "info", "warn").
     * @return false when @p name is not a level.
     */
    static bool parseLevel(const char *name, LogLevel *level);
};

/** Printable level name ("debug", "info", ...). */
const char *logLevelName(LogLevel level);

namespace detail {

/** Fold a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concatenate(Args &&...args)
{
    std::ostringstream os;
    if constexpr (sizeof...(Args) > 0)
        (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/**
 * Unrecoverable condition caused by the caller (bad configuration,
 * invalid arguments). Throws std::runtime_error so library users can
 * catch it; never returns.
 */
[[noreturn]] void fatalError(const std::string &msg);

template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    fatalError(detail::concatenate(std::forward<Args>(args)...));
}

/**
 * Internal invariant violation (a TPUPoint bug, not a user error).
 * Throws std::logic_error; never returns.
 */
[[noreturn]] void panicError(const std::string &msg);

template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    panicError(detail::concatenate(std::forward<Args>(args)...));
}

} // namespace tpupoint

#endif // TPUPOINT_CORE_LOGGING_HH
