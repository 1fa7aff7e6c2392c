#include "core/logging.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>

namespace tpupoint {

namespace {

std::atomic<LogLevel> global_threshold{LogLevel::Info};

std::once_flag environment_once;

/** Apply TPUPOINT_LOG_LEVEL exactly once, before the first
 * threshold read or explicit set wins the race. */
void
ensureEnvironmentLoaded()
{
    std::call_once(environment_once,
                   []() { LogConfig::loadFromEnvironment(); });
}

} // namespace

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
    }
    return "?";
}

LogLevel
LogConfig::threshold()
{
    ensureEnvironmentLoaded();
    return global_threshold.load(std::memory_order_relaxed);
}

void
LogConfig::setThreshold(LogLevel level)
{
    // Consume the environment first so a late first read cannot
    // overwrite this explicit choice.
    ensureEnvironmentLoaded();
    global_threshold.store(level, std::memory_order_relaxed);
}

bool
LogConfig::parseLevel(const char *name, LogLevel *level)
{
    if (!name)
        return false;
    if (std::strcmp(name, "debug") == 0)
        *level = LogLevel::Debug;
    else if (std::strcmp(name, "info") == 0)
        *level = LogLevel::Info;
    else if (std::strcmp(name, "warn") == 0)
        *level = LogLevel::Warn;
    else
        return false;
    return true;
}

bool
LogConfig::loadFromEnvironment()
{
    LogLevel level;
    if (!parseLevel(std::getenv("TPUPOINT_LOG_LEVEL"), &level))
        return false;
    global_threshold.store(level, std::memory_order_relaxed);
    return true;
}

void
fatalError(const std::string &msg)
{
    throw std::runtime_error("tpupoint fatal: " + msg);
}

void
panicError(const std::string &msg)
{
    throw std::logic_error("tpupoint panic: " + msg);
}

} // namespace tpupoint
