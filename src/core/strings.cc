#include "core/strings.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace tpupoint {

std::string
join(const std::vector<std::string> &parts, std::string_view sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out.append(sep);
        out.append(parts[i]);
    }
    return out;
}

std::vector<std::string>
split(std::string_view text, char delim)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = text.find(delim, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(text.substr(start));
            break;
        }
        out.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

std::string
formatDouble(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

std::string
formatBytes(std::uint64_t bytes)
{
    const char *units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    double value = static_cast<double>(bytes);
    std::size_t unit = 0;
    while (value >= 1024.0 && unit + 1 < std::size(units)) {
        value /= 1024.0;
        ++unit;
    }
    if (unit == 0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu B",
                      static_cast<unsigned long long>(bytes));
        return buf;
    }
    return formatDouble(value, 2) + " " + units[unit];
}

std::string
formatDuration(SimTime t)
{
    const double ns = static_cast<double>(t);
    if (t < kUsec)
        return formatDouble(ns, 0) + " ns";
    if (t < kMsec)
        return formatDouble(ns / static_cast<double>(kUsec), 2) +
            " us";
    if (t < kSec)
        return formatDouble(ns / static_cast<double>(kMsec), 2) +
            " ms";
    return formatDouble(ns / static_cast<double>(kSec), 2) + " s";
}

namespace {

/**
 * Shared from_chars wrapper: succeeds only when the whole of
 * @p text converts and the value fits @p T — from_chars itself
 * rejects leading whitespace, '+' signs and hex prefixes, which is
 * exactly the strictness the CLI wants.
 */
template <typename T>
bool
parseWhole(std::string_view text, T *value)
{
    T parsed{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] =
        std::from_chars(text.data(), end, parsed, 10);
    if (ec != std::errc() || ptr != end)
        return false;
    *value = parsed;
    return true;
}

} // namespace

bool
parseInt64(std::string_view text, std::int64_t *value)
{
    return parseWhole(text, value);
}

bool
parseUint64(std::string_view text, std::uint64_t *value)
{
    return parseWhole(text, value);
}

bool
parseDouble(std::string_view text, double *value)
{
    double parsed = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
    if (ec != std::errc() || ptr != end || !std::isfinite(parsed))
        return false;
    *value = parsed;
    return true;
}

std::string
padLeft(std::string_view text, std::size_t width)
{
    if (text.size() >= width)
        return std::string(text);
    return std::string(width - text.size(), ' ') + std::string(text);
}

std::string
padRight(std::string_view text, std::size_t width)
{
    std::string out(text);
    if (out.size() < width)
        out.append(width - out.size(), ' ');
    return out;
}

} // namespace tpupoint
