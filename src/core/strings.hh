/**
 * @file
 * Small string utilities: joining, splitting, padding and
 * human-readable formatting of byte counts and durations.
 */

#ifndef TPUPOINT_CORE_STRINGS_HH
#define TPUPOINT_CORE_STRINGS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.hh"

namespace tpupoint {

/** Join @p parts with @p sep between elements. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view sep);

/** Split @p text on a single-character delimiter; keeps empties. */
std::vector<std::string> split(std::string_view text, char delim);

/** Format with fixed decimals, e.g. formatDouble(1.2345, 2) = "1.23". */
std::string formatDouble(double value, int decimals);

/** Human-readable bytes: "1.44 MiB", "48.49 GiB", "512 B". */
std::string formatBytes(std::uint64_t bytes);

/** Human-readable simulated duration: "1.50 s", "230.00 ms", ... */
std::string formatDuration(SimTime t);

/**
 * Strict integer parse: the whole of @p text must be one decimal
 * integer (optional leading '-' for the signed form, no leading or
 * trailing junk, no whitespace) that fits the result type.
 * @return true and sets @p value on success; on any failure —
 *     empty input, stray characters, out of range — @p value is
 *     left untouched.
 */
bool parseInt64(std::string_view text, std::int64_t *value);

/** parseInt64 for unsigned values ('-' is a failure, not a wrap). */
bool parseUint64(std::string_view text, std::uint64_t *value);

/**
 * Strict floating-point parse: the whole of @p text must be one
 * finite decimal number ("0.7", "-2", "1e-3"; no whitespace, '+',
 * hex, "inf" or "nan"). Same failure contract as parseInt64.
 */
bool parseDouble(std::string_view text, double *value);

/** Left-pad with spaces to at least @p width characters. */
std::string padLeft(std::string_view text, std::size_t width);

/** Right-pad with spaces to at least @p width characters. */
std::string padRight(std::string_view text, std::size_t width);

} // namespace tpupoint

#endif // TPUPOINT_CORE_STRINGS_HH
