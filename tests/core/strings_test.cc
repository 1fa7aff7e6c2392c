/** @file String utility behaviour. */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "core/strings.hh"
#include "core/types.hh"

namespace tpupoint {
namespace {

TEST(StringsTest, JoinEmptyAndNonEmpty)
{
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"a"}, ","), "a");
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringsTest, SplitKeepsEmptyFields)
{
    const auto parts = split("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
}

TEST(StringsTest, SplitWithoutDelimiterIsWhole)
{
    const auto parts = split("hello", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "hello");
}

TEST(StringsTest, SplitJoinRoundTrip)
{
    const std::string text = "x,y,z,w";
    EXPECT_EQ(join(split(text, ','), ","), text);
}

TEST(StringsTest, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("tpu:MatMul", "tpu:"));
    EXPECT_FALSE(startsWith("tpu", "tpu:"));
    EXPECT_TRUE(endsWith("model.ckpt", ".ckpt"));
    EXPECT_FALSE(endsWith("ckpt", "model.ckpt"));
    EXPECT_TRUE(startsWith("abc", ""));
    EXPECT_TRUE(endsWith("abc", ""));
}

TEST(StringsTest, TrimRemovesSurroundingWhitespace)
{
    EXPECT_EQ(trim("  hi \t\n"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim(" \t "), "");
    EXPECT_EQ(trim("inner space"), "inner space");
}

TEST(StringsTest, ToLower)
{
    EXPECT_EQ(toLower("TPUPoint"), "tpupoint");
    EXPECT_EQ(toLower("abc123"), "abc123");
}

TEST(StringsTest, FormatDouble)
{
    EXPECT_EQ(formatDouble(1.2345, 2), "1.23");
    EXPECT_EQ(formatDouble(1.0, 0), "1");
    EXPECT_EQ(formatDouble(-0.5, 1), "-0.5");
}

TEST(StringsTest, FormatBytesPicksUnits)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(2048), "2.00 KiB");
    EXPECT_EQ(formatBytes(static_cast<std::uint64_t>(1.44 * kMiB)),
              "1.44 MiB");
    EXPECT_EQ(formatBytes(48ULL * kGiB), "48.00 GiB");
}

TEST(StringsTest, FormatDurationPicksUnits)
{
    EXPECT_EQ(formatDuration(500), "500 ns");
    EXPECT_EQ(formatDuration(1500), "1.50 us");
    EXPECT_EQ(formatDuration(230 * kMsec), "230.00 ms");
    EXPECT_EQ(formatDuration(3 * kSec / 2), "1.50 s");
}

TEST(StringsTest, Padding)
{
    EXPECT_EQ(padLeft("ab", 5), "   ab");
    EXPECT_EQ(padRight("ab", 5), "ab   ");
    EXPECT_EQ(padLeft("abcdef", 3), "abcdef");
    EXPECT_EQ(padRight("abcdef", 3), "abcdef");
}

TEST(StringsTest, ParseInt64AcceptsOnlyWholeIntegers)
{
    std::int64_t value = 0;
    EXPECT_TRUE(parseInt64("42", &value));
    EXPECT_EQ(value, 42);
    EXPECT_TRUE(parseInt64("-7", &value));
    EXPECT_EQ(value, -7);
    EXPECT_TRUE(parseInt64("0", &value));
    EXPECT_EQ(value, 0);
    EXPECT_TRUE(parseInt64("9223372036854775807", &value));
    EXPECT_EQ(value, std::numeric_limits<std::int64_t>::max());

    // Failures leave the value untouched.
    value = 123;
    EXPECT_FALSE(parseInt64("", &value));
    EXPECT_FALSE(parseInt64("abc", &value));
    EXPECT_FALSE(parseInt64("12abc", &value)); // Trailing junk.
    EXPECT_FALSE(parseInt64("1.5", &value));
    EXPECT_FALSE(parseInt64(" 42", &value)); // No silent trim.
    EXPECT_FALSE(parseInt64("42 ", &value));
    EXPECT_FALSE(parseInt64("9223372036854775808",
                            &value)); // Overflow.
    EXPECT_FALSE(parseInt64("-9223372036854775809", &value));
    EXPECT_EQ(value, 123);
}

TEST(StringsTest, ParseDoubleAcceptsOnlyWholeFiniteNumbers)
{
    double value = 0.0;
    EXPECT_TRUE(parseDouble("0.7", &value));
    EXPECT_EQ(value, 0.7);
    EXPECT_TRUE(parseDouble("-2", &value));
    EXPECT_EQ(value, -2.0);
    EXPECT_TRUE(parseDouble("1e-3", &value));
    EXPECT_EQ(value, 1e-3);

    // Failures leave the value untouched.
    value = 4.5;
    EXPECT_FALSE(parseDouble("", &value));
    EXPECT_FALSE(parseDouble("banana", &value));
    EXPECT_FALSE(parseDouble("0.7x", &value)); // Trailing junk.
    EXPECT_FALSE(parseDouble(" 0.7", &value)); // No silent trim.
    EXPECT_FALSE(parseDouble("+1", &value));
    EXPECT_FALSE(parseDouble("0x1p3", &value));
    EXPECT_FALSE(parseDouble("nan", &value));
    EXPECT_FALSE(parseDouble("inf", &value));
    EXPECT_FALSE(parseDouble("1e999", &value)); // Overflow.
    EXPECT_EQ(value, 4.5);
}

TEST(StringsTest, ParseUint64RejectsSignsAndOverflow)
{
    std::uint64_t value = 0;
    EXPECT_TRUE(parseUint64("0", &value));
    EXPECT_EQ(value, 0u);
    EXPECT_TRUE(parseUint64("18446744073709551615", &value));
    EXPECT_EQ(value, std::numeric_limits<std::uint64_t>::max());

    value = 99;
    EXPECT_FALSE(parseUint64("-1", &value)); // No wrap to huge.
    EXPECT_FALSE(parseUint64("+1", &value));
    EXPECT_FALSE(parseUint64("", &value));
    EXPECT_FALSE(parseUint64("1e3", &value));
    EXPECT_FALSE(parseUint64("18446744073709551616", &value));
    EXPECT_EQ(value, 99u);
}

} // namespace
} // namespace tpupoint
