/**
 * @file resolveThreadCount: the `--threads` default semantics and
 * its TPUPOINT_THREADS warning, which goes through obs::Logger.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/json.hh"
#include "obs/flight_recorder.hh"
#include "obs/pool_metrics.hh"
#include "tests/obs/stderr_capture.hh"

namespace tpupoint {
namespace obs {
namespace {

TEST(ResolveThreadCountTest, RequestedWinsOverEverything)
{
    ::setenv("TPUPOINT_THREADS", "7", 1);
    EXPECT_EQ(resolveThreadCount(3), 3u);
    ::unsetenv("TPUPOINT_THREADS");
}

TEST(ResolveThreadCountTest, EnvironmentFillsInZero)
{
    ::setenv("TPUPOINT_THREADS", "5", 1);
    EXPECT_EQ(resolveThreadCount(0), 5u);
    ::unsetenv("TPUPOINT_THREADS");
}

TEST(ResolveThreadCountTest, FallsBackToHardwareMinimumOne)
{
    ::unsetenv("TPUPOINT_THREADS");
    EXPECT_GE(resolveThreadCount(0), 1u);
}

// A bad TPUPOINT_THREADS is ignored with exactly one warning, and
// under TPUPOINT_LOG_FORMAT=json that warning is a JSON line like
// every other event on stderr.
TEST(ResolveThreadCountTest, BadEnvironmentWarnsOnceAsJson)
{
    FlightRecorder::global().disable();
    ::setenv("TPUPOINT_THREADS", "banana", 1);
    testutil::JsonStderrCapture captured;
    const unsigned resolved = resolveThreadCount(0);
    const std::string text = captured.text();
    ::unsetenv("TPUPOINT_THREADS");

    EXPECT_GE(resolved, 1u);
    const auto lines = captured.lines();
    ASSERT_EQ(lines.size(), 1u) << text;
    std::string why;
    EXPECT_TRUE(validateJson(lines[0], &why)) << lines[0] << ": "
                                              << why;
    EXPECT_NE(lines[0].find("\"level\":\"warn\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("TPUPOINT_THREADS"), std::string::npos);
    EXPECT_NE(lines[0].find("\"value\":\"banana\""),
              std::string::npos);
}

} // namespace
} // namespace obs
} // namespace tpupoint
