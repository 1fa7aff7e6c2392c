/** @file Logging thresholds and error-reporting contracts. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "core/logging.hh"

namespace tpupoint {
namespace {

class LoggingTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        previous = LogConfig::threshold();
    }

    void
    TearDown() override
    {
        LogConfig::setThreshold(previous);
    }

    LogLevel previous = LogLevel::Info;
};

TEST_F(LoggingTest, ThresholdRoundTrips)
{
    LogConfig::setThreshold(LogLevel::Warn);
    EXPECT_EQ(LogConfig::threshold(), LogLevel::Warn);
    LogConfig::setThreshold(LogLevel::Debug);
    EXPECT_EQ(LogConfig::threshold(), LogLevel::Debug);
}

TEST_F(LoggingTest, FatalThrowsRuntimeError)
{
    EXPECT_THROW(fatal("user misconfigured ", 42),
                 std::runtime_error);
    try {
        fatal("bad value ", 7);
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("bad value 7"),
                  std::string::npos);
    }
}

TEST_F(LoggingTest, PanicThrowsLogicError)
{
    EXPECT_THROW(panic("invariant ", "broken"),
                 std::logic_error);
    // panic is NOT a runtime_error: internal bugs are
    // distinguishable from user errors.
    try {
        panic("x");
    } catch (const std::runtime_error &) {
        FAIL() << "panic must not be a runtime_error";
    } catch (const std::logic_error &) {
        SUCCEED();
    }
}

TEST_F(LoggingTest, ConcatenateFormatsMixedTypes)
{
    EXPECT_EQ(detail::concatenate("a=", 1, " b=", 2.5, " c=",
                                  'x'),
              "a=1 b=2.5 c=x");
    EXPECT_EQ(detail::concatenate(), "");
}

TEST_F(LoggingTest, ParseLevelAcceptsKnownNamesOnly)
{
    LogLevel level = LogLevel::Info;
    EXPECT_TRUE(LogConfig::parseLevel("debug", &level));
    EXPECT_EQ(level, LogLevel::Debug);
    EXPECT_TRUE(LogConfig::parseLevel("warn", &level));
    EXPECT_EQ(level, LogLevel::Warn);
    EXPECT_TRUE(LogConfig::parseLevel("info", &level));
    EXPECT_EQ(level, LogLevel::Info);
    EXPECT_FALSE(LogConfig::parseLevel("verbose", &level));
    // "error" is not a threshold: only fatal/panic sit above warn,
    // and those throw instead of logging.
    EXPECT_FALSE(LogConfig::parseLevel("error", &level));
    EXPECT_FALSE(LogConfig::parseLevel("", &level));
    // A failed parse never clobbers the output.
    EXPECT_EQ(level, LogLevel::Info);
}

TEST_F(LoggingTest, EnvironmentVariableSetsTheThreshold)
{
    ASSERT_EQ(setenv("TPUPOINT_LOG_LEVEL", "debug", 1), 0);
    EXPECT_TRUE(LogConfig::loadFromEnvironment());
    EXPECT_EQ(LogConfig::threshold(), LogLevel::Debug);

    ASSERT_EQ(setenv("TPUPOINT_LOG_LEVEL", "warn", 1), 0);
    EXPECT_TRUE(LogConfig::loadFromEnvironment());
    EXPECT_EQ(LogConfig::threshold(), LogLevel::Warn);

    // Garbage and absence both leave the threshold untouched.
    ASSERT_EQ(setenv("TPUPOINT_LOG_LEVEL", "shouting", 1), 0);
    EXPECT_FALSE(LogConfig::loadFromEnvironment());
    EXPECT_EQ(LogConfig::threshold(), LogLevel::Warn);
    ASSERT_EQ(unsetenv("TPUPOINT_LOG_LEVEL"), 0);
    EXPECT_FALSE(LogConfig::loadFromEnvironment());
    EXPECT_EQ(LogConfig::threshold(), LogLevel::Warn);
}

} // namespace
} // namespace tpupoint
