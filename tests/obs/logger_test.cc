/** @file Structured logger: formats, rate limiting, flight mirror. */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.hh"
#include "core/logging.hh"
#include "obs/flight_recorder.hh"
#include "obs/logger.hh"

namespace tpupoint {
namespace obs {
namespace {

/** Capture everything a Logger writes to its stream. */
class CapturedLogger
{
  public:
    CapturedLogger()
        : sink(std::tmpfile())
    {
        logger.setStream(sink);
    }

    ~CapturedLogger()
    {
        if (sink != nullptr)
            std::fclose(sink);
    }

    std::string
    text()
    {
        std::fflush(sink);
        std::rewind(sink);
        std::string out;
        char buffer[512];
        std::size_t n = 0;
        while ((n = std::fread(buffer, 1, sizeof(buffer), sink)) >
               0)
            out.append(buffer, n);
        return out;
    }

    std::vector<std::string>
    lines()
    {
        std::vector<std::string> out;
        std::istringstream stream(text());
        std::string line;
        while (std::getline(stream, line))
            out.push_back(line);
        return out;
    }

    Logger logger;

  private:
    std::FILE *sink;
};

struct LoggerTest : ::testing::Test
{
    void SetUp() override
    {
        FlightRecorder::global().disable();
        LogConfig::setThreshold(LogLevel::Debug);
    }
    void TearDown() override
    {
        LogConfig::setThreshold(LogLevel::Info);
    }
};

TEST_F(LoggerTest, TextFormatCarriesComponentAndFields)
{
    CapturedLogger captured;
    captured.logger.setFormat(LogFormat::Text);
    captured.logger.log(LogLevel::Warn, "serve",
                        "session quarantined",
                        {{"session", "run1"},
                         {"attempt", std::uint64_t{3}}});
    const std::string out = captured.text();
    EXPECT_NE(out.find("tpupoint: warn: [serve] session "
                       "quarantined"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("session=run1"), std::string::npos);
    EXPECT_NE(out.find("attempt=3"), std::string::npos);
}

TEST_F(LoggerTest, JsonFormatEmitsOneParseableObjectPerLine)
{
    CapturedLogger captured;
    captured.logger.setFormat(LogFormat::Json);
    captured.logger.log(LogLevel::Info, "serve", "discovered",
                        {{"session", "a\"b"}, {"live", 2}});
    captured.logger.log(LogLevel::Debug, "core", "plain");

    const auto lines = captured.lines();
    ASSERT_EQ(lines.size(), 2u);
    for (const std::string &line : lines) {
        std::string why;
        EXPECT_TRUE(validateJson(line, &why)) << line << ": "
                                              << why;
    }
    EXPECT_NE(lines[0].find("\"level\":\"info\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"component\":\"serve\""),
              std::string::npos);
    // Hostile field values arrive escaped, never break the line.
    EXPECT_NE(lines[0].find("\"session\":\"a\\\"b\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"live\":2"), std::string::npos);
    EXPECT_NE(lines[0].find("\"ts_ns\":"), std::string::npos);
}

TEST_F(LoggerTest, ThresholdFiltersStreamEmission)
{
    CapturedLogger captured;
    captured.logger.setFormat(LogFormat::Text);
    LogConfig::setThreshold(LogLevel::Warn);
    captured.logger.log(LogLevel::Info, "serve", "ignored");
    captured.logger.log(LogLevel::Warn, "serve", "kept");
    EXPECT_EQ(captured.logger.emitted(), 1u);
    EXPECT_EQ(captured.text().find("ignored"), std::string::npos);
}

TEST_F(LoggerTest, ParseFormatAcceptsKnownNamesOnly)
{
    LogFormat format = LogFormat::Text;
    EXPECT_TRUE(Logger::parseFormat("json", &format));
    EXPECT_EQ(format, LogFormat::Json);
    EXPECT_TRUE(Logger::parseFormat("jsonl", &format));
    EXPECT_EQ(format, LogFormat::Json);
    EXPECT_TRUE(Logger::parseFormat("text", &format));
    EXPECT_EQ(format, LogFormat::Text);
    EXPECT_FALSE(Logger::parseFormat("xml", &format));
    EXPECT_FALSE(Logger::parseFormat(nullptr, &format));
}

TEST_F(LoggerTest, LogSiteAdmitsFirstThenSuppressesInsideInterval)
{
    LogSite site(/*interval_ms=*/10);
    std::uint64_t suppressed = 99;
    const std::int64_t ms = 1000000;
    EXPECT_TRUE(site.admit(0, &suppressed));
    EXPECT_EQ(suppressed, 0u);
    EXPECT_FALSE(site.admit(1 * ms, &suppressed));
    EXPECT_FALSE(site.admit(2 * ms, &suppressed));
    EXPECT_EQ(site.suppressed(), 2u);
    // The next admission reports (and resets) the swallowed count.
    EXPECT_TRUE(site.admit(11 * ms, &suppressed));
    EXPECT_EQ(suppressed, 2u);
    EXPECT_EQ(site.suppressed(), 0u);
}

TEST_F(LoggerTest, LogLimitedAnnotatesSuppressedRuns)
{
    CapturedLogger captured;
    captured.logger.setFormat(LogFormat::Text);
    // Pre-load a site with two swallowed events at timestamps the
    // real monotonic clock has long passed: the next logLimited
    // admits and must drain the count into the emitted line.
    LogSite site(/*interval_ms=*/10);
    std::uint64_t ignored = 0;
    ASSERT_TRUE(site.admit(0, &ignored));
    ASSERT_FALSE(site.admit(1, &ignored));
    ASSERT_FALSE(site.admit(2, &ignored));
    captured.logger.logLimited(site, LogLevel::Warn, "obs",
                               "noisy");
    EXPECT_EQ(captured.logger.emitted(), 1u);
    EXPECT_NE(captured.text().find("suppressed=2"),
              std::string::npos)
        << captured.text();

    // A fresh site with an hour-long interval: the first call
    // through logLimited always admits, the immediate repeat is
    // swallowed and only counted.
    LogSite slow_site(/*interval_ms=*/3600 * 1000);
    captured.logger.logLimited(slow_site, LogLevel::Warn, "obs",
                               "first");
    captured.logger.logLimited(slow_site, LogLevel::Warn, "obs",
                               "second");
    EXPECT_EQ(captured.logger.emitted(), 2u);
    EXPECT_EQ(slow_site.suppressed(), 1u);
    EXPECT_EQ(captured.text().find("second"), std::string::npos);
}

TEST_F(LoggerTest, MirrorsEveryEventToEnabledFlightRecorder)
{
    FlightRecorder &flight = FlightRecorder::global();
    flight.enable();
    const std::uint64_t before = flight.recorded();

    CapturedLogger captured;
    captured.logger.setFormat(LogFormat::Text);
    // Below the stream threshold — the terminal never sees it, the
    // black box still does.
    LogConfig::setThreshold(LogLevel::Warn);
    captured.logger.log(LogLevel::Debug, "serve",
                        "debug breadcrumb");
    flight.disable();

    EXPECT_EQ(captured.logger.emitted(), 0u);
    EXPECT_EQ(flight.recorded(), before + 1);
}

} // namespace
} // namespace obs
} // namespace tpupoint
