/** @file ProgressReporter rendering and event naming. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/json.hh"
#include "obs/progress.hh"

namespace tpupoint {
namespace obs {
namespace {

ProgressEvent
makeEvent(ProgressEvent::Kind kind, std::size_t item)
{
    ProgressEvent event;
    event.kind = kind;
    event.item = item;
    event.total = 4;
    event.started = item + 1;
    return event;
}

TEST(ProgressTest, KindNamesAreStable)
{
    EXPECT_STREQ(progressKindName(ProgressEvent::Kind::Start),
                 "start");
    EXPECT_STREQ(progressKindName(ProgressEvent::Kind::Finish),
                 "finish");
}

TEST(ProgressTest, FinishedSumsTerminalStates)
{
    ProgressEvent event;
    event.succeeded = 2;
    event.preempted = 1;
    event.failed = 3;
    EXPECT_EQ(event.finished(), 6u);
}

TEST(ProgressTest, JsonlModeEmitsOneValidObjectPerEvent)
{
    std::ostringstream out;
    ProgressReporter reporter(out,
                              ProgressReporter::Mode::Jsonl);
    reporter(makeEvent(ProgressEvent::Kind::Start, 0));
    ProgressEvent done = makeEvent(ProgressEvent::Kind::Finish, 0);
    done.status = "ok";
    done.succeeded = 1;
    done.wall_seconds = 0.25;
    reporter(done);
    reporter.finish();

    std::istringstream lines(out.str());
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        std::string error;
        EXPECT_TRUE(validateJson(line, &error))
            << line << ": " << error;
        ++count;
    }
    EXPECT_EQ(count, 2u);
    EXPECT_NE(out.str().find("\"event\":\"start\""),
              std::string::npos);
    EXPECT_NE(out.str().find("\"status\":\"ok\""),
              std::string::npos);
}

TEST(ProgressTest, StatusLineRepaintsInPlaceUntilFinish)
{
    std::ostringstream out;
    {
        ProgressReporter reporter(
            out, ProgressReporter::Mode::StatusLine);
        reporter(makeEvent(ProgressEvent::Kind::Start, 0));
        reporter(makeEvent(ProgressEvent::Kind::Start, 1));
        EXPECT_EQ(out.str().find('\n'), std::string::npos);
        EXPECT_NE(out.str().find('\r'), std::string::npos);
    } // destructor finishes the line
    EXPECT_NE(out.str().find('\n'), std::string::npos);
}

} // namespace
} // namespace obs
} // namespace tpupoint
