/**
 * @file Capture what the process writes to stderr (file descriptor
 * 2) while the global obs::Logger emits JSONL there, so a test sees
 * exactly the lines an operator's log shipper would.
 */

#ifndef TPUPOINT_TESTS_OBS_STDERR_CAPTURE_HH
#define TPUPOINT_TESTS_OBS_STDERR_CAPTURE_HH

#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "obs/logger.hh"

namespace tpupoint {
namespace testutil {

/**
 * Redirects file descriptor 2 into a temporary file and switches
 * the global logger (which writes to stderr) to LogFormat::Json
 * until text() or destruction restores both.
 */
class JsonStderrCapture
{
  public:
    JsonStderrCapture()
        : sink(std::tmpfile()),
          previous_format(obs::Logger::global().format())
    {
        obs::Logger::global().setFormat(obs::LogFormat::Json);
        std::fflush(stderr);
        saved_fd = ::dup(2);
        ::dup2(::fileno(sink), 2);
    }

    JsonStderrCapture(const JsonStderrCapture &) = delete;
    JsonStderrCapture &operator=(const JsonStderrCapture &) = delete;

    ~JsonStderrCapture()
    {
        restore();
        std::fclose(sink);
    }

    /** Stop capturing and return everything written meanwhile. */
    std::string
    text()
    {
        restore();
        std::rewind(sink);
        std::string out;
        char buffer[512];
        std::size_t n = 0;
        while ((n = std::fread(buffer, 1, sizeof(buffer), sink)) >
               0)
            out.append(buffer, n);
        return out;
    }

    /** text() split into lines. */
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

  private:
    void
    restore()
    {
        if (saved_fd < 0)
            return;
        std::fflush(stderr);
        ::dup2(saved_fd, 2);
        ::close(saved_fd);
        saved_fd = -1;
        obs::Logger::global().setFormat(previous_format);
    }

    std::FILE *sink;
    obs::LogFormat previous_format;
    int saved_fd = -1;
};

} // namespace testutil
} // namespace tpupoint

#endif // TPUPOINT_TESTS_OBS_STDERR_CAPTURE_HH
