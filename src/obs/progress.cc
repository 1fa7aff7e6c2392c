#include "obs/progress.hh"

#include <cstdio>

#ifdef __unix__
#include <unistd.h>
#endif

#include "core/json.hh"
#include "core/logging.hh"

namespace tpupoint {
namespace obs {

const char *
progressKindName(ProgressEvent::Kind kind)
{
    switch (kind) {
      case ProgressEvent::Kind::Start: return "start";
      case ProgressEvent::Kind::Finish: return "finish";
    }
    panic("progressKindName: unknown kind");
}

ProgressReporter::ProgressReporter(std::ostream &out, Mode mode)
    : stream(out), render_mode(mode)
{
}

ProgressReporter::~ProgressReporter()
{
    finish();
}

ProgressReporter::Mode
ProgressReporter::autoMode(int fd)
{
#ifdef __unix__
    if (isatty(fd))
        return Mode::StatusLine;
#else
    (void)fd;
#endif
    return Mode::Jsonl;
}

void
ProgressReporter::operator()(const ProgressEvent &event)
{
    if (render_mode == Mode::Jsonl) {
        // One self-contained object per line; flushed so tailing
        // the stream sees each event as it happens.
        JsonWriter w(stream);
        w.beginObject();
        w.field("event", progressKindName(event.kind));
        w.field("job", static_cast<std::uint64_t>(event.item));
        w.field("total", static_cast<std::uint64_t>(event.total));
        if (event.kind == ProgressEvent::Kind::Finish) {
            w.field("status", event.status);
            w.field("wall_s", event.wall_seconds);
        }
        w.field("started",
                static_cast<std::uint64_t>(event.started));
        w.field("succeeded",
                static_cast<std::uint64_t>(event.succeeded));
        w.field("preempted",
                static_cast<std::uint64_t>(event.preempted));
        w.field("failed",
                static_cast<std::uint64_t>(event.failed));
        w.endObject();
        stream << '\n';
        stream.flush();
        return;
    }

    // Status line: repaint in place. Trailing spaces wipe leftover
    // characters from a longer previous line.
    char line[160];
    if (event.kind == ProgressEvent::Kind::Finish) {
        std::snprintf(line, sizeof(line),
                      "[%zu/%zu] job %zu %s (%.1fs)  "
                      "ok:%zu preempted:%zu failed:%zu",
                      event.finished(), event.total, event.item,
                      event.status, event.wall_seconds,
                      event.succeeded, event.preempted,
                      event.failed);
    } else {
        std::snprintf(line, sizeof(line), "[%zu/%zu] job %zu %s",
                      event.finished(), event.total, event.item,
                      progressKindName(event.kind));
    }
    stream << '\r' << line << "          " << std::flush;
    line_open = true;
}

void
ProgressReporter::finish()
{
    if (render_mode == Mode::StatusLine && line_open) {
        stream << '\n' << std::flush;
        line_open = false;
    }
}

} // namespace obs
} // namespace tpupoint
