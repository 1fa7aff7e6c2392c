/**
 * @file
 * Progress reporting for long multi-job operations (the parallel
 * SweepRunner above all). The producer invokes a ProgressSink on
 * every item start and finish with running totals; the bundled
 * ProgressReporter renders those events either as a single
 * in-place status line (interactive terminals) or as one JSON
 * object per line (pipes, CI logs), so a multi-minute sweep is
 * never silent and machines can tail the JSONL.
 */

#ifndef TPUPOINT_OBS_PROGRESS_HH
#define TPUPOINT_OBS_PROGRESS_HH

#include <cstddef>
#include <functional>
#include <ostream>

namespace tpupoint {
namespace obs {

/** One progress notification. */
struct ProgressEvent
{
    enum class Kind : std::uint8_t {
        Start,  ///< An item began executing.
        Finish, ///< An item reached a terminal status.
    };

    Kind kind = Kind::Start;
    std::size_t item = 0;  ///< Item (job) index.
    std::size_t total = 0; ///< Items in the whole operation.

    /** Terminal status name ("ok", "preempted", "failed"); only
     * meaningful for Finish events. */
    const char *status = "";

    /** Item wall-clock time in seconds (Finish events). */
    double wall_seconds = 0;

    /** Running totals *after* this event. */
    std::size_t started = 0;
    std::size_t succeeded = 0;
    std::size_t preempted = 0;
    std::size_t failed = 0;

    /** Items in a terminal state. */
    std::size_t
    finished() const
    {
        return succeeded + preempted + failed;
    }
};

/** Printable event-kind name ("start", "finish"). */
const char *progressKindName(ProgressEvent::Kind kind);

/**
 * Callback invoked per progress event. Producers serialize the
 * invocations (events arrive one at a time, in a consistent order
 * per item), so sinks need no locking of their own.
 */
using ProgressSink = std::function<void(const ProgressEvent &)>;

/**
 * Standard renderer. StatusLine mode repaints one
 * carriage-return-terminated line per event and needs finish() (or
 * destruction) to emit the final newline; Jsonl mode appends one
 * self-contained JSON object per event.
 */
class ProgressReporter
{
  public:
    enum class Mode { StatusLine, Jsonl };

    ProgressReporter(std::ostream &out, Mode mode);

    ~ProgressReporter();

    /** Render one event (usable directly as a ProgressSink). */
    void operator()(const ProgressEvent &event);

    /** Terminate a status line with a newline. Idempotent. */
    void finish();

    Mode mode() const { return render_mode; }

    /**
     * The mode to use for a stream attached to @p fd: StatusLine
     * when the descriptor is an interactive terminal, Jsonl
     * otherwise (pipes, files, CI).
     */
    static Mode autoMode(int fd);

  private:
    std::ostream &stream;
    Mode render_mode;
    bool line_open = false;
};

} // namespace obs
} // namespace tpupoint

#endif // TPUPOINT_OBS_PROGRESS_HH
