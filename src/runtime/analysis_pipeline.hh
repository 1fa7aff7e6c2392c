/**
 * @file
 * AnalysisPipeline: the shared load → salvage → analyze wiring
 * behind tpupoint-analyze, tpupoint-export and tpupoint-compare.
 * Each tool used to hand-roll the same sequence — open the profile,
 * stream records through a (possibly salvaging) ProfileReader,
 * charge salvage damage to the metrics registry, reject empty
 * profiles, finalize the analysis — with the same error wording and
 * subtly diverging details. The pipeline owns that sequence once;
 * the tools keep only their presentation.
 *
 * The pipeline also owns the process's analysis ThreadPool: one
 * `--threads N` knob builds one pool (instrumented under
 * `pool.analysis.*`) that finalize() fans detectors and sweeps out
 * on. Callers that already have a pool lend it via
 * PipelineOptions::pool instead.
 */

#ifndef TPUPOINT_RUNTIME_ANALYSIS_PIPELINE_HH
#define TPUPOINT_RUNTIME_ANALYSIS_PIPELINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analyzer/analyzer.hh"
#include "core/thread_pool.hh"

namespace tpupoint {
namespace runtime {

/** Pipeline configuration. */
struct PipelineOptions
{
    AnalyzerOptions analyzer;

    /** Skip damaged chunks instead of failing on the first one. */
    bool salvage = false;

    /**
     * Worker threads for the pipeline-owned pool; 0 resolves via
     * obs::resolveThreadCount() (TPUPOINT_THREADS, else hardware
     * concurrency). 1 runs everything inline — the serial path.
     * Ignored when `pool` is set.
     */
    unsigned threads = 1;

    /** Borrow this caller-owned pool instead of creating one. */
    ThreadPool *pool = nullptr;
};

/** How a pipeline stage failed. */
enum class PipelineError : std::uint8_t {
    None,       ///< Success.
    OpenFailed, ///< The profile could not be opened.
    Unreadable, ///< Decoding failed (and salvage was off or hopeless).
    Empty,      ///< The profile decoded to zero records.

    /**
     * A live stream has produced no complete records *yet* — the
     * tail is truncated but the writer may still be appending.
     * Only the streaming layer (tpupoint-serve's tail-following
     * sessions) reports this; the batch paths, for which a
     * zero-record file is final, keep reporting Empty.
     */
    Pending,
};

/** Printable PipelineError name ("none", "pending", ...). */
const char *pipelineErrorName(PipelineError error);

/**
 * Charge one streaming pass's ingest volume to the metrics
 * registry: total events summarized by the ingested records, and
 * the raw profile-read rate of this pass. The rate always lands in
 * the aggregate `analyzer.ingest_pass_bytes_per_sec` histogram
 * (honest across concurrent sessions: every pass is one
 * observation; its own name, because an OpenMetrics family has one
 * type and the gauges below own the `ingest_bytes_per_sec` one); the
 * last-write-wins gauge is either per-session-labeled
 * (`analyzer.ingest_bytes_per_sec{session=LABEL}`) or, for the
 * single-session batch CLIs (empty label), the historical unlabeled
 * name. The one thing that never happens anymore is two sessions
 * racing on the same gauge. Shared by the pipeline's batch passes
 * and tpupoint-serve's incremental tail polls so both report under
 * one metric contract.
 */
void chargeIngestMetrics(const std::string &session_label,
                         std::uint64_t events, std::uint64_t bytes,
                         double seconds);

/** Outcome of one profile load (plus salvage bookkeeping). */
struct PipelineReport
{
    PipelineError error = PipelineError::None;

    /**
     * Human-readable failure description, phrased for an "error: "
     * prefix ("cannot open profile 'x'"). Empty on success.
     */
    std::string message;

    /** Records successfully decoded and delivered. */
    std::uint64_t records = 0;

    /** Sum of event_count over all delivered records. */
    std::uint64_t events = 0;

    /** Sum of events_dropped over all delivered records. */
    std::uint64_t events_dropped = 0;

    /** Salvage tallies (all zero for an intact profile). */
    bool saw_damage = false;
    std::uint64_t chunks_dropped = 0;
    std::uint64_t records_dropped = 0;
    std::uint64_t bytes_skipped = 0;
    bool truncated_tail = false;

    bool ok() const { return error == PipelineError::None; }

    /**
     * The canonical salvage report line: "salvage: dropped N
     * chunks, M records, skipped B bytes[, truncated tail]" after
     * damage, "salvage: profile is intact" otherwise. No trailing
     * newline.
     */
    std::string salvageSummary() const;
};

/** The shared tool pipeline. */
class AnalysisPipeline
{
  public:
    using ColumnarHook =
        std::function<void(const ColumnarRecord &)>;

    explicit AnalysisPipeline(const PipelineOptions &options = {});

    /**
     * Stream the profile at @p path through @p hook, one decoded
     * record at a time. One ColumnarRecord is reused across the
     * stream (names interned, no per-record maps), so memory stays
     * bounded by one chunk and the steady-state loop allocates
     * nothing. The record is only valid during the call. Without
     * a session this is the export path. Salvage damage is charged
     * to the metrics registry either way.
     */
    PipelineReport streamProfile(const std::string &path,
                                 const ColumnarHook &hook) const;

    /**
     * streamProfile() into an AnalysisSession (observing each
     * record via @p hook first, when set), under one
     * `analyze.ingest` span, then finalize the session on the
     * pipeline's pool. On failure @p result is left untouched and
     * the report carries the error.
     */
    PipelineReport analyzeProfile(
        const std::string &path, AnalysisResult *result,
        const std::vector<CheckpointInfo> &checkpoints = {},
        const ColumnarHook &hook = nullptr) const;

    /** The pool finalize() runs on (owned or borrowed). */
    ThreadPool &pool() const { return *active_pool; }

    const PipelineOptions &options() const { return opts; }

  private:
    PipelineOptions opts;
    std::unique_ptr<ThreadPool> owned_pool;
    ThreadPool *active_pool;
};

} // namespace runtime
} // namespace tpupoint

#endif // TPUPOINT_RUNTIME_ANALYSIS_PIPELINE_HH
