/**
 * @file
 * The tpupoint-serve session manager: long-running, concurrent
 * ingest of profile streams as they appear and grow in a spool
 * directory. Every batch tool in the repo assumes a finished file;
 * a fleet deployment instead points TPUPoint at the directory its
 * recording threads spool into and wants phase answers *while*
 * training runs write. SessionManager owns that loop:
 *
 *  - discovery: each poll() scans the spool for new `*.tpp` files
 *    and opens one session per trace;
 *  - ingest: every live session tail-follows its file with a
 *    TailReader (trace/tail_reader), decoding records straight into
 *    an incremental AnalysisSession via the columnar path; sessions
 *    ingest concurrently, sharded over one shared core::ThreadPool;
 *  - lifecycle: Discovering → Ingesting → Quiescent → Finalized →
 *    Evicted. A stream finalizes the moment its end marker lands,
 *    or after an idle TTL with no growth (the writer died; analyze
 *    what salvage recovered). Finalized results are retained for
 *    queries until an eviction TTL, after which the heavy state
 *    (step table, analysis result, tail buffers) is released and
 *    only a compact summary survives — the knob that bounds the
 *    daemon's memory under session churn;
 *  - observability: per-session labeled ingest-rate gauges (shared
 *    contract with runtime::chargeIngestMetrics), an aggregate
 *    rate histogram, and a p99-able per-chunk ingest-latency
 *    histogram (`serve.ingest_chunk_us`);
 *  - queries: writeStatusJson() emits one document whose top-level
 *    sections ("sessions", "phases", "coverage", "stats") are what
 *    `tpupoint-serve --query` extracts via extractStatusSection().
 *
 * Threading contract: poll(), the accessors and the JSON writers
 * are control-plane calls from one thread (the daemon loop); the
 * status document's fragment caches rely on that. The
 * data plane — per-session ingest and capped finalizes — fans out
 * on the pool inside poll(), touching disjoint sessions plus the
 * thread-safe process-wide interner and metrics registry.
 */

#ifndef TPUPOINT_SERVE_SERVE_HH
#define TPUPOINT_SERVE_SERVE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "analyzer/analyzer.hh"
#include "core/thread_pool.hh"

namespace tpupoint {
namespace serve {

/** Where a session is in its life. */
enum class SessionState {
    Discovering, ///< File seen; no complete chunk ingested yet.
    Ingesting,   ///< Records are flowing.
    Quiescent,   ///< No growth for the idle TTL; finalize pending.
    Finalized,   ///< Analysis ran; result held for queries.
    Evicted,     ///< Heavy state released; summary only.
    Shed,        ///< Admission refused at the load limit; parked.
    Quarantined, ///< Repeated ingest errors; isolated, not fatal.
};

/** Printable state name ("discovering", "ingesting", ...). */
const char *sessionStateName(SessionState state);

/** Compact per-phase summary that survives eviction. */
struct PhaseSummary
{
    int id = 0;
    std::uint64_t first_step = 0;
    std::uint64_t last_step = 0;
    std::uint64_t steps = 0;
    double duration_ms = 0.0;
    bool noise = false;

    bool operator==(const PhaseSummary &) const = default;
};

/** Queryable per-session status (compact; survives eviction). */
struct SessionStatus
{
    std::string name; ///< File stem; the metric session label.
    std::string path;
    SessionState state = SessionState::Discovering;

    /**
     * Live stream with no complete records *yet* — the streaming
     * layer's "no data yet" outcome (PipelineError::Pending), as
     * opposed to the batch verdict that a record-less profile is
     * empty. Cleared once records arrive or the session is
     * declared dead (finalized).
     */
    bool pending = true;

    /** The stream's end marker was consumed. */
    bool complete = false;

    std::uint64_t records = 0; ///< Records decoded and ingested.
    std::uint64_t events = 0;  ///< Events those records summarize.
    std::uint64_t bytes = 0;   ///< Bytes consumed from the file.
    std::uint64_t chunks = 0;  ///< Whole chunks consumed.

    /** Salvage damage tallies (see TailReader). */
    std::uint64_t chunks_dropped = 0;
    std::uint64_t bytes_skipped = 0;
    std::uint64_t records_dropped = 0;
    std::uint64_t decode_failures = 0;

    /** Damage or decode detail; empty when healthy. */
    std::string error;

    /** Analysis summary; valid once Finalized. */
    std::string algorithm;
    std::uint64_t steps = 0;
    double top3_coverage = 0.0;
    std::vector<PhaseSummary> phases;

    /**
     * The phase algorithm the session is configured to run —
     * known from admission, unlike `algorithm` which reports what
     * actually ran once Finalized.
     */
    std::string detector;

    /**
     * Staleness of the live phase snapshot: aggregated steps the
     * streaming detectors have not consumed yet. Updated every
     * ingest pass; 0 once Finalized (and always 0 when
     * live-phase streaming is off).
     */
    std::uint64_t steps_behind = 0;

    /**
     * The phases/coverage fields are the batch detector's final
     * answer (true once Finalized) rather than a live streaming
     * snapshot (false mid-ingest).
     */
    bool phases_exact = false;

    /**
     * This session was restored from the journal after a restart
     * (process-lifetime fact; never persisted to the journal
     * itself).
     */
    bool recovered = false;

    /** Field-wise: the status-document fragment cache's key. */
    bool operator==(const SessionStatus &) const = default;
};

/** Fleet-level tallies for one SessionManager. */
struct ServeStats
{
    std::uint64_t polls = 0;
    std::size_t sessions = 0;
    std::size_t discovering = 0;
    std::size_t ingesting = 0;
    std::size_t quiescent = 0;
    std::size_t finalized = 0;
    std::size_t evicted = 0;
    std::size_t shed = 0;
    std::size_t quarantined = 0;
    std::uint64_t records = 0;
    std::uint64_t events = 0;
    std::uint64_t bytes = 0;

    /** Sessions restored from the journal at startup. */
    std::size_t recovered = 0;

    /**
     * Sessions exist and none is still live. A shed session counts
     * as live: it holds admissible work the manager will re-admit
     * once capacity frees, so a draining daemon must not exit on
     * it.
     */
    bool
    drained() const
    {
        return sessions > 0 &&
            discovering + ingesting + quiescent + shed == 0;
    }
};

/** SessionManager configuration. */
struct ServeOptions
{
    /** Directory the recording threads spool streams into. */
    std::string spool_dir;

    /** Only files with this suffix are traces. */
    std::string suffix = ".tpp";

    /** Analyzer configuration for every session. */
    AnalyzerOptions analyzer;

    /**
     * Keep streaming detectors live in every session (sets
     * analyzer.streaming) so the status document answers phase and
     * coverage queries *while* a stream ingests: per-poll snapshot
     * updates at bounded cost, each tagged with its `steps_behind`
     * staleness and exact=false until the batch finalize replaces
     * it. Off, phases appear only after finalize — the pre-
     * streaming behavior.
     */
    bool live_phases = true;

    /**
     * Tail-follow in salvage mode (drop damaged chunks, keep
     * streaming). Off = strict: damage parks the session with an
     * error.
     */
    bool salvage = true;

    /**
     * Workers for the manager-owned pool; 0 resolves via
     * obs::resolveThreadCount(). Ignored when `pool` is lent.
     */
    unsigned threads = 0;

    /** Borrow this caller-owned pool instead of creating one. */
    ThreadPool *pool = nullptr;

    /**
     * A live session with no growth for this long turns Quiescent
     * and is finalized with whatever salvage recovered.
     */
    std::int64_t idle_ttl_ms = 2000;

    /**
     * A Finalized session older than this releases its heavy state
     * (result, step table) and turns Evicted. Negative = never.
     */
    std::int64_t evict_ttl_ms = 10000;

    /** Finalizes run per poll() at most (bounds the memory and
     *  latency spike of many streams completing at once). */
    std::size_t max_finalizes_per_poll = 4;

    /**
     * Injectable monotonic clock (milliseconds); tests drive TTL
     * transitions deterministically through it. Defaults to
     * steady_clock.
     */
    std::function<std::int64_t()> now_ms;

    /**
     * Durable session journal path; empty disables journaling.
     * With a journal, the manager restores every session it
     * recorded on construction (see journal.hh) and commits one
     * snapshot per dirty session at the end of each poll().
     */
    std::string journal_path;

    /** Compact the journal once it outgrows this many bytes. */
    std::uint64_t journal_compact_bytes = 1 << 20;

    /**
     * Admission cap: at most this many live sessions (discovering,
     * ingesting or quiescent) at once; excess spool files are
     * parked in Shed and re-admitted in discovery order as
     * capacity frees. 0 = unlimited.
     */
    std::size_t max_sessions = 0;

    /**
     * Admission cap on the bytes live sessions have consumed; a
     * new session is shed while the fleet holds at least this
     * much. Never sheds mid-session — admitted streams always run
     * to completion. 0 = unlimited.
     */
    std::uint64_t max_inflight_bytes = 0;

    /**
     * Quarantine watchdog: this many *consecutive* ingest errors
     * (I/O failures, ingest exceptions) park the session in
     * Quarantined instead of letting it poison every poll.
     */
    std::uint64_t quarantine_errors = 3;

    /**
     * SLO: the `serve.ingest_chunk_us` p99 (conservative bucket
     * upper bound) must stay at or below this many microseconds;
     * above it the health report turns degraded with an
     * "slo-p99-ingest" issue. 0 disables the check.
     */
    std::int64_t slo_p99_ingest_us = 0;

    /**
     * SLO: no live session may go longer than this many
     * milliseconds without ingest progress; beyond it the health
     * report turns degraded with one "slo-ingest-lag" issue per
     * lagging session. 0 disables the check. (Distinct from
     * idle_ttl_ms, which *finalizes* a quiet stream; the SLO only
     * reports.)
     */
    std::int64_t slo_max_lag_ms = 0;

    /**
     * Flight-recorder dump target: when non-empty, quarantining a
     * session dumps the recorder ring here (atomic temp+rename),
     * so the black box lands next to the incident that needs it.
     * The daemon's signal paths reuse the same file.
     */
    std::string flight_path;
};

/** Aggregate health verdict, worst issue wins. */
enum class HealthState : std::uint8_t {
    Ok,        ///< All SLOs met, nothing shed or quarantined.
    Degraded,  ///< Serving, but shedding or missing an SLO.
    Unhealthy, ///< Sessions quarantined; data is being lost.
};

/** Printable health-state name ("ok", "degraded", "unhealthy"). */
const char *healthStateName(HealthState state);

/** One concrete reason the fleet is not Ok. */
struct HealthIssue
{
    /** "quarantined" | "shed" | "slo-p99-ingest" |
     *  "slo-ingest-lag". */
    std::string kind;

    /** Affected session; empty for fleet-wide issues. */
    std::string session;

    /** Human detail ("p99 3200us over slo 1000us"). */
    std::string detail;
};

/**
 * The `--query health` document: a verdict plus every concrete
 * reason, so an operator (or an alerting rule) never has to infer
 * *why* from raw counters.
 */
struct HealthReport
{
    HealthState state = HealthState::Ok;

    /** Conservative p99 of `serve.ingest_chunk_us` (0 = no data). */
    double p99_ingest_us = 0.0;

    /** Worst live-session ingest lag and who owns it. */
    std::int64_t max_lag_ms = 0;
    std::string max_lag_session;

    std::vector<HealthIssue> issues;
};

class JournalWriter;

/** The daemon core: one session per spooled trace. */
class SessionManager
{
  public:
    explicit SessionManager(const ServeOptions &options);
    ~SessionManager();

    SessionManager(const SessionManager &) = delete;
    SessionManager &operator=(const SessionManager &) = delete;

    /**
     * One pass: discover new spool files, tail-poll every live
     * session concurrently, run capped finalizes, evict expired
     * sessions.
     * @return Sessions that made ingest progress this pass.
     */
    std::size_t poll();

    /** Copies of every session's status, discovery order. */
    std::vector<SessionStatus> sessions() const;

    /** Fleet-level tallies. */
    ServeStats stats() const;

    /**
     * Evaluate fleet health now: quarantined sessions make it
     * unhealthy; shed sessions or a violated SLO
     * (`slo_p99_ingest_us`, `slo_max_lag_ms`) degrade it; each
     * issue is enumerated with its session and detail. Lag is
     * measured on the injectable clock, so tests drive verdicts
     * deterministically.
     */
    HealthReport health() const;

    /**
     * The full status document: {"sessions":[...],
     * "phases":[...], "coverage":[...], "stats":{...},
     * "health":{...}}, without statusDocument()'s trailing
     * newline.
     */
    void writeStatusJson(std::ostream &out,
                         bool pretty = false) const;

    /**
     * The status document plus a trailing newline (the published
     * file's bytes), rendered into a buffer the manager owns and
     * reuses. Each session's "sessions", "phases" and "coverage"
     * elements come from a per-session cache that is re-rendered
     * only when the session's status (or @p pretty) differs from
     * the one it was rendered from; "stats" and "health" are
     * rendered fresh. The view is valid until the next call.
     */
    std::string_view statusDocument(bool pretty) const;

    /** The pool session work fans out on (owned or borrowed). */
    ThreadPool &pool() const { return *active_pool; }

    const ServeOptions &options() const { return opts; }

    /**
     * Flush every pending journal snapshot now — the graceful-
     * shutdown path (SIGTERM drain) calls this before the final
     * status publish. A no-op without a journal.
     * @return false when any append/flush failed.
     */
    bool commitJournal();

  private:
    struct Session;

    std::int64_t nowMs() const;
    void scanSpool(std::int64_t now);
    bool ingestOne(Session &session, std::int64_t now);
    void refreshLivePhases(Session &session);
    void finalizeOne(Session &session, std::int64_t now);
    void quarantine(Session &session, const std::string &why);
    void updateLagGauges(std::int64_t now);
    void recoverFromJournal(std::int64_t now);
    std::size_t liveCount() const;
    std::uint64_t liveBytes() const;
    bool admissible(std::uint64_t more_sessions) const;
    void journalPass();

    ServeOptions opts;
    std::unique_ptr<ThreadPool> owned_pool;
    ThreadPool *active_pool;
    std::vector<std::unique_ptr<Session>> all;
    std::uint64_t polls = 0;
    std::unique_ptr<JournalWriter> journal;
    std::size_t recovered_count = 0;

    /** statusDocument()'s reused output buffer (control thread). */
    mutable std::string status_buffer;
};

/**
 * Publish @p manager's statusDocument(true) to @p path via temp
 * file + atomic rename, hardened against publish failure: a failed
 * write or rename never throws, never leaves a stale `<path>.tmp`
 * behind, bumps the `serve.status_publish_errors` counter and
 * reports false so the caller simply retries next tick. Both steps
 * run through the io fail points "serve.status_write" /
 * "serve.status_rename".
 */
bool publishStatus(const SessionManager &manager,
                   const std::string &path,
                   std::string *error = nullptr);

/**
 * Remove a stale `<path>.tmp` left by a crash mid-publish; called
 * once at daemon startup. @return true when a stale temp existed.
 */
bool sweepStalePublish(const std::string &path);

/**
 * Publish the process metrics registry as OpenMetrics text
 * (rendered into a reused per-thread buffer) to @p path, same
 * atomic temp+rename discipline (and failure contract) as
 * publishStatus, through the "serve.metrics_write" /
 * "serve.metrics_rename" io fail points. The daemon calls this on
 * every publish tick right after the status document, so scrapers
 * always find the two in step.
 */
bool publishMetrics(const std::string &path,
                    std::string *error = nullptr);

/**
 * Extract one top-level section (e.g. "phases") from a status
 * document into @p out — the `--query` implementation. A
 * string-aware structural scan, not a JSON parser: it finds the
 * key at nesting depth 1 and copies its balanced value verbatim.
 * @return false when the key is absent or the document is
 *     malformed.
 */
bool extractStatusSection(std::string_view status_json,
                          std::string_view key, std::string *out);

} // namespace serve
} // namespace tpupoint

#endif // TPUPOINT_SERVE_SERVE_HH
