#include "serve/serve.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>

#include "core/interner.hh"
#include "core/io_faults.hh"
#include "core/json.hh"
#include "core/logging.hh"
#include "core/types.hh"
#include "obs/flight_recorder.hh"
#include "obs/logger.hh"
#include "obs/metrics.hh"
#include "obs/pool_metrics.hh"
#include "proto/columnar.hh"
#include "runtime/analysis_pipeline.hh"
#include "serve/journal.hh"
#include "trace/tail_reader.hh"

namespace tpupoint {
namespace serve {

namespace {

/** Per-chunk ingest latency: 8us .. ~67s in x2 buckets. */
obs::HistogramOptions
chunkLatencyBuckets()
{
    obs::HistogramOptions options;
    options.first_bound = 8;
    options.growth = 2;
    options.buckets = 23;
    return options;
}

std::int64_t
steadyNowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now()
                   .time_since_epoch())
        .count();
}

double
elapsedSeconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/** File stem: the session name and its metric label. */
std::string
sessionName(const std::string &filename, const std::string &suffix)
{
    return filename.substr(0, filename.size() - suffix.size());
}

bool
isLive(SessionState state)
{
    return state == SessionState::Discovering ||
        state == SessionState::Ingesting ||
        state == SessionState::Quiescent;
}

/**
 * Phase/coverage sections serve final answers *and* live streaming
 * snapshots: a live session appears as soon as its incremental
 * detector has phases, tagged exact=false with its staleness, and
 * is replaced in place by the exact batch entry at finalize.
 * `--query phases` therefore refuses neither mid-ingest nor
 * post-finalize.
 */
bool
phaseWorthy(const SessionStatus &status)
{
    if (status.state == SessionState::Finalized ||
        status.state == SessionState::Evicted)
        return true;
    return isLive(status.state) && !status.phases.empty();
}

} // namespace

const char *
sessionStateName(SessionState state)
{
    switch (state) {
      case SessionState::Discovering: return "discovering";
      case SessionState::Ingesting: return "ingesting";
      case SessionState::Quiescent: return "quiescent";
      case SessionState::Finalized: return "finalized";
      case SessionState::Evicted: return "evicted";
      case SessionState::Shed: return "shed";
      case SessionState::Quarantined: return "quarantined";
    }
    return "unknown";
}

const char *
healthStateName(HealthState state)
{
    switch (state) {
      case HealthState::Ok: return "ok";
      case HealthState::Degraded: return "degraded";
      case HealthState::Unhealthy: return "unhealthy";
    }
    return "unknown";
}

/**
 * One spooled trace. The compact `status` lives as long as the
 * manager; everything heavy sits behind `live` (while ingesting)
 * and `result` (while Finalized) so eviction can actually return
 * the memory.
 */
struct SessionManager::Session
{
    /** The heavy, evictable ingest state. */
    struct Live
    {
        Live(const std::string &path, bool salvage,
             const AnalyzerOptions &analyzer_options)
            : tail(path, salvage), analysis(analyzer_options)
        {
        }

        TailReader tail;
        AnalysisSession analysis;
        ColumnarDecoder decoder;
        ColumnarRecord scratch;
    };

    SessionStatus status;
    std::unique_ptr<Live> live;
    std::unique_ptr<AnalysisResult> result;
    std::int64_t last_progress_ms = 0;
    std::int64_t finalized_at_ms = 0;
    bool ready_to_finalize = false;

    /** Consecutive ingest failures (the quarantine watchdog). */
    std::uint64_t consecutive_errors = 0;

    /**
     * The status changed since its last journal snapshot. Set by
     * pool tasks (each owns its session exclusively), drained by
     * the control thread after the forEach barrier — never
     * concurrently touched.
     */
    bool journal_dirty = false;

    /** `serve.session_lag_ms{session=NAME}`; registered by the
     * control thread on its first lag update. */
    obs::Gauge *lag_gauge = nullptr;

    /**
     * This session's elements of the status document's
     * "sessions", "phases" and "coverage" arrays as last rendered,
     * with the status and pretty flag they were rendered from.
     * Touched only by the control thread's statusDocument().
     */
    struct Fragments
    {
        bool rendered = false;
        bool pretty = false;
        SessionStatus source;
        std::string session;
        std::string phases;   ///< Empty unless phaseWorthy().
        std::string coverage; ///< Empty unless phaseWorthy().

        /** Re-render when @p status or @p pretty_now differ from
         * the source; otherwise keep the cached bytes. */
        void refresh(const SessionStatus &status, bool pretty_now);
    };
    Fragments fragments;
};

/** A fragment's depth in the status document: root object, then
 * a section array. */
constexpr std::size_t kElementDepth = 2;

void
SessionManager::Session::Fragments::refresh(
    const SessionStatus &status, bool pretty_now)
{
    if (rendered && pretty == pretty_now && source == status)
        return;
    source = status;
    pretty = pretty_now;
    rendered = true;
    session.clear();
    {
        JsonWriter w(session, pretty_now, kElementDepth);
        w.beginObject();
        w.field("name", status.name);
        w.field("path", status.path);
        w.field("state", sessionStateName(status.state));
        w.field("pending", status.pending);
        w.field("complete", status.complete);
        w.field("records", status.records);
        w.field("events", status.events);
        w.field("bytes", status.bytes);
        w.field("chunks", status.chunks);
        w.field("chunks_dropped", status.chunks_dropped);
        w.field("bytes_skipped", status.bytes_skipped);
        w.field("records_dropped", status.records_dropped);
        w.field("decode_failures", status.decode_failures);
        if (!status.detector.empty())
            w.field("detector", status.detector);
        w.field("steps_behind", status.steps_behind);
        if (status.recovered)
            w.field("recovered", true);
        if (!status.error.empty())
            w.field("error", status.error);
        w.endObject();
    }
    phases.clear();
    coverage.clear();
    if (!phaseWorthy(status))
        return;
    const std::string &algorithm =
        status.algorithm.empty() ? status.detector : status.algorithm;
    {
        JsonWriter w(phases, pretty_now, kElementDepth);
        w.beginObject();
        w.field("name", status.name);
        w.field("algorithm", algorithm);
        w.field("exact", status.phases_exact);
        w.field("steps_behind", status.steps_behind);
        w.key("phases");
        w.beginArray();
        for (const PhaseSummary &phase : status.phases) {
            w.beginObject();
            w.field("id", phase.id);
            w.field("first_step", phase.first_step);
            w.field("last_step", phase.last_step);
            w.field("steps", phase.steps);
            w.field("duration_ms", phase.duration_ms);
            w.field("noise", phase.noise);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    {
        JsonWriter w(coverage, pretty_now, kElementDepth);
        w.beginObject();
        w.field("name", status.name);
        w.field("algorithm", algorithm);
        w.field("exact", status.phases_exact);
        w.field("steps_behind", status.steps_behind);
        w.field("steps", status.steps);
        w.field("phase_count",
                static_cast<std::uint64_t>(status.phases.size()));
        w.field("top3_coverage", status.top3_coverage);
        w.endObject();
    }
}

SessionManager::SessionManager(const ServeOptions &options)
    : opts(options)
{
    // Live phases ride on the analyzer's streaming mode; set it
    // before any session (including a recovered one) is built.
    if (opts.live_phases)
        opts.analyzer.streaming = true;
    if (opts.pool != nullptr) {
        active_pool = opts.pool;
    } else {
        ThreadPoolOptions pool_opts;
        pool_opts.workers = obs::resolveThreadCount(opts.threads);
        pool_opts.hooks = obs::instrumentedPoolHooks("serve");
        owned_pool = std::make_unique<ThreadPool>(pool_opts);
        active_pool = owned_pool.get();
    }
    if (!opts.journal_path.empty())
        recoverFromJournal(nowMs());
}

SessionManager::~SessionManager() = default;

std::int64_t
SessionManager::nowMs() const
{
    return opts.now_ms ? opts.now_ms() : steadyNowMs();
}

std::size_t
SessionManager::liveCount() const
{
    std::size_t live = 0;
    for (const auto &session : all)
        if (isLive(session->status.state))
            ++live;
    return live;
}

std::uint64_t
SessionManager::liveBytes() const
{
    std::uint64_t bytes = 0;
    for (const auto &session : all)
        if (isLive(session->status.state))
            bytes += session->status.bytes;
    return bytes;
}

bool
SessionManager::admissible(std::uint64_t more_sessions) const
{
    if (opts.max_sessions > 0 &&
        liveCount() + more_sessions > opts.max_sessions)
        return false;
    if (opts.max_inflight_bytes > 0 &&
        liveBytes() >= opts.max_inflight_bytes)
        return false;
    return true;
}

void
SessionManager::quarantine(Session &session,
                           const std::string &why)
{
    SessionStatus &status = session.status;
    status.state = SessionState::Quarantined;
    status.error = why;
    status.pending = false;
    // Provisional streaming phases die with the live state; a
    // quarantined session must not keep serving an estimate of a
    // stream it lost.
    status.phases.clear();
    status.top3_coverage = 0.0;
    status.steps_behind = 0;
    status.phases_exact = false;
    session.ready_to_finalize = false;
    session.live.reset();
    session.result.reset();
    session.journal_dirty = true;
    obs::MetricsRegistry::global()
        .counter("serve.sessions_quarantined")
        .add(1);
    obs::logWarn("serve", "session quarantined",
                 {{"session", status.name}, {"reason", why}});
    if (opts.flight_path.empty())
        return;
    // Quarantine is the incident the black box exists for: dump
    // the ring next to it. Pool tasks quarantine concurrently and
    // dump() shares one temp path, so serialize the dumps.
    static std::mutex dump_guard;
    std::lock_guard<std::mutex> lock(dump_guard);
    std::string dump_error;
    if (!obs::FlightRecorder::global().dump(
            opts.flight_path, "quarantine: " + status.name,
            &dump_error))
        obs::logWarn("serve", "flight dump failed",
                     {{"path", opts.flight_path},
                      {"error", dump_error}});
}

void
SessionManager::recoverFromJournal(std::int64_t now)
{
    JournalReplay replay;
    std::string why;
    if (!replayJournal(opts.journal_path, &replay, &why)) {
        // The operator pointed --journal at something that is not
        // ours. Refusing to append to (or compact over) a foreign
        // file beats destroying it: run un-journaled and say so.
        obs::logWarn("serve", "journal disabled",
                     {{"path", opts.journal_path},
                      {"error", why}});
        return;
    }
    if (replay.damaged)
        obs::logWarn(
            "serve",
            "journal replay stopped early; sessions past the "
            "damage re-ingest from spool",
            {{"path", opts.journal_path},
             {"detail", replay.detail}});

    auto &registry = obs::MetricsRegistry::global();
    for (SessionStatus &entry :
         foldJournalEntries(replay.entries)) {
        auto session = std::make_unique<Session>();
        entry.recovered = true;
        session->status = entry;
        session->last_progress_ms = now;
        // Derived fields the journal deliberately does not carry
        // (format v1): the configured detector, and exactness for
        // states whose phases are the batch answer.
        session->status.detector =
            phaseAlgorithmName(opts.analyzer.algorithm);
        if (entry.state == SessionState::Finalized ||
            entry.state == SessionState::Evicted) {
            session->status.phases_exact = true;
            session->status.steps_behind = 0;
        }

        const SessionState state = entry.state;
        if (isLive(state)) {
            // The analysis state (step table, phase builder) is
            // deliberately not journaled — it is large and
            // rebuildable. Replay the spool file up to the
            // committed offset into a fresh session, charging no
            // ingest metrics (those events were charged before the
            // crash), then verify the replay reproduced exactly
            // the journaled tallies.
            session->live = std::make_unique<Session::Live>(
                entry.path, opts.salvage, opts.analyzer);
            auto &live = *session->live;
            std::uint64_t replayed_records = 0;
            std::uint64_t replayed_events = 0;
            if (entry.bytes > 0)
                live.tail.poll(
                    [&](std::string_view payload) {
                        if (live.decoder.decode(
                                payload, live.scratch,
                                StringInterner::global())) {
                            live.analysis.ingest(live.scratch);
                            ++replayed_records;
                            replayed_events +=
                                live.scratch.event_count;
                        }
                    },
                    nullptr, entry.bytes);
            if (live.tail.bytesConsumed() != entry.bytes ||
                replayed_records != entry.records ||
                replayed_events != entry.events) {
                quarantine(
                    *session,
                    "recovery replay diverged from the journal "
                    "(spool file changed since the crash): "
                    "journaled " +
                        std::to_string(entry.bytes) + " bytes / " +
                        std::to_string(entry.records) +
                        " records, replayed " +
                        std::to_string(
                            live.tail.bytesConsumed()) +
                        " bytes / " +
                        std::to_string(replayed_records) +
                        " records");
            } else if (live.tail.complete() ||
                       state == SessionState::Quiescent) {
                session->ready_to_finalize = true;
            }
            // The replay re-fed the streaming detectors the exact
            // settled prefix the crashed process had observed, so
            // the refreshed snapshot (and steps_behind) matches
            // what the journal's writer was publishing.
            if (session->live)
                refreshLivePhases(*session);
        } else if (state == SessionState::Finalized) {
            // The heavy result object is gone; the summary in the
            // status answers every query. Restart the evict TTL.
            session->finalized_at_ms = now;
        }
        // Evicted / Shed / Quarantined restore from the journal
        // alone — no file I/O at all.

        registry.counter("serve.sessions_recovered").add(1);
        ++recovered_count;
        all.push_back(std::move(session));
    }

    journal = std::make_unique<JournalWriter>(opts.journal_path);
    if (!journal->open()) {
        obs::logWarn("serve", "journal open failed; running "
                              "un-journaled",
                     {{"path", opts.journal_path},
                      {"error", journal->error()}});
        journal.reset();
        return;
    }
    if (recovered_count > 0)
        obs::logInfo(
            "serve", "recovered sessions from journal",
            {{"sessions",
              static_cast<std::uint64_t>(recovered_count)},
             {"path", opts.journal_path}});
    // Compact immediately: folds the replayed history to one entry
    // per session and truncates any torn tail the crash left.
    if (!replay.entries.empty() || replay.damaged)
        journal->compact(sessions());
}

void
SessionManager::scanSpool(std::int64_t now)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::directory_iterator it(opts.spool_dir, ec);
    if (ec) {
        // Nothing to discover. The producer may create the spool
        // later, but a mistyped path never appears: say so, once
        // per interval rather than once per poll.
        static obs::LogSite missing_site(10000);
        obs::Logger::global().logLimited(
            missing_site, LogLevel::Warn, "serve",
            "cannot open spool directory",
            {{"path", opts.spool_dir}, {"error", ec.message()}});
        return;
    }
    std::vector<std::string> fresh;
    for (const auto &entry : it) {
        if (!entry.is_regular_file(ec) || ec)
            continue;
        const std::string filename =
            entry.path().filename().string();
        if (filename.size() <= opts.suffix.size() ||
            filename.compare(filename.size() - opts.suffix.size(),
                             opts.suffix.size(),
                             opts.suffix) != 0)
            continue;
        const std::string path = entry.path().string();
        const bool known = std::any_of(
            all.begin(), all.end(), [&path](const auto &session) {
                return session->status.path == path;
            });
        if (!known)
            fresh.push_back(path);
    }
    // Directory iteration order is filesystem-defined; sort so
    // discovery order (and every status dump) is deterministic.
    std::sort(fresh.begin(), fresh.end());

    auto &registry = obs::MetricsRegistry::global();
    const auto admit = [&](Session &session) {
        session.live = std::make_unique<Session::Live>(
            session.status.path, opts.salvage, opts.analyzer);
        session.status.state = SessionState::Discovering;
        session.status.error.clear();
        session.status.pending = true;
        session.status.detector =
            phaseAlgorithmName(opts.analyzer.algorithm);
        session.last_progress_ms = now;
        session.journal_dirty = true;
    };

    // Shed sessions were refused at the load limit, never started;
    // re-admit them in discovery order as capacity frees, before
    // anything newer gets a slot — deterministic FIFO fairness.
    for (const auto &session : all) {
        if (session->status.state != SessionState::Shed)
            continue;
        if (!admissible(1))
            break;
        admit(*session);
        registry.counter("serve.sessions_readmitted").add(1);
        obs::logInfo("serve", "shed session readmitted",
                     {{"session", session->status.name}});
    }

    for (const std::string &path : fresh) {
        auto session = std::make_unique<Session>();
        session->status.path = path;
        session->status.name = sessionName(
            std::filesystem::path(path).filename().string(),
            opts.suffix);
        session->status.detector =
            phaseAlgorithmName(opts.analyzer.algorithm);
        if (admissible(1)) {
            admit(*session);
            obs::logDebug("serve", "session discovered",
                          {{"session", session->status.name},
                           {"path", path}});
        } else {
            // Refuse at the door: an admitted session always runs
            // to completion, so overload only ever sheds work that
            // has not started.
            session->status.state = SessionState::Shed;
            session->status.error = "shed: admission limit";
            session->status.pending = false;
            session->journal_dirty = true;
            registry.counter("serve.sessions_shed").add(1);
            // A spool burst sheds many sessions in one poll; one
            // line per interval carries the count, not the spam.
            static obs::LogSite shed_site(1000);
            obs::Logger::global().logLimited(
                shed_site, LogLevel::Warn, "serve",
                "session shed at admission limit",
                {{"session", session->status.name},
                 {"live",
                  static_cast<std::uint64_t>(liveCount())}});
        }
        all.push_back(std::move(session));
        registry.counter("serve.sessions_discovered").add(1);
    }
}

bool
SessionManager::ingestOne(Session &session, std::int64_t now)
{
    auto &status = session.status;
    auto &registry = obs::MetricsRegistry::global();

    // One ingest error is transient (charged to the watchdog); a
    // run of `quarantine_errors` consecutive ones parks the
    // session so it cannot poison every subsequent poll.
    const auto ingestFailed = [&](const std::string &why) {
        ++session.consecutive_errors;
        status.error = why;
        session.journal_dirty = true;
        registry.counter("serve.ingest_errors").add(1);
        if (opts.quarantine_errors > 0 &&
            session.consecutive_errors >= opts.quarantine_errors)
            quarantine(session, why);
        return false;
    };

    const io::FaultKind fault =
        io::FaultInjector::global().sample("serve.spool_read");
    if (fault != io::FaultKind::None)
        return ingestFailed(std::string("injected ") +
                            io::faultKindName(fault) +
                            " reading spool file");

    const SessionState state_before = status.state;
    const bool ready_before = session.ready_to_finalize;
    try {
        auto &live = *session.live;
        auto &chunk_latency = registry.histogram(
            "serve.ingest_chunk_us", chunkLatencyBuckets());

        const auto poll_start = std::chrono::steady_clock::now();
        auto chunk_mark = poll_start;
        std::uint64_t events_delta = 0;

        const TailPoll pass = live.tail.poll(
            [&](std::string_view payload) {
                if (live.decoder.decode(payload, live.scratch,
                                        StringInterner::global())) {
                    live.analysis.ingest(live.scratch);
                    ++status.records;
                    status.events += live.scratch.event_count;
                    events_delta += live.scratch.event_count;
                } else {
                    ++status.decode_failures;
                }
            },
            [&](std::size_t) {
                const auto chunk_done =
                    std::chrono::steady_clock::now();
                chunk_latency.observe(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::microseconds>(chunk_done -
                                                   chunk_mark)
                        .count()));
                chunk_mark = chunk_done;
            });

        status.bytes = live.tail.bytesConsumed();
        status.chunks = live.tail.chunksConsumed();
        status.chunks_dropped = live.tail.chunksDropped();
        status.bytes_skipped = live.tail.bytesSkipped();
        status.records_dropped = live.tail.recordsDropped();
        if (!live.tail.error().empty())
            status.error = live.tail.error();
        status.complete = live.tail.complete();
        status.pending = status.records == 0 &&
            !status.complete && !live.tail.damaged();
        session.consecutive_errors = 0;

        const bool progressed = pass.bytes > 0;
        if (progressed) {
            session.last_progress_ms = now;
            if (status.state == SessionState::Discovering ||
                status.state == SessionState::Quiescent)
                status.state = SessionState::Ingesting;
            registry.counter("serve.records_ingested")
                .add(pass.records);
            runtime::chargeIngestMetrics(
                status.name, events_delta, pass.bytes,
                elapsedSeconds(poll_start));
        }

        if (progressed)
            refreshLivePhases(session);

        if (status.complete || live.tail.damaged()) {
            session.ready_to_finalize = true;
        } else if (!progressed && opts.idle_ttl_ms >= 0 &&
                   now - session.last_progress_ms >=
                       opts.idle_ttl_ms) {
            // The writer went quiet past the TTL: declare the
            // stream dead and analyze what salvage recovered.
            status.state = SessionState::Quiescent;
            session.ready_to_finalize = true;
        }
        if (progressed || status.state != state_before ||
            session.ready_to_finalize != ready_before)
            session.journal_dirty = true;
        return progressed;
    } catch (const std::exception &e) {
        return ingestFailed(std::string("ingest failed: ") +
                            e.what());
    }
}

void
SessionManager::refreshLivePhases(Session &session)
{
    if (!opts.analyzer.streaming || session.live == nullptr)
        return;
    const PartialResult partial =
        session.live->analysis.partialResult();
    SessionStatus &status = session.status;
    status.steps = partial.steps_aggregated;
    status.steps_behind = partial.steps_behind;
    status.phases_exact = false;
    if (partial.snapshots.empty())
        return;
    // The primary algorithm's snapshot is what the status document
    // serves, mirroring how finalize's flat fields track the
    // primary detector.
    const StreamingSnapshot &primary = partial.snapshots.front();
    status.top3_coverage = primary.top3_coverage;
    status.phases.clear();
    status.phases.reserve(primary.phases.size());
    for (const StreamingPhase &phase : primary.phases) {
        PhaseSummary summary;
        summary.id = phase.id;
        summary.first_step = phase.first_step;
        summary.last_step = phase.last_step;
        summary.steps = phase.steps;
        summary.duration_ms =
            static_cast<double>(phase.duration) / kMsec;
        summary.noise = phase.noise;
        status.phases.push_back(summary);
    }
}

void
SessionManager::finalizeOne(Session &session, std::int64_t now)
try {
    auto &status = session.status;
    auto result = std::make_unique<AnalysisResult>(
        session.live->analysis.finalize({}, *active_pool));

    status.algorithm = phaseAlgorithmName(result->algorithm);
    status.steps = result->table.size();
    status.top3_coverage = result->top3_coverage;
    status.phases.clear();
    status.phases.reserve(result->phases.size());
    for (const Phase &phase : result->phases) {
        PhaseSummary summary;
        summary.id = phase.id;
        summary.first_step = phase.first_step;
        summary.last_step = phase.last_step;
        summary.steps = phase.size();
        summary.duration_ms =
            static_cast<double>(phase.total_duration) / kMsec;
        summary.noise = phase.is_noise;
        status.phases.push_back(summary);
    }
    if (status.records == 0 && status.error.empty())
        status.error = "stream ended with no records";
    status.pending = false;
    status.state = SessionState::Finalized;
    status.steps_behind = 0;
    status.phases_exact = true;

    session.result = std::move(result);
    session.live.reset(); // Tail buffers + builder released now.
    session.finalized_at_ms = now;
    session.ready_to_finalize = false;
    session.journal_dirty = true;
    obs::MetricsRegistry::global()
        .counter("serve.sessions_finalized")
        .add(1);
    obs::logInfo("serve", "session finalized",
                 {{"session", status.name},
                  {"records", status.records},
                  {"phases", static_cast<std::uint64_t>(
                                 status.phases.size())}});
} catch (const std::exception &e) {
    // A finalize that throws must not take the daemon (or the
    // pool task running it) down: isolate the session.
    quarantine(session, std::string("finalize failed: ") +
                            e.what());
}

std::size_t
SessionManager::poll()
{
    const std::int64_t now = nowMs();
    ++polls;
    scanSpool(now);

    std::vector<Session *> active;
    for (const auto &session : all)
        if (isLive(session->status.state) &&
            !session->ready_to_finalize)
            active.push_back(session.get());
    std::atomic<std::size_t> progressed{0};
    active_pool->forEach(
        active.size(),
        [&](std::size_t i) {
            if (ingestOne(*active[i], now))
                progressed.fetch_add(1,
                                     std::memory_order_relaxed);
        },
        "serve.ingest");

    std::vector<Session *> ready;
    for (const auto &session : all)
        if (session->ready_to_finalize)
            ready.push_back(session.get());
    if (opts.max_finalizes_per_poll > 0 &&
        ready.size() > opts.max_finalizes_per_poll)
        ready.resize(opts.max_finalizes_per_poll);
    active_pool->forEach(
        ready.size(),
        [&](std::size_t i) { finalizeOne(*ready[i], now); },
        "serve.finalize");

    for (const auto &session : all) {
        if (session->status.state != SessionState::Finalized ||
            opts.evict_ttl_ms < 0)
            continue;
        if (now - session->finalized_at_ms < opts.evict_ttl_ms)
            continue;
        session->result.reset();
        session->status.state = SessionState::Evicted;
        session->journal_dirty = true;
        obs::MetricsRegistry::global()
            .counter("serve.sessions_evicted")
            .add(1);
    }

    updateLagGauges(now);
    journalPass();

    // One compact snapshot per poll gives the flight recorder a
    // metrics timeline alongside the event log — cheap (one ring
    // slot) and only when the black box is armed.
    obs::FlightRecorder &flight = obs::FlightRecorder::global();
    if (flight.enabled())
        flight.recordSnapshot(
            obs::MetricsRegistry::global().snapshot());
    return progressed.load(std::memory_order_relaxed);
}

void
SessionManager::journalPass()
{
    if (journal == nullptr)
        return;
    commitJournal();
    if (journal->size() > opts.journal_compact_bytes)
        journal->compact(sessions());
}

bool
SessionManager::commitJournal()
{
    if (journal == nullptr)
        return true;
    bool ok = true;
    bool wrote = false;
    for (const auto &session : all) {
        if (!session->journal_dirty)
            continue;
        // A failed append leaves the session dirty: the journal
        // lags reality (safe — recovery re-ingests the gap) and
        // the snapshot is retried next pass.
        if (journal->append(session->status)) {
            session->journal_dirty = false;
            wrote = true;
        } else {
            ok = false;
        }
    }
    if (wrote && !journal->commit())
        ok = false;
    return ok;
}

std::vector<SessionStatus>
SessionManager::sessions() const
{
    std::vector<SessionStatus> out;
    out.reserve(all.size());
    for (const auto &session : all)
        out.push_back(session->status);
    return out;
}

ServeStats
SessionManager::stats() const
{
    ServeStats out;
    out.polls = polls;
    out.sessions = all.size();
    for (const auto &session : all) {
        const SessionStatus &status = session->status;
        switch (status.state) {
          case SessionState::Discovering: ++out.discovering; break;
          case SessionState::Ingesting: ++out.ingesting; break;
          case SessionState::Quiescent: ++out.quiescent; break;
          case SessionState::Finalized: ++out.finalized; break;
          case SessionState::Evicted: ++out.evicted; break;
          case SessionState::Shed: ++out.shed; break;
          case SessionState::Quarantined:
            ++out.quarantined;
            break;
        }
        out.records += status.records;
        out.events += status.events;
        out.bytes += status.bytes;
    }
    out.recovered = recovered_count;
    return out;
}

void
SessionManager::updateLagGauges(std::int64_t now)
{
    auto &registry = obs::MetricsRegistry::global();
    std::int64_t max_lag = 0;
    for (const auto &session : all) {
        // A non-live session is by definition not lagging; pinning
        // its gauge to zero (instead of leaving the last live
        // value) keeps scrapes from alerting on finished work.
        const std::int64_t lag = isLive(session->status.state)
            ? now - session->last_progress_ms
            : 0;
        if (session->lag_gauge == nullptr)
            session->lag_gauge =
                &registry.gauge("serve.session_lag_ms{session=" +
                                session->status.name + "}");
        session->lag_gauge->set(lag);
        max_lag = std::max(max_lag, lag);
    }
    // The fleet staleness figure a single alert rule can watch:
    // how far behind its slowest live stream the daemon is.
    registry.gauge("serve.ingest_lag_max_ms").set(max_lag);
}

HealthReport
SessionManager::health() const
{
    const std::int64_t now = nowMs();

    HealthReport report;
    const auto degrade = [&](HealthState at_least) {
        if (report.state < at_least)
            report.state = at_least;
    };

    for (const auto &session : all) {
        const SessionStatus &status = session->status;
        if (status.state == SessionState::Quarantined) {
            degrade(HealthState::Unhealthy);
            report.issues.push_back(
                {"quarantined", status.name, status.error});
            continue;
        }
        if (status.state == SessionState::Shed) {
            degrade(HealthState::Degraded);
            report.issues.push_back(
                {"shed", status.name, status.error});
            continue;
        }
        if (!isLive(status.state))
            continue;
        const std::int64_t lag = now - session->last_progress_ms;
        if (lag > report.max_lag_ms) {
            report.max_lag_ms = lag;
            report.max_lag_session = status.name;
        }
        if (opts.slo_max_lag_ms > 0 && lag > opts.slo_max_lag_ms) {
            degrade(HealthState::Degraded);
            report.issues.push_back(
                {"slo-ingest-lag", status.name,
                 "no ingest progress for " + std::to_string(lag) +
                     "ms (slo " +
                     std::to_string(opts.slo_max_lag_ms) + "ms)"});
        }
    }

    const obs::Histogram *chunk_latency =
        obs::MetricsRegistry::global().findHistogram(
            "serve.ingest_chunk_us");
    if (chunk_latency != nullptr && chunk_latency->count() > 0)
        report.p99_ingest_us =
            obs::histogramQuantile(chunk_latency->data(), 0.99);
    if (opts.slo_p99_ingest_us > 0 &&
        report.p99_ingest_us >
            static_cast<double>(opts.slo_p99_ingest_us)) {
        degrade(HealthState::Degraded);
        report.issues.push_back(
            {"slo-p99-ingest", "",
             "ingest chunk p99 " +
                 std::to_string(static_cast<std::int64_t>(
                     report.p99_ingest_us)) +
                 "us over slo " +
                 std::to_string(opts.slo_p99_ingest_us) + "us"});
    }
    return report;
}

void
SessionManager::writeStatusJson(std::ostream &out,
                                bool pretty) const
{
    const std::string_view document = statusDocument(pretty);
    out.write(document.data(),
              static_cast<std::streamsize>(document.size() - 1));
}

std::string_view
SessionManager::statusDocument(bool pretty) const
{
    for (const auto &session : all)
        session->fragments.refresh(session->status, pretty);

    status_buffer.clear();
    {
        JsonWriter w(status_buffer, pretty);
        w.beginObject();

        w.key("sessions");
        w.beginArray();
        for (const auto &session : all)
            w.rawValue(session->fragments.session);
        w.endArray();

        w.key("phases");
        w.beginArray();
        for (const auto &session : all)
            if (!session->fragments.phases.empty())
                w.rawValue(session->fragments.phases);
        w.endArray();

        w.key("coverage");
        w.beginArray();
        for (const auto &session : all)
            if (!session->fragments.coverage.empty())
                w.rawValue(session->fragments.coverage);
        w.endArray();

        const ServeStats tallies = stats();
        w.key("stats");
        w.beginObject();
        w.field("polls", tallies.polls);
        w.field("sessions",
                static_cast<std::uint64_t>(tallies.sessions));
        w.field("discovering",
                static_cast<std::uint64_t>(tallies.discovering));
        w.field("ingesting",
                static_cast<std::uint64_t>(tallies.ingesting));
        w.field("quiescent",
                static_cast<std::uint64_t>(tallies.quiescent));
        w.field("finalized",
                static_cast<std::uint64_t>(tallies.finalized));
        w.field("evicted",
                static_cast<std::uint64_t>(tallies.evicted));
        w.field("shed", static_cast<std::uint64_t>(tallies.shed));
        w.field("quarantined",
                static_cast<std::uint64_t>(tallies.quarantined));
        w.field("recovered",
                static_cast<std::uint64_t>(tallies.recovered));
        w.field("records", tallies.records);
        w.field("events", tallies.events);
        w.field("bytes", tallies.bytes);
        w.endObject();

        const HealthReport verdict = health();
        w.key("health");
        w.beginObject();
        w.field("state", healthStateName(verdict.state));
        w.field("p99_ingest_us", verdict.p99_ingest_us);
        w.field("max_lag_ms", verdict.max_lag_ms);
        if (!verdict.max_lag_session.empty())
            w.field("max_lag_session", verdict.max_lag_session);
        w.key("issues");
        w.beginArray();
        for (const HealthIssue &issue : verdict.issues) {
            w.beginObject();
            w.field("kind", issue.kind);
            if (!issue.session.empty())
                w.field("session", issue.session);
            w.field("detail", issue.detail);
            w.endObject();
        }
        w.endArray();
        w.endObject();

        w.endObject();
    }
    status_buffer += '\n';
    return status_buffer;
}

bool
extractStatusSection(std::string_view status_json,
                     std::string_view key, std::string *out)
{
    std::size_t i = 0;
    const std::size_t n = status_json.size();
    const auto skipWs = [&] {
        while (i < n &&
               (status_json[i] == ' ' ||
                status_json[i] == '\t' ||
                status_json[i] == '\n' ||
                status_json[i] == '\r'))
            ++i;
    };
    // Skip a string literal; i sits on the opening quote.
    const auto skipString = [&]() -> bool {
        ++i;
        while (i < n) {
            if (status_json[i] == '\\')
                i += 2;
            else if (status_json[i] == '"') {
                ++i;
                return true;
            } else
                ++i;
        }
        return false;
    };
    // Skip one complete value; i sits on its first byte.
    const std::function<bool()> skipValue = [&]() -> bool {
        skipWs();
        if (i >= n)
            return false;
        const char c = status_json[i];
        if (c == '"')
            return skipString();
        if (c == '{' || c == '[') {
            // Balanced scan; container-kind mismatches are the
            // validator's job, not this scanner's.
            std::size_t depth = 0;
            while (i < n) {
                const char d = status_json[i];
                if (d == '"') {
                    if (!skipString())
                        return false;
                    continue;
                }
                if (d == '{' || d == '[')
                    ++depth;
                else if (d == '}' || d == ']') {
                    --depth;
                    if (depth == 0) {
                        ++i;
                        return true;
                    }
                }
                ++i;
            }
            return false;
        }
        // Primitive: run to the next structural byte.
        while (i < n && status_json[i] != ',' &&
               status_json[i] != '}' && status_json[i] != ']')
            ++i;
        return true;
    };

    skipWs();
    if (i >= n || status_json[i] != '{')
        return false;
    ++i;
    for (;;) {
        skipWs();
        if (i >= n)
            return false;
        if (status_json[i] == '}')
            return false; // Key absent.
        if (status_json[i] != '"')
            return false;
        const std::size_t key_begin = i + 1;
        if (!skipString())
            return false;
        const std::string_view found = status_json.substr(
            key_begin, i - 1 - key_begin);
        skipWs();
        if (i >= n || status_json[i] != ':')
            return false;
        ++i;
        skipWs();
        if (found == key) {
            const std::size_t value_begin = i;
            if (!skipValue())
                return false;
            out->assign(status_json.substr(
                value_begin, i - value_begin));
            return true;
        }
        if (!skipValue())
            return false;
        skipWs();
        if (i < n && status_json[i] == ',')
            ++i;
    }
}

bool
publishStatus(const SessionManager &manager,
              const std::string &path, std::string *error)
{
    const std::string tmp = path + ".tmp";
    std::string why;
    bool ok = io::writeFileWithFaults(
        "serve.status_write", tmp,
        manager.statusDocument(/*pretty=*/true), &why);
    if (ok &&
        !io::renameWithFaults("serve.status_rename", tmp, path,
                              &why))
        ok = false;
    if (!ok) {
        // Failure is a retry-next-tick event, never a crash, and
        // never leaves a half-written temp to confuse readers.
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        obs::MetricsRegistry::global()
            .counter("serve.status_publish_errors")
            .add(1);
        if (error != nullptr)
            *error = why;
        return false;
    }
    return true;
}

bool
sweepStalePublish(const std::string &path)
{
    std::error_code ec;
    return std::filesystem::remove(path + ".tmp", ec) && !ec;
}

bool
publishMetrics(const std::string &path, std::string *error)
{
    // One exposition buffer per publishing thread, reused every
    // tick.
    thread_local std::string text;
    obs::MetricsRegistry::global().writeOpenMetrics(text);

    const std::string tmp = path + ".tmp";
    std::string why;
    bool ok = io::writeFileWithFaults("serve.metrics_write", tmp,
                                      text, &why);
    if (ok &&
        !io::renameWithFaults("serve.metrics_rename", tmp, path,
                              &why))
        ok = false;
    if (!ok) {
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        obs::MetricsRegistry::global()
            .counter("serve.metrics_publish_errors")
            .add(1);
        if (error != nullptr)
            *error = why;
        return false;
    }
    return true;
}

} // namespace serve
} // namespace tpupoint
