/**
 * @file
 * `tpupoint-serve`: the long-running ingest daemon. Points at a
 * spool directory that recording threads write profile streams
 * into, tail-follows every stream as it grows (salvage-tolerant:
 * a torn tail is "pending", not "broken"), runs one incremental
 * analysis session per trace on a shared thread pool, and
 * publishes a JSON status document that `--query` reads back out
 * while ingest is still live.
 *
 * Daemon mode:
 *   tpupoint-serve --spool DIR --status-out status.json
 * Crash-safe daemon (restart resumes where the last run left off):
 *   tpupoint-serve --spool DIR --journal serve.journal ...
 * Black box + scrape endpoint:
 *   tpupoint-serve --spool DIR --status-out status.json \
 *       --flight-out serve.flight.json
 *   (SIGUSR2 dumps the flight ring on demand; a crash signal or
 *   quarantine dumps it automatically; status.json.metrics carries
 *   the OpenMetrics exposition, refreshed atomically every tick.)
 * Query mode (against a running daemon's published files):
 *   tpupoint-serve --query phases --status status.json
 *   (phases/coverage answer mid-ingest with live streaming
 *   snapshots — each entry carries `exact` and `steps_behind` so
 *   readers can tell a snapshot from a finalized answer; pass
 *   --no-live-phases to the daemon to restore finalize-only
 *   answers)
 *   tpupoint-serve --query health --status status.json
 *   tpupoint-serve --query metrics --status status.json
 *
 * Run with --help for the full flag list.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "core/io_faults.hh"
#include "core/json.hh"
#include "core/strings.hh"
#include "obs/flight_recorder.hh"
#include "obs/logger.hh"
#include "obs/metrics.hh"
#include "serve/serve.hh"
#include "tools/cli_common.hh"

using namespace tpupoint;

namespace {

/**
 * The only thing a signal handler may touch. Everything else —
 * logging, the final journal commit, the status publish — happens
 * on the main loop after it observes the flag; nothing
 * async-signal-unsafe runs in signal context.
 */
volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

/**
 * On-demand black box: SIGUSR2 dumps the flight ring to the
 * registered path without stopping the daemon. signalSafeDump()
 * keeps to open/write/fsync/close on pre-serialized bytes, so the
 * whole handler is async-signal-safe.
 */
void
onDumpRequest(int)
{
    obs::FlightRecorder::global().signalSafeDump();
}

/**
 * Fatal-signal path: salvage the flight ring, then re-raise with
 * the default disposition so the process still dies with the
 * original signal (exit status, core file and all).
 */
void
onCrash(int sig)
{
    obs::FlightRecorder::global().signalSafeDump();
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

void
installSignalHandlers(bool flight_armed)
{
#if defined(_WIN32)
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    if (flight_armed)
        std::signal(SIGSEGV, onCrash);
#else
    // sigaction without SA_RESTART: a delivered signal interrupts
    // the sleep slice (EINTR) so shutdown is prompt even mid-wait.
    struct sigaction action = {};
    action.sa_handler = onSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
    if (!flight_armed) {
        // No dump path registered: SIGUSR2 would be a silent
        // no-op, and the default disposition (terminate) is more
        // honest than swallowing it.
        return;
    }
    struct sigaction dump = {};
    dump.sa_handler = onDumpRequest;
    sigemptyset(&dump.sa_mask);
    dump.sa_flags = SA_RESTART; // A dump must not abort a sleep.
    sigaction(SIGUSR2, &dump, nullptr);

    struct sigaction crash = {};
    crash.sa_handler = onCrash;
    sigemptyset(&crash.sa_mask);
    crash.sa_flags = 0;
    sigaction(SIGSEGV, &crash, nullptr);
    sigaction(SIGBUS, &crash, nullptr);
    sigaction(SIGILL, &crash, nullptr);
    sigaction(SIGFPE, &crash, nullptr);
    sigaction(SIGABRT, &crash, nullptr);
#endif
}

/**
 * `--query metrics`: print the daemon's OpenMetrics exposition.
 * Not a status-document section — it is the sibling file the
 * daemon publishes next to the status doc every tick — so it only
 * gets a cheap structural check (the `# EOF` terminator proves the
 * atomic rename completed) rather than JSON validation.
 */
int
runMetricsQuery(const std::string &metrics_path)
{
    std::ifstream in(metrics_path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr,
                     "error: no metrics file '%s' (is the daemon "
                     "running with --status-out?)\n",
                     metrics_path.c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const std::string exposition = text.str();
    if (exposition.find("# EOF") == std::string::npos) {
        std::fprintf(stderr,
                     "error: metrics file '%s' is truncated (no "
                     "# EOF terminator)\n",
                     metrics_path.c_str());
        return 1;
    }
    std::fputs(exposition.c_str(), stdout);
    return 0;
}

int
runQuery(const std::string &query, const std::string &status_path,
         const std::string &openmetrics_path)
{
    if (query != "phases" && query != "coverage" &&
        query != "sessions" && query != "stats" &&
        query != "health" && query != "metrics") {
        std::fprintf(stderr,
                     "unknown query '%s' (want phases|coverage|"
                     "sessions|stats|health|metrics)\n",
                     query.c_str());
        return 2;
    }
    if (status_path.empty() &&
        (query != "metrics" || openmetrics_path.empty())) {
        std::fprintf(stderr,
                     "--query wants --status PATH (the daemon's "
                     "--status-out file)\n");
        return 2;
    }
    if (query == "metrics")
        return runMetricsQuery(openmetrics_path.empty()
                                   ? status_path + ".metrics"
                                   : openmetrics_path);
    std::ifstream in(status_path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr,
                     "error: no status file '%s' (is the daemon "
                     "running with --status-out?)\n",
                     status_path.c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const std::string status = text.str();
    std::string section;
    if (!serve::extractStatusSection(status, query, &section)) {
        std::fprintf(stderr,
                     "error: status file '%s' has no '%s' "
                     "section\n",
                     status_path.c_str(), query.c_str());
        return 1;
    }
    std::string why;
    if (!validateJson(section, &why)) {
        std::fprintf(stderr,
                     "error: status section '%s' is not valid "
                     "JSON: %s\n",
                     query.c_str(), why.c_str());
        return 1;
    }
    std::printf("%s\n", section.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServeOptions serve_options;
    std::string status_out;
    std::string openmetrics_path;
    std::string metrics_out;
    std::string trace_out;
    std::string stop_file;
    std::string query;
    std::string status_in;
    std::int64_t poll_ms = 200;
    std::int64_t run_for_ms = -1;
    bool once = false;
    bool drain = false;

    cli::FlagParser parser("tpupoint-serve", "");
    parser.option("--spool", "DIR",
                  "spool directory to watch for *.tpp streams",
                  [&](const char *value) {
                      serve_options.spool_dir = value;
                      return true;
                  });
    parser.option("--suffix", "S",
                  "trace filename suffix (default .tpp)",
                  [&](const char *value) {
                      serve_options.suffix = value;
                      return true;
                  });
    parser.option("--status-out", "PATH",
                  "publish the status document here after every "
                  "poll (atomic rename)",
                  [&](const char *value) {
                      status_out = value;
                      return true;
                  });
    parser.option("--poll-ms", "N",
                  "delay between spool polls (default 200)",
                  [&](const char *value) {
                      return cli::parseInt("--poll-ms", value, 0,
                                           3600 * 1000, &poll_ms);
                  });
    parser.option("--idle-ttl-ms", "N",
                  "finalize a stream after this long with no "
                  "growth (default 2000)",
                  [&](const char *value) {
                      return cli::parseInt(
                          "--idle-ttl-ms", value, 0,
                          std::numeric_limits<
                              std::int32_t>::max(),
                          &serve_options.idle_ttl_ms);
                  });
    parser.option("--evict-ttl-ms", "N",
                  "release a finalized session's memory after "
                  "this long (default 10000; -1 = never)",
                  [&](const char *value) {
                      return cli::parseInt(
                          "--evict-ttl-ms", value, -1,
                          std::numeric_limits<
                              std::int32_t>::max(),
                          &serve_options.evict_ttl_ms);
                  });
    parser.option("--max-finalizes", "N",
                  "finalizes run per poll at most (default 4)",
                  [&](const char *value) {
                      std::uint64_t parsed = 0;
                      if (!cli::parseUint("--max-finalizes", value,
                                          1024, &parsed))
                          return false;
                      serve_options.max_finalizes_per_poll =
                          static_cast<std::size_t>(parsed);
                      return true;
                  });
    parser.option("--algorithm", "ols|kmeans|dbscan",
                  "phase detector for every session "
                  "(default ols)",
                  [&](const char *value) {
                      if (!cli::parseAlgorithm(
                              value,
                              &serve_options.analyzer
                                   .algorithm)) {
                          std::fprintf(stderr,
                                       "unknown algorithm\n");
                          return false;
                      }
                      return true;
                  });
    parser.toggle("--no-live-phases",
                  "disable incremental phase detection: phases "
                  "and coverage appear only after finalize",
                  [&]() { serve_options.live_phases = false; });
    parser.toggle("--no-salvage",
                  "strict tail reads: structural damage parks the "
                  "session instead of resynchronizing",
                  [&]() { serve_options.salvage = false; });
    parser.option("--journal", "PATH",
                  "durable session journal: restart resumes every "
                  "session from its committed offset",
                  [&](const char *value) {
                      serve_options.journal_path = value;
                      return true;
                  });
    parser.option("--journal-compact-bytes", "N",
                  "compact the journal once it outgrows this "
                  "(default 1048576)",
                  [&](const char *value) {
                      return cli::parseUint(
                          "--journal-compact-bytes", value,
                          std::numeric_limits<
                              std::uint64_t>::max(),
                          &serve_options.journal_compact_bytes);
                  });
    parser.option("--max-sessions", "N",
                  "admit at most N live sessions; excess spool "
                  "files are shed until capacity frees "
                  "(default 0 = unlimited)",
                  [&](const char *value) {
                      std::uint64_t parsed = 0;
                      if (!cli::parseUint("--max-sessions", value,
                                          1u << 20, &parsed))
                          return false;
                      serve_options.max_sessions =
                          static_cast<std::size_t>(parsed);
                      return true;
                  });
    parser.option("--max-inflight-bytes", "N",
                  "shed new sessions while live sessions hold at "
                  "least N ingested bytes (default 0 = unlimited)",
                  [&](const char *value) {
                      return cli::parseUint(
                          "--max-inflight-bytes", value,
                          std::numeric_limits<
                              std::uint64_t>::max(),
                          &serve_options.max_inflight_bytes);
                  });
    parser.option("--openmetrics", "PATH",
                  "OpenMetrics text exposition path: the daemon "
                  "rewrites it atomically every tick, --query "
                  "metrics reads it (default <status>.metrics)",
                  [&](const char *value) {
                      openmetrics_path = value;
                      return true;
                  });
    parser.option("--flight-out", "PATH",
                  "arm the flight recorder and dump its ring here "
                  "on quarantine, fatal signal, SIGUSR2 and "
                  "shutdown",
                  [&](const char *value) {
                      serve_options.flight_path = value;
                      return true;
                  });
    parser.option("--slo-p99-ingest-us", "N",
                  "health degrades when the ingest-chunk p99 "
                  "exceeds N microseconds (default 0 = off)",
                  [&](const char *value) {
                      return cli::parseInt(
                          "--slo-p99-ingest-us", value, 0,
                          std::numeric_limits<
                              std::int32_t>::max(),
                          &serve_options.slo_p99_ingest_us);
                  });
    parser.option("--slo-max-lag-ms", "N",
                  "health degrades when a live session goes N ms "
                  "without ingest progress (default 0 = off)",
                  [&](const char *value) {
                      return cli::parseInt(
                          "--slo-max-lag-ms", value, 0,
                          std::numeric_limits<
                              std::int32_t>::max(),
                          &serve_options.slo_max_lag_ms);
                  });
    parser.option("--quarantine-errors", "N",
                  "quarantine a session after N consecutive "
                  "ingest errors (default 3; 0 = never)",
                  [&](const char *value) {
                      return cli::parseUint(
                          "--quarantine-errors", value, 1u << 20,
                          &serve_options.quarantine_errors);
                  });
    parser.option("--io-fault", "SPEC",
                  "inject host-I/O faults, e.g. "
                  "serve.status_write=enospc@2 (testing)",
                  [&](const char *value) {
                      std::string why;
                      if (!io::FaultInjector::global().configure(
                              value, &why)) {
                          std::fprintf(stderr, "--io-fault: %s\n",
                                       why.c_str());
                          return false;
                      }
                      return true;
                  });
    parser.option("--io-fault-seed", "N",
                  "seed for rate-based injected faults",
                  [&](const char *value) {
                      std::uint64_t seed = 0;
                      if (!cli::parseUint(
                              "--io-fault-seed", value,
                              std::numeric_limits<
                                  std::uint64_t>::max(),
                              &seed))
                          return false;
                      io::FaultInjector::global().setSeed(seed);
                      return true;
                  });
    cli::addThreadsFlag(parser, &serve_options.threads);
    parser.option("--run-for-ms", "N",
                  "exit cleanly after this long (default: run "
                  "until signaled)",
                  [&](const char *value) {
                      return cli::parseInt(
                          "--run-for-ms", value, 0,
                          std::numeric_limits<
                              std::int32_t>::max(),
                          &run_for_ms);
                  });
    parser.toggle("--once", "one poll pass, then exit",
                  [&]() { once = true; });
    parser.toggle("--drain",
                  "exit once every discovered session is "
                  "finalized or evicted",
                  [&]() { drain = true; });
    parser.option("--stop-file", "PATH",
                  "exit cleanly once this file exists",
                  [&](const char *value) {
                      stop_file = value;
                      return true;
                  });
    parser.option("--query", "SECTION",
                  "query mode: print one published section "
                  "(phases|coverage|sessions|stats|health|"
                  "metrics) and exit",
                  [&](const char *value) {
                      query = value;
                      return true;
                  });
    parser.option("--status", "PATH",
                  "status file to query (the daemon's "
                  "--status-out)",
                  [&](const char *value) {
                      status_in = value;
                      return true;
                  });
    parser.option("--trace-out", "PATH",
                  "write the daemon's own wall-time spans as "
                  "trace-event JSON",
                  [&](const char *value) {
                      trace_out = value;
                      return true;
                  });
    parser.option("--metrics-out", "PATH",
                  "write the process metrics registry as JSON on "
                  "exit",
                  [&](const char *value) {
                      metrics_out = value;
                      return true;
                  });

    switch (parser.parse(argc, argv, 1)) {
      case cli::FlagParser::Outcome::Help: return 0;
      case cli::FlagParser::Outcome::Error: return 2;
      case cli::FlagParser::Outcome::Ok: break;
    }

    if (!query.empty())
        return runQuery(query, status_in, openmetrics_path);

    if (serve_options.spool_dir.empty()) {
        std::fprintf(stderr, "%s\n", parser.usage().c_str());
        std::fprintf(stderr,
                     "tpupoint-serve wants --spool DIR (daemon) "
                     "or --query SECTION --status PATH\n");
        return 2;
    }

    std::string why;
    if (!io::FaultInjector::global().loadFromEnvironment(&why)) {
        std::fprintf(stderr, "TPUPOINT_IO_FAULTS: %s\n",
                     why.c_str());
        return 2;
    }

    obs::FlightRecorder &flight = obs::FlightRecorder::global();
    const bool flight_armed = !serve_options.flight_path.empty();
    if (flight_armed) {
        flight.enable();
        if (!flight.setSignalDumpPath(
                serve_options.flight_path.c_str())) {
            std::fprintf(stderr,
                         "--flight-out: path too long for the "
                         "signal-context buffer\n");
            return 2;
        }
    }
    // The handlers read FlightRecorder::global(); constructing it
    // above (not lazily in signal context) keeps them safe.
    installSignalHandlers(flight_armed);

    if (!openmetrics_path.empty() && status_out.empty()) {
        std::fprintf(stderr,
                     "--openmetrics wants --status-out (it is "
                     "published on the status tick)\n");
        return 2;
    }
    if (openmetrics_path.empty() && !status_out.empty())
        openmetrics_path = status_out + ".metrics";

    // A crash mid-publish leaves `status.json.tmp` behind; sweep
    // it so readers never pick up a stale half-document.
    if (!status_out.empty() &&
        serve::sweepStalePublish(status_out))
        obs::logWarn("serve",
                     "removed stale status temp from a previous "
                     "run",
                     {{"path", status_out + ".tmp"}});
    if (!openmetrics_path.empty())
        serve::sweepStalePublish(openmetrics_path);

    serve::SessionManager manager(serve_options);
    const auto started = std::chrono::steady_clock::now();
    for (;;) {
        manager.poll();
        if (!status_out.empty()) {
            // A failed publish is a retry-next-tick event, never
            // an exit: the daemon outlives a transiently full or
            // flaky disk.
            std::string publish_error;
            if (!serve::publishStatus(manager, status_out,
                                      &publish_error)) {
                static obs::LogSite status_site(1000);
                obs::Logger::global().logLimited(
                    status_site, LogLevel::Warn, "serve",
                    "status publish failed; retrying next poll",
                    {{"path", status_out},
                     {"error", publish_error}});
            }
            // The scrape file rides the same tick, so the two
            // documents never drift more than one poll apart.
            if (!serve::publishMetrics(openmetrics_path,
                                       &publish_error)) {
                static obs::LogSite metrics_site(1000);
                obs::Logger::global().logLimited(
                    metrics_site, LogLevel::Warn, "serve",
                    "metrics publish failed; retrying next poll",
                    {{"path", openmetrics_path},
                     {"error", publish_error}});
            }
        }
        if (g_stop || once)
            break;
        if (drain && manager.stats().drained())
            break;
        if (run_for_ms >= 0 &&
            std::chrono::duration_cast<
                std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - started)
                    .count() >= run_for_ms)
            break;
        if (!stop_file.empty()) {
            std::error_code ec;
            if (std::filesystem::exists(stop_file, ec))
                break;
        }
        // Sleep in short slices so a signal or stop file is
        // honored promptly even with a long poll interval. An
        // interrupted sleep (EINTR from a delivered signal) is
        // normal control flow, not an error: re-check g_stop and
        // carry on.
        std::int64_t slept = 0;
        while (slept < poll_ms && !g_stop) {
            const std::int64_t slice =
                std::min<std::int64_t>(poll_ms - slept, 50);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(slice));
            slept += slice;
        }
    }

    // Graceful drain (SIGTERM/SIGINT or a natural exit): flush
    // every pending journal snapshot, publish the final status
    // document, and report a clean exit — a supervisor restart
    // then resumes from exactly this state.
    if (!manager.commitJournal())
        obs::logWarn("serve",
                     "final journal commit failed; restart will "
                     "re-ingest the gap");
    if (!status_out.empty()) {
        serve::publishStatus(manager, status_out);
        serve::publishMetrics(openmetrics_path);
    }
    if (flight_armed) {
        // The shutdown black box: whether the exit came from a
        // signal, --run-for-ms, --drain or a stop file, the flight
        // file on disk ends with a dump that says so.
        const char *reason = g_stop ? "shutdown: signal"
                                    : "shutdown: clean exit";
        obs::logInfo("serve", "shutting down",
                     {{"reason", reason}});
        std::string dump_error;
        if (!flight.dump(serve_options.flight_path, reason,
                         &dump_error))
            obs::logWarn("serve", "shutdown flight dump failed",
                         {{"path", serve_options.flight_path},
                          {"error", dump_error}});
    }

    const serve::ServeStats tallies = manager.stats();
    std::printf("serve: %zu sessions (%zu finalized, %zu "
                "evicted), %llu records, %llu events\n",
                tallies.sessions, tallies.finalized,
                tallies.evicted,
                static_cast<unsigned long long>(tallies.records),
                static_cast<unsigned long long>(tallies.events));
    if (!cli::writeTelemetry(trace_out, metrics_out))
        return 1;
    return 0;
}
