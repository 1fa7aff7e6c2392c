/**
 * @file CLI-level tests for the tpupoint-* tools, run as real
 * subprocesses. Pins the error contract — missing inputs and
 * unwritable output paths produce a clear message and a nonzero
 * exit — and the salvage workflow: `tpupoint-analyze --salvage`
 * analyzes a damaged profile reporting exactly what was dropped
 * while the plain invocation refuses it, and `tpupoint-salvage`
 * rewrites the damage away entirely.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#ifdef __unix__
#include <sys/wait.h>
#include <unistd.h>
#endif
#include <sstream>
#include <string>
#include <vector>

#include "core/json.hh"
#include "proto/serialize.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace {

struct CommandResult
{
    int exit_code = -1;
    std::string output; ///< Combined stdout + stderr.
};

std::string tempPath(const std::string &name);

/** Run @p command, capturing its combined output. */
CommandResult
run(const std::string &command)
{
    // tempPath prefixes the pid: ctest runs each case as its own
    // process, possibly concurrently, and a shared path races.
    const std::string log = tempPath("cli_test_output.log");
    const int raw = std::system(
        (command + " > '" + log + "' 2>&1").c_str());
    CommandResult result;
#ifdef WEXITSTATUS
    result.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
#else
    result.exit_code = raw;
#endif
    std::ifstream in(log);
    std::ostringstream text;
    text << in.rdbuf();
    result.output = text.str();
    return result;
}

std::string
tempPath(const std::string &name)
{
#ifdef __unix__
    return testing::TempDir() + std::to_string(getpid()) + "." +
        name;
#else
    return testing::TempDir() + name;
#endif
}

/**
 * Write an analyzable profile: the canonical three-phase step
 * sequence, one record per chunk so chunk-level damage maps to
 * whole records.
 */
void
writeProfile(const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out);
    RecordStreamOptions options;
    options.chunk_records = 1;
    RecordStreamWriter framing(out, options);
    const auto steps = testutil::threePhaseRun();
    // Four windows so one dropped chunk still leaves an
    // analyzable majority.
    const std::size_t quarter = steps.size() / 4;
    for (std::uint64_t window = 0; window < 4; ++window) {
        const std::size_t begin = window * quarter;
        const std::size_t end =
            window == 3 ? steps.size() : begin + quarter;
        framing.append(encodeProfileRecord(testutil::makeRecord(
            {steps.begin() + static_cast<std::ptrdiff_t>(begin),
             steps.begin() + static_cast<std::ptrdiff_t>(end)},
            window)));
    }
    framing.finish();
    ASSERT_TRUE(out);
}

/** Flip a payload byte of the @p nth chunk in the file. */
void
corruptChunk(const std::string &path, int nth)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string bytes = buffer.str();
    std::size_t pos = 0;
    for (int i = 0; i <= nth; ++i) {
        pos = bytes.find("CHNK", pos ? pos + 1 : 0);
        ASSERT_NE(pos, std::string::npos);
    }
    const std::size_t payload = pos + 16;
    ASSERT_LT(payload, bytes.size());
    bytes[payload] = static_cast<char>(bytes[payload] ^ 0x5a);
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(CliTest, AnalyzeMissingProfileFailsClearly)
{
    const auto result = run(std::string(TPUPOINT_ANALYZE_BIN) +
                            " /nonexistent/no.profile");
    EXPECT_NE(result.exit_code, 0);
    EXPECT_NE(result.output.find("cannot open profile"),
              std::string::npos);
}

TEST(CliTest, AnalyzeUnwritableOutputFailsBeforeAnalyzing)
{
    const std::string profile = tempPath("ok.profile");
    writeProfile(profile);
    const auto result =
        run(std::string(TPUPOINT_ANALYZE_BIN) + " '" + profile +
            "' --out /nonexistent/dir/base");
    EXPECT_NE(result.exit_code, 0);
    EXPECT_NE(result.output.find("cannot write output base"),
              std::string::npos);
}

TEST(CliTest, AnalyzeUnknownOptionFailsWithUsage)
{
    const auto result = run(std::string(TPUPOINT_ANALYZE_BIN) +
                            " profile --frobnicate");
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.output.find("unknown option"),
              std::string::npos);
}

TEST(CliTest, ProfileUnwritableOutputFailsBeforeRunning)
{
    const auto result =
        run(std::string(TPUPOINT_PROFILE_BIN) +
            " --out /nonexistent/dir/x.profile");
    EXPECT_NE(result.exit_code, 0);
    EXPECT_NE(result.output.find("cannot write"),
              std::string::npos);
}

TEST(CliTest, ProfileRejectsBadFaultRate)
{
    const auto result = run(std::string(TPUPOINT_PROFILE_BIN) +
                            " --fault-error-rate 1.5");
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.output.find("--fault-error-rate"),
              std::string::npos);
}

TEST(CliTest, CompareMissingProfileFailsClearly)
{
    const std::string profile = tempPath("cmp.profile");
    writeProfile(profile);
    const auto result = run(std::string(TPUPOINT_COMPARE_BIN) +
                            " '" + profile +
                            "' /nonexistent/no.profile");
    EXPECT_NE(result.exit_code, 0);
    EXPECT_NE(result.output.find("cannot open profile"),
              std::string::npos);
}

TEST(CliTest, SalvageAnalyzeAcceptsWhatPlainAnalyzeRefuses)
{
    const std::string profile = tempPath("damaged.profile");
    writeProfile(profile);
    corruptChunk(profile, 1);

    // Plain analyze refuses the damaged profile...
    const auto plain =
        run(std::string(TPUPOINT_ANALYZE_BIN) + " '" + profile +
            "' --out " + tempPath("plain"));
    EXPECT_NE(plain.exit_code, 0);
    EXPECT_NE(plain.output.find("unreadable profile"),
              std::string::npos);

    // ...--salvage analyzes what survives and reports the loss.
    const auto salvaged =
        run(std::string(TPUPOINT_ANALYZE_BIN) + " '" + profile +
            "' --salvage --out " + tempPath("salvaged"));
    EXPECT_EQ(salvaged.exit_code, 0) << salvaged.output;
    EXPECT_NE(salvaged.output.find("salvage: dropped 1 chunks"),
              std::string::npos)
        << salvaged.output;
    // The artifacts were still written.
    std::ifstream summary(tempPath("salvaged") + ".summary.json");
    EXPECT_TRUE(summary.good());
}

TEST(CliTest, SalvageToolRewritesACleanProfile)
{
    const std::string damaged = tempPath("rewrite.profile");
    const std::string clean = tempPath("rewrite.clean.profile");
    writeProfile(damaged);
    corruptChunk(damaged, 2);

    const auto salvage = run(std::string(TPUPOINT_SALVAGE_BIN) +
                             " '" + damaged + "' '" + clean + "'");
    EXPECT_EQ(salvage.exit_code, 0) << salvage.output;
    EXPECT_NE(salvage.output.find("salvaged 3 records"),
              std::string::npos)
        << salvage.output;
    EXPECT_NE(salvage.output.find("dropped 1 chunks"),
              std::string::npos);

    // The rewritten profile passes plain (non-salvage) analysis.
    const auto analyze =
        run(std::string(TPUPOINT_ANALYZE_BIN) + " '" + clean +
            "' --out " + tempPath("rewritten"));
    EXPECT_EQ(analyze.exit_code, 0) << analyze.output;
}

TEST(CliTest, SalvageToolFailsOnMissingInput)
{
    const auto result =
        run(std::string(TPUPOINT_SALVAGE_BIN) +
            " /nonexistent/no.profile " + tempPath("out.profile"));
    EXPECT_NE(result.exit_code, 0);
    EXPECT_NE(result.output.find("cannot open profile"),
              std::string::npos);
}

TEST(CliTest, ExportWritesValidatedTraceJson)
{
    const std::string profile = tempPath("export.profile");
    const std::string trace = tempPath("export.trace.json");
    writeProfile(profile);

    const auto result = run(std::string(TPUPOINT_EXPORT_BIN) +
                            " '" + profile + "' -o '" + trace +
                            "' --check");
    EXPECT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("exported 4 records"),
              std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("is valid JSON"),
              std::string::npos);

    std::ifstream in(trace);
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_TRUE(validateJson(text.str()));
    EXPECT_NE(text.str().find("\"traceEvents\""),
              std::string::npos);
}

TEST(CliTest, ExportMissingProfileFailsClearly)
{
    const auto result = run(std::string(TPUPOINT_EXPORT_BIN) +
                            " /nonexistent/no.profile");
    EXPECT_NE(result.exit_code, 0);
    EXPECT_NE(result.output.find("cannot open profile"),
              std::string::npos);
}

TEST(CliTest, ExportRejectsMalformedStepRange)
{
    const std::string profile = tempPath("range.profile");
    writeProfile(profile);
    // Reversed, negative, out-of-range and padded or signed ends
    // are all refused; none may fall back to exporting every step.
    for (const char *range : {"9:2", "0:-1", "3:99999999999999999999",
                              "' 3:+7'"}) {
        const auto result = run(std::string(TPUPOINT_EXPORT_BIN) +
                                " '" + profile + "' --steps " + range);
        EXPECT_EQ(result.exit_code, 2) << range;
        EXPECT_NE(result.output.find("--steps wants A:B with A <= B"),
                  std::string::npos)
            << result.output;
    }
}

// The analyze pipeline's one read/decode/fold loop runs under an
// analyze.ingest span, so --trace-out accounts for ingest time.
TEST(CliTest, AnalyzeTraceOutCoversIngest)
{
    const std::string profile = tempPath("spans.profile");
    const std::string spans = tempPath("spans.trace.json");
    writeProfile(profile);
    const auto result =
        run(std::string(TPUPOINT_ANALYZE_BIN) + " '" + profile +
            "' --out '" + tempPath("spans") + "' --trace-out '" +
            spans + "'");
    EXPECT_EQ(result.exit_code, 0) << result.output;

    std::ifstream in(spans);
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_TRUE(validateJson(text.str()));
    const std::size_t ingest = text.str().find("\"analyze.ingest\"");
    ASSERT_NE(ingest, std::string::npos) << text.str();
    const std::size_t args = text.str().find("\"records\"", ingest);
    ASSERT_NE(args, std::string::npos) << text.str();
    EXPECT_NE(text.str().find("\"events\"", ingest),
              std::string::npos)
        << text.str();
}

// Each of analyze's three writers runs under its own
// analyze.write.* span, so --trace-out accounts for output time.
TEST(CliTest, AnalyzeTraceOutCoversEachWriter)
{
    const std::string profile = tempPath("writer_spans.profile");
    const std::string spans = tempPath("writer_spans.trace.json");
    writeProfile(profile);
    const auto result =
        run(std::string(TPUPOINT_ANALYZE_BIN) + " '" + profile +
            "' --out '" + tempPath("writer_spans") +
            "' --trace-out '" + spans + "'");
    EXPECT_EQ(result.exit_code, 0) << result.output;

    std::ifstream in(spans);
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_TRUE(validateJson(text.str()));
    for (const char *span : {"analyze.write.trace", "analyze.write.csv",
                             "analyze.write.summary"}) {
        EXPECT_NE(text.str().find("\"" + std::string(span) + "\""),
                  std::string::npos)
            << span << " missing from " << text.str();
    }
}

TEST(CliTest, ExportSalvagesDamagedProfiles)
{
    const std::string profile = tempPath("export_damaged.profile");
    const std::string trace = tempPath("export_damaged.json");
    writeProfile(profile);
    corruptChunk(profile, 1);

    // Plain export refuses the damaged profile...
    const auto plain = run(std::string(TPUPOINT_EXPORT_BIN) +
                           " '" + profile + "' -o '" + trace + "'");
    EXPECT_NE(plain.exit_code, 0);

    // ...--salvage exports the surviving windows.
    const auto salvaged =
        run(std::string(TPUPOINT_EXPORT_BIN) + " '" + profile +
            "' -o '" + trace + "' --salvage --check");
    EXPECT_EQ(salvaged.exit_code, 0) << salvaged.output;
    EXPECT_NE(salvaged.output.find("exported 3 records"),
              std::string::npos)
        << salvaged.output;
}

TEST(CliTest, ProfileWritesTelemetryDumps)
{
    const std::string profile = tempPath("telemetry.profile");
    const std::string spans = tempPath("telemetry.spans.json");
    const std::string metrics = tempPath("telemetry.metrics.json");
    const auto result =
        run(std::string(TPUPOINT_PROFILE_BIN) +
            " --workload dcgan-mnist --scale 0.02 --steps 40"
            " --out '" + profile + "' --trace-out '" + spans +
            "' --metrics-out '" + metrics + "'");
    EXPECT_EQ(result.exit_code, 0) << result.output;

    for (const std::string &path : {spans, metrics}) {
        std::ifstream in(path);
        ASSERT_TRUE(in.good()) << path;
        std::ostringstream text;
        text << in.rdbuf();
        EXPECT_TRUE(validateJson(text.str())) << path;
    }
    std::ifstream metrics_in(metrics);
    std::ostringstream metrics_text;
    metrics_text << metrics_in.rdbuf();
    EXPECT_NE(metrics_text.str().find("profiler.events_accepted"),
              std::string::npos);
}

TEST(CliTest, SalvageToolFailsWhenNothingSurvives)
{
    // A file with no recoverable chunks at all.
    const std::string junk = tempPath("junk.profile");
    {
        std::ofstream out(junk, std::ios::binary);
        out << "this is not a profile at all, not even close";
    }
    const auto result = run(std::string(TPUPOINT_SALVAGE_BIN) +
                            " '" + junk + "' " +
                            tempPath("junk.clean.profile"));
    EXPECT_NE(result.exit_code, 0);
    EXPECT_NE(result.output.find("nothing salvageable"),
              std::string::npos);
}

// The satellite fix for unchecked atoi: every numeric flag now
// rejects garbage, trailing junk, out-of-range and misplaced
// negatives with a clear message and exit 2 — instead of silently
// parsing "20x" as 20 or "abc" as 0.
TEST(CliTest, NumericFlagsRejectGarbage)
{
    const char *bad_analyze[] = {"--k abc", "--k 3x", "--k -2",
                                 "--k 99999999999999999999",
                                 "--min-samples -1",
                                 "--min-samples 1.5"};
    for (const char *flags : bad_analyze) {
        // The profile path is positional (argv[1]); flags follow.
        const auto result =
            run(std::string(TPUPOINT_ANALYZE_BIN) + " " +
                tempPath("never_read.tpp") + " " + flags);
        EXPECT_EQ(result.exit_code, 2) << flags;
        EXPECT_NE(result.output.find("wants an integer"),
                  std::string::npos)
            << flags << " said: " << result.output;
    }

    const char *bad_profile[] = {"--steps 10x", "--steps junk",
                                 "--steps -5", "--max-attempts 3.5",
                                 "--fault-seed 0x10"};
    for (const char *flags : bad_profile) {
        const auto result =
            run(std::string(TPUPOINT_PROFILE_BIN) + " " + flags +
                " --out " + tempPath("never_written.tpp"));
        EXPECT_EQ(result.exit_code, 2) << flags;
        EXPECT_NE(result.output.find("wants an integer"),
                  std::string::npos)
            << flags << " said: " << result.output;
    }

    const auto threads = run(std::string(TPUPOINT_ANALYZE_BIN) +
                             " " + tempPath("never_read.tpp") +
                             " --threads two");
    EXPECT_EQ(threads.exit_code, 2);
    EXPECT_NE(threads.output.find("wants an integer"),
              std::string::npos);
}

// Float flags get the same strict parse: garbage, trailing junk,
// nan/inf and out-of-range values exit 2 with a clear message
// instead of running at threshold 0 or with faults silently off.
TEST(CliTest, FloatFlagsRejectGarbage)
{
    const char *bad_analyze[] = {
        "--threshold banana", "--threshold 0.7x",
        "--threshold nan", "--threshold 1.5", "--threshold -0.1",
        "--threshold ' 0.5'"};
    for (const char *flags : bad_analyze) {
        const auto result =
            run(std::string(TPUPOINT_ANALYZE_BIN) + " " +
                tempPath("never_read.tpp") + " " + flags);
        EXPECT_EQ(result.exit_code, 2) << flags;
        EXPECT_NE(result.output.find("wants a number"),
                  std::string::npos)
            << flags << " said: " << result.output;
    }

    // --steps 1 keeps a wrongly accepted flag from running long.
    const char *bad_profile[] = {
        "--scale banana", "--scale 0.05x", "--scale nan",
        "--scale -1", "--fault-error-rate banana",
        "--fault-error-rate nan", "--fault-error-rate 1.5",
        "--preempt-rate 3junk", "--preempt-rate -1",
        "--preempt-rate inf", "--preempt-at soon",
        "--preempt-at -2", "--preempt-at 1e999"};
    for (const char *flags : bad_profile) {
        const auto result =
            run(std::string(TPUPOINT_PROFILE_BIN) + " " + flags +
                " --steps 1 --out " +
                tempPath("never_written.tpp"));
        EXPECT_EQ(result.exit_code, 2) << flags;
        EXPECT_NE(result.output.find("wants a number"),
                  std::string::npos)
            << flags << " said: " << result.output;
    }
}

TEST(CliTest, ServeQueryRejectsUnknownSectionAndMissingStatus)
{
    const auto unknown = run(std::string(TPUPOINT_SERVE_BIN) +
                             " --query bogus --status x.json");
    EXPECT_EQ(unknown.exit_code, 2);
    EXPECT_NE(unknown.output.find("unknown query 'bogus'"),
              std::string::npos);

    const std::string absent = tempPath("serve_absent_status.json");
    std::remove(absent.c_str());
    const auto missing = run(std::string(TPUPOINT_SERVE_BIN) +
                             " --query phases --status '" +
                             absent + "'");
    EXPECT_EQ(missing.exit_code, 1);
    EXPECT_NE(missing.output.find("no status file"),
              std::string::npos);

    const auto no_spool = run(std::string(TPUPOINT_SERVE_BIN));
    EXPECT_EQ(no_spool.exit_code, 2);
    EXPECT_NE(no_spool.output.find("--spool"), std::string::npos);
}

TEST(CliTest, ServeDrainsSpoolAndAnswersQueries)
{
    const std::string spool = tempPath("serve_spool");
    std::filesystem::remove_all(spool);
    std::filesystem::create_directories(spool);
    writeProfile(spool + "/run.tpp");
    const std::string status = tempPath("serve_status.json");

    const auto serve = run(std::string(TPUPOINT_SERVE_BIN) +
                           " --spool '" + spool +
                           "' --status-out '" + status +
                           "' --poll-ms 10 --idle-ttl-ms 200"
                           " --threads 1 --drain");
    ASSERT_EQ(serve.exit_code, 0) << serve.output;
    EXPECT_NE(serve.output.find("1 sessions (1 finalized"),
              std::string::npos)
        << serve.output;

    for (const char *section :
         {"phases", "coverage", "sessions", "stats"}) {
        const auto query = run(std::string(TPUPOINT_SERVE_BIN) +
                               " --query " + section +
                               " --status '" + status + "'");
        EXPECT_EQ(query.exit_code, 0)
            << section << ": " << query.output;
        std::string why;
        EXPECT_TRUE(validateJson(query.output, &why))
            << section << ": " << why;
    }
    const auto phases = run(std::string(TPUPOINT_SERVE_BIN) +
                            " --query phases --status '" + status +
                            "'");
    EXPECT_NE(phases.output.find("\"run\""), std::string::npos);
    std::filesystem::remove_all(spool);
}

TEST(CliTest, ServeFlightRecorderAndObservabilityQueries)
{
    const std::string spool = tempPath("serve_obs_spool");
    std::filesystem::remove_all(spool);
    std::filesystem::create_directories(spool);
    writeProfile(spool + "/run.tpp");
    const std::string status = tempPath("serve_obs_status.json");
    const std::string flight = tempPath("serve_obs_flight.json");
    std::remove(flight.c_str());

    const auto serve = run(std::string(TPUPOINT_SERVE_BIN) +
                           " --spool '" + spool +
                           "' --status-out '" + status +
                           "' --flight-out '" + flight +
                           "' --poll-ms 10 --idle-ttl-ms 200"
                           " --threads 1 --drain");
    ASSERT_EQ(serve.exit_code, 0) << serve.output;

    // Health rides in the status document like any other section.
    const auto health = run(std::string(TPUPOINT_SERVE_BIN) +
                            " --query health --status '" + status +
                            "'");
    EXPECT_EQ(health.exit_code, 0) << health.output;
    std::string why;
    EXPECT_TRUE(validateJson(health.output, &why)) << why;
    EXPECT_NE(health.output.find("\"state\": \"ok\""),
              std::string::npos)
        << health.output;

    // Metrics come from the OpenMetrics sibling the daemon
    // published next to the status file.
    const auto metrics = run(std::string(TPUPOINT_SERVE_BIN) +
                             " --query metrics --status '" +
                             status + "'");
    EXPECT_EQ(metrics.exit_code, 0) << metrics.output;
    EXPECT_NE(metrics.output.find(
                  "serve_sessions_finalized_total 1"),
              std::string::npos)
        << metrics.output;
    EXPECT_NE(metrics.output.find("# EOF"), std::string::npos);

    // A clean exit still dumps the flight ring, attributed.
    std::ifstream in(flight, std::ios::binary);
    std::ostringstream doc;
    doc << in.rdbuf();
    ASSERT_FALSE(doc.str().empty());
    EXPECT_TRUE(validateJson(doc.str(), &why)) << why;
    EXPECT_NE(doc.str().find("shutdown: clean exit"),
              std::string::npos);
    std::filesystem::remove_all(spool);
}

TEST(CliTest, ServeRejectsGarbageRobustnessFlagValues)
{
    const char *bad_serve[] = {
        "--max-sessions garbage", "--max-inflight-bytes -1",
        "--quarantine-errors 1.5", "--journal-compact-bytes 0x10",
        "--io-fault-seed junk"};
    for (const char *flags : bad_serve) {
        const auto result =
            run(std::string(TPUPOINT_SERVE_BIN) + " " + flags);
        EXPECT_EQ(result.exit_code, 2) << flags;
        EXPECT_NE(result.output.find("wants an integer"),
                  std::string::npos)
            << flags << " said: " << result.output;
    }

    const auto fault = run(std::string(TPUPOINT_SERVE_BIN) +
                           " --io-fault bad=bogus");
    EXPECT_EQ(fault.exit_code, 2);
    EXPECT_NE(fault.output.find("--io-fault"), std::string::npos)
        << fault.output;
}

TEST(CliTest, ServeJournalSurvivesRestart)
{
    const std::string spool = tempPath("serve_journal_spool");
    std::filesystem::remove_all(spool);
    std::filesystem::create_directories(spool);
    writeProfile(spool + "/run.tpp");
    const std::string status = tempPath("serve_journal_status.json");
    const std::string journal = spool + "/serve.journal";

    const std::string daemon = std::string(TPUPOINT_SERVE_BIN) +
        " --spool '" + spool + "' --status-out '" + status +
        "' --journal '" + journal +
        "' --poll-ms 10 --idle-ttl-ms 200 --threads 1 --drain";
    const auto first = run(daemon);
    ASSERT_EQ(first.exit_code, 0) << first.output;
    EXPECT_NE(first.output.find("1 sessions (1 finalized"),
              std::string::npos)
        << first.output;

    // Restart against the same journal: the finalized session is
    // restored from the journal alone and marked as recovered.
    const auto second = run(daemon);
    ASSERT_EQ(second.exit_code, 0) << second.output;
    EXPECT_NE(second.output.find("1 sessions (1 finalized"),
              std::string::npos)
        << second.output;
    const auto sessions = run(std::string(TPUPOINT_SERVE_BIN) +
                              " --query sessions --status '" +
                              status + "'");
    EXPECT_EQ(sessions.exit_code, 0) << sessions.output;
    EXPECT_NE(sessions.output.find("\"recovered\""),
              std::string::npos)
        << sessions.output;
    std::filesystem::remove_all(spool);
}

TEST(CliTest, ServeMaxSessionsShedsThenFinishesEverySession)
{
    const std::string spool = tempPath("serve_shed_spool");
    std::filesystem::remove_all(spool);
    std::filesystem::create_directories(spool);
    writeProfile(spool + "/aaa.tpp");
    writeProfile(spool + "/bbb.tpp");
    const std::string status = tempPath("serve_shed_status.json");

    // One admission slot for two sessions: the second is shed at
    // the door, re-admitted once the first finishes, and the drain
    // still ends with both finalized.
    const auto serve = run(std::string(TPUPOINT_SERVE_BIN) +
                           " --spool '" + spool +
                           "' --status-out '" + status +
                           "' --max-sessions 1 --poll-ms 10"
                           " --idle-ttl-ms 200 --threads 1"
                           " --drain");
    ASSERT_EQ(serve.exit_code, 0) << serve.output;
    EXPECT_NE(serve.output.find("2 sessions (2 finalized"),
              std::string::npos)
        << serve.output;
    std::filesystem::remove_all(spool);
}

} // namespace
} // namespace tpupoint
