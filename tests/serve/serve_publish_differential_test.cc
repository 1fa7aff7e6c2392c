/**
 * @file Differential test for the serve publish path. The status
 * document splices per-session fragments that are re-rendered only
 * when a session's status changes, and the registry renders
 * OpenMetrics straight from its instruments. After every poll of a
 * seeded schedule, both must equal full renders by the oracles
 * below: the whole-document status writer and the snapshot-based
 * OpenMetrics writer those paths replaced. The schedule covers
 * random append cuts, shedding and re-admission, transient errors
 * and quarantine through the `serve.spool_read` fail point,
 * finalize, eviction, a kill-and-restart recovered from the
 * journal, and cache keys that return to an earlier value.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/io_faults.hh"
#include "core/json.hh"
#include "core/rng.hh"
#include "obs/metrics.hh"
#include "serve/serve.hh"
#include "tests/serve/spool_fixture.hh"

namespace tpupoint {
namespace {

using testutil::analyzableStream;
using testutil::appendFile;
using testutil::ManagedSpool;
using testutil::readFile;

namespace oracle {

/** The status document rendered in one pass from public state. */
std::string
statusJson(const serve::SessionManager &manager, bool pretty)
{
    using serve::SessionState;
    const std::vector<serve::SessionStatus> all = manager.sessions();
    std::ostringstream out;
    JsonWriter w(out, pretty);
    w.beginObject();

    w.key("sessions");
    w.beginArray();
    for (const serve::SessionStatus &status : all) {
        w.beginObject();
        w.field("name", status.name);
        w.field("path", status.path);
        w.field("state", serve::sessionStateName(status.state));
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
    w.endArray();

    const auto phase_worthy = [](const serve::SessionStatus &status) {
        if (status.state == SessionState::Finalized ||
            status.state == SessionState::Evicted)
            return true;
        const bool live =
            status.state == SessionState::Discovering ||
            status.state == SessionState::Ingesting ||
            status.state == SessionState::Quiescent;
        return live && !status.phases.empty();
    };

    w.key("phases");
    w.beginArray();
    for (const serve::SessionStatus &status : all) {
        if (!phase_worthy(status))
            continue;
        w.beginObject();
        w.field("name", status.name);
        w.field("algorithm", status.algorithm.empty()
                    ? status.detector
                    : status.algorithm);
        w.field("exact", status.phases_exact);
        w.field("steps_behind", status.steps_behind);
        w.key("phases");
        w.beginArray();
        for (const serve::PhaseSummary &phase : status.phases) {
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
    w.endArray();

    w.key("coverage");
    w.beginArray();
    for (const serve::SessionStatus &status : all) {
        if (!phase_worthy(status))
            continue;
        w.beginObject();
        w.field("name", status.name);
        w.field("algorithm", status.algorithm.empty()
                    ? status.detector
                    : status.algorithm);
        w.field("exact", status.phases_exact);
        w.field("steps_behind", status.steps_behind);
        w.field("steps", status.steps);
        w.field("phase_count",
                static_cast<std::uint64_t>(status.phases.size()));
        w.field("top3_coverage", status.top3_coverage);
        w.endObject();
    }
    w.endArray();

    const serve::ServeStats tallies = manager.stats();
    w.key("stats");
    w.beginObject();
    w.field("polls", tallies.polls);
    w.field("sessions", static_cast<std::uint64_t>(tallies.sessions));
    w.field("discovering",
            static_cast<std::uint64_t>(tallies.discovering));
    w.field("ingesting",
            static_cast<std::uint64_t>(tallies.ingesting));
    w.field("quiescent",
            static_cast<std::uint64_t>(tallies.quiescent));
    w.field("finalized",
            static_cast<std::uint64_t>(tallies.finalized));
    w.field("evicted", static_cast<std::uint64_t>(tallies.evicted));
    w.field("shed", static_cast<std::uint64_t>(tallies.shed));
    w.field("quarantined",
            static_cast<std::uint64_t>(tallies.quarantined));
    w.field("recovered",
            static_cast<std::uint64_t>(tallies.recovered));
    w.field("records", tallies.records);
    w.field("events", tallies.events);
    w.field("bytes", tallies.bytes);
    w.endObject();

    const serve::HealthReport verdict = manager.health();
    w.key("health");
    w.beginObject();
    w.field("state", serve::healthStateName(verdict.state));
    w.field("p99_ingest_us", verdict.p99_ingest_us);
    w.field("max_lag_ms", verdict.max_lag_ms);
    if (!verdict.max_lag_session.empty())
        w.field("max_lag_session", verdict.max_lag_session);
    w.key("issues");
    w.beginArray();
    for (const serve::HealthIssue &issue : verdict.issues) {
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
    w.flush();
    return out.str();
}

std::string
sanitizeMetricName(std::string_view name)
{
    std::string out;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
            (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
            c == '_' || c == ':';
        out += ok ? c : '_';
    }
    if (out.empty() || (out[0] >= '0' && out[0] <= '9'))
        out.insert(out.begin(), '_');
    return out;
}

std::string
renderLabels(const obs::ParsedMetricName &parsed)
{
    if (parsed.labels.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto &[key, value] : parsed.labels) {
        if (!first)
            out += ",";
        out += sanitizeMetricName(key);
        out += "=\"";
        out += obs::escapeLabelValue(value);
        out += "\"";
        first = false;
    }
    out += "}";
    return out;
}

void
typeLineOnce(std::ostream &out, std::string &last_family,
             const std::string &family, const char *kind)
{
    if (family == last_family)
        return;
    out << "# TYPE " << family << ' ' << kind << '\n';
    last_family = family;
}

/** OpenMetrics text of one registry snapshot. */
std::string
openMetrics(const obs::MetricsSnapshot &snap)
{
    std::ostringstream out;
    std::string last_family;
    for (const auto &[name, value] : snap.counters) {
        const obs::ParsedMetricName parsed = obs::parseMetricName(name);
        const std::string family = sanitizeMetricName(parsed.base);
        typeLineOnce(out, last_family, family, "counter");
        out << family << "_total" << renderLabels(parsed) << ' '
            << value << '\n';
    }
    for (const auto &[name, value] : snap.gauges) {
        const obs::ParsedMetricName parsed = obs::parseMetricName(name);
        const std::string family = sanitizeMetricName(parsed.base);
        typeLineOnce(out, last_family, family, "gauge");
        out << family << renderLabels(parsed) << ' ' << value
            << '\n';
    }
    for (const auto &[name, data] : snap.histograms) {
        const obs::ParsedMetricName parsed = obs::parseMetricName(name);
        const std::string family = sanitizeMetricName(parsed.base);
        typeLineOnce(out, last_family, family, "histogram");
        const std::string labels = renderLabels(parsed);
        std::string label_prefix = "{";
        if (!labels.empty()) {
            label_prefix = labels;
            label_prefix.back() = ',';
        }
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < data.bucket_counts.size(); ++i) {
            cumulative += data.bucket_counts[i];
            out << family << "_bucket" << label_prefix << "le=\"";
            if (i < data.bounds.size())
                out << data.bounds[i];
            else
                out << "+Inf";
            out << "\"} " << cumulative << '\n';
        }
        if (data.bucket_counts.size() <= data.bounds.size())
            out << family << "_bucket" << label_prefix
                << "le=\"+Inf\"} " << cumulative << '\n';
        out << family << "_sum" << labels << ' ' << data.sum << '\n';
        out << family << "_count" << labels << ' ' << data.count
            << '\n';
    }
    out << "# EOF\n";
    return out.str();
}

} // namespace oracle

/**
 * Structural scrape check: every family is declared once, and
 * `_bucket`/`_sum`/`_count` samples appear only under histogram
 * families. @return the first violation, or "" when valid.
 */
std::string
exposeViolation(const std::string &text)
{
    std::map<std::string, std::string> kinds;
    std::istringstream lines(text);
    std::string line;
    std::string family;
    while (std::getline(lines, line)) {
        if (line.rfind("# TYPE ", 0) == 0) {
            std::istringstream fields(line.substr(7));
            std::string kind;
            fields >> family >> kind;
            if (!kinds.emplace(family, kind).second)
                return "family declared twice: " + line;
            continue;
        }
        if (line.empty() || line[0] == '#')
            continue;
        const std::string name =
            line.substr(0, line.find_first_of("{ "));
        for (const char *suffix : {"_bucket", "_sum", "_count"}) {
            const std::string s = suffix;
            if (name == family + s && kinds[family] != "histogram")
                return "histogram sample under " + kinds[family] +
                    " family: " + line;
        }
    }
    return "";
}

/** Which document forms a run renders, tick by tick. */
enum class Forms {
    Pretty,      ///< publishStatus only (the daemon's path).
    Compact,     ///< writeStatusJson(pretty=false) only.
    Alternating, ///< pretty, compact, pretty... (A→B→A keys).
};

/** States and transitions one run actually walked through. */
struct Coverage
{
    std::set<serve::SessionState> states;
    bool readmitted = false;
    bool recovered = false;
    bool transient_error = false;
};

struct ServePublishDifferential : ::testing::Test
{
    void
    SetUp() override
    {
        io::FaultInjector::global().reset();
        obs::MetricsRegistry::global().reset();
    }

    void
    TearDown() override
    {
        io::FaultInjector::global().reset();
    }

    /**
     * One seeded schedule over six growing streams; every tick
     * polls once and checks each rendered form against the
     * oracles, recording in @p seen what the schedule exercised.
     */
    void
    run(std::uint64_t seed, Forms forms, Coverage &seen)
    {
        Rng rng(seed);
        ManagedSpool spool("publish_differential_" +
                           std::to_string(seed));
        spool.options.idle_ttl_ms = 400;
        spool.options.evict_ttl_ms = 600;
        spool.options.max_sessions = 2;
        spool.options.max_finalizes_per_poll = 1;
        spool.options.quarantine_errors = 3;
        spool.options.journal_path = spool.dir + "/serve.journal";
        spool.start();
        const std::string status_path = spool.dir + "/status.json";
        const std::string metrics_path = spool.dir + "/metrics.txt";

        // Each stream lands in random cuts that rarely fall on a
        // chunk boundary; seeded start ticks stagger discovery.
        struct Stream
        {
            std::string path;
            std::string bytes;
            std::vector<std::size_t> cuts;
            std::size_t written = 0;
            std::size_t next_cut = 0;
            std::uint64_t start_tick = 0;
        };
        const std::string streams[2] = {analyzableStream(4),
                                        analyzableStream(7)};
        std::vector<Stream> files(6);
        for (std::size_t i = 0; i < files.size(); ++i) {
            Stream &f = files[i];
            f.path = spool.dir + "/s" + std::to_string(i) + ".tpp";
            f.bytes = streams[rng.nextBounded(2)];
            const std::uint64_t pieces = 2 + rng.nextBounded(5);
            for (std::uint64_t k = 1; k < pieces; ++k)
                f.cuts.push_back(
                    1 + rng.nextBounded(f.bytes.size() - 1));
            std::sort(f.cuts.begin(), f.cuts.end());
            f.cuts.push_back(f.bytes.size());
            f.start_tick = rng.nextBounded(12);
        }
        // One writer dies early: the idle TTL salvages its stream.
        files[rng.nextBounded(files.size())].cuts.pop_back();

        // Fault windows open at the first tick past their seeded
        // mark with a live session to hit: one transient read
        // error, then three polls of failing reads (quarantine).
        const std::uint64_t transient_mark = 3 + rng.nextBounded(4);
        const std::uint64_t quarantine_mark = 10 + rng.nextBounded(6);
        const std::uint64_t restart_tick = 20 + rng.nextBounded(8);
        bool transient_done = false;
        std::uint64_t quarantine_left = 3;
        auto &faults = io::FaultInjector::global();

        std::set<std::string> shed_names;
        constexpr std::uint64_t kTicks = 90;
        for (std::uint64_t tick = 0; tick < kTicks; ++tick) {
            for (Stream &f : files) {
                if (tick < f.start_tick ||
                    f.next_cut == f.cuts.size() ||
                    rng.bernoulli(0.3))
                    continue;
                const std::size_t to = f.cuts[f.next_cut++];
                appendFile(f.path, std::string_view(f.bytes).substr(
                                       f.written, to - f.written));
                f.written = to;
            }

            if (tick == restart_tick) {
                // Kill -9 between ticks: every poll has committed
                // its journal; the new manager recovers from it.
                spool.manager.reset();
                spool.start();
                seen.recovered = spool.manager->stats().recovered > 0;
            }

            const serve::ServeStats before = spool.manager->stats();
            const bool live =
                before.discovering + before.ingesting > 0;
            faults.reset();
            if (!transient_done && tick >= transient_mark && live) {
                ASSERT_TRUE(faults.configure("serve.spool_read=eio"));
                transient_done = true;
            } else if (transient_done && quarantine_left > 0 &&
                       tick >= quarantine_mark &&
                       (live || quarantine_left < 3)) {
                ASSERT_TRUE(
                    faults.configure("serve.spool_read=eio@1+"));
                --quarantine_left;
            }

            // Late in the run the clock mostly stands still, so
            // consecutive polls leave every key unchanged.
            if (tick < 60 || tick % 10 == 0)
                spool.now += 50 + static_cast<std::int64_t>(
                                      rng.nextBounded(100));
            spool.manager->poll();

            for (const serve::SessionStatus &status :
                 spool.manager->sessions()) {
                seen.states.insert(status.state);
                if (status.state == serve::SessionState::Shed)
                    shed_names.insert(status.name);
                else if (shed_names.count(status.name) != 0)
                    seen.readmitted = true;
                if (status.error.find("injected") !=
                        std::string::npos &&
                    status.state != serve::SessionState::Quarantined)
                    seen.transient_error = true;
            }

            const std::string where = "seed " + std::to_string(seed) +
                " tick " + std::to_string(tick);
            const bool pretty = forms == Forms::Pretty ||
                (forms == Forms::Alternating && tick % 2 == 0);
            if (pretty) {
                ASSERT_TRUE(
                    serve::publishStatus(*spool.manager, status_path));
                ASSERT_EQ(readFile(status_path),
                          oracle::statusJson(*spool.manager, true) +
                              "\n")
                    << where;
            } else {
                std::ostringstream compact;
                spool.manager->writeStatusJson(compact, false);
                ASSERT_EQ(compact.str(),
                          oracle::statusJson(*spool.manager, false))
                    << where;
            }

            ASSERT_TRUE(serve::publishMetrics(metrics_path));
            const std::string metrics = readFile(metrics_path);
            ASSERT_EQ(metrics,
                      oracle::openMetrics(
                          obs::MetricsRegistry::global().snapshot()))
                << where;
            ASSERT_EQ(exposeViolation(metrics), "") << where;
        }
    }
};

/** Every seed walks every lifecycle path the cache must survive. */
void
expectFullCoverage(const Coverage &seen)
{
    using serve::SessionState;
    for (const SessionState state :
         {SessionState::Ingesting, SessionState::Finalized,
          SessionState::Evicted, SessionState::Shed,
          SessionState::Quarantined})
        EXPECT_EQ(seen.states.count(state), 1u)
            << serve::sessionStateName(state) << " never reached";
    EXPECT_TRUE(seen.readmitted);
    EXPECT_TRUE(seen.recovered);
    EXPECT_TRUE(seen.transient_error);
}

TEST_F(ServePublishDifferential, PublishedPrettyMatchesFullRender)
{
    for (const std::uint64_t seed : {1, 2, 3}) {
        Coverage seen;
        run(seed, Forms::Pretty, seen);
        if (HasFatalFailure())
            return;
        expectFullCoverage(seen);
    }
}

TEST_F(ServePublishDifferential, CompactMatchesFullRender)
{
    for (const std::uint64_t seed : {4, 5}) {
        Coverage seen;
        run(seed, Forms::Compact, seen);
        if (HasFatalFailure())
            return;
        expectFullCoverage(seen);
    }
}

// The same statuses rendered pretty, then compact, then pretty
// again: every cached fragment's key returns to an earlier value
// (A→B→A) and must re-render rather than serve the compact bytes.
TEST_F(ServePublishDifferential, AlternatingFormsMatchFullRender)
{
    for (const std::uint64_t seed : {6, 7}) {
        Coverage seen;
        run(seed, Forms::Alternating, seen);
        if (HasFatalFailure())
            return;
        expectFullCoverage(seen);
    }
}

} // namespace
} // namespace tpupoint
