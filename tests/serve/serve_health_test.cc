/** @file Health/SLO reporting and observability publishing. */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/io_faults.hh"
#include "core/json.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "serve/serve.hh"
#include "tests/serve/spool_fixture.hh"

namespace tpupoint {
namespace {

using testutil::analyzableStream;
using testutil::ManagedSpool;
using testutil::readFile;
using testutil::writeFile;

struct ServeHealthTest : ::testing::Test
{
    void SetUp() override
    {
        io::FaultInjector::global().reset();
        obs::MetricsRegistry::global().reset();
        obs::FlightRecorder::global().disable();
    }
    void TearDown() override
    {
        io::FaultInjector::global().reset();
        obs::FlightRecorder::global().disable();
    }
};

TEST_F(ServeHealthTest, CleanFleetReportsOk)
{
    ManagedSpool spool("health_ok");
    spool.start();
    writeFile(spool.dir + "/run.tpp", analyzableStream());
    spool.manager->poll();

    const serve::HealthReport report = spool.manager->health();
    EXPECT_EQ(report.state, serve::HealthState::Ok);
    EXPECT_TRUE(report.issues.empty());
    EXPECT_STREQ(serve::healthStateName(report.state), "ok");
}

TEST_F(ServeHealthTest, ShedSessionDegrades)
{
    ManagedSpool spool("health_shed");
    spool.options.max_sessions = 1;
    spool.start();
    const std::string stream = analyzableStream();
    writeFile(spool.dir + "/aaa.tpp", stream);
    writeFile(spool.dir + "/bbb.tpp", stream);
    spool.manager->poll();

    const serve::HealthReport report = spool.manager->health();
    EXPECT_EQ(report.state, serve::HealthState::Degraded);
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_EQ(report.issues[0].kind, "shed");
    EXPECT_EQ(report.issues[0].session, "bbb");
}

TEST_F(ServeHealthTest, QuarantinedSessionIsUnhealthyAndDumps)
{
    ManagedSpool spool("health_quarantine");
    spool.options.quarantine_errors = 1;
    spool.options.flight_path =
        spool.dir + "/serve.flight.json";
    spool.start();
    obs::FlightRecorder::global().enable();
    writeFile(spool.dir + "/sick.tpp", analyzableStream());
    ASSERT_TRUE(io::FaultInjector::global().configure(
        "serve.spool_read=eio@1+"));
    spool.manager->poll();

    const serve::HealthReport report = spool.manager->health();
    EXPECT_EQ(report.state, serve::HealthState::Unhealthy);
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_EQ(report.issues[0].kind, "quarantined");
    EXPECT_EQ(report.issues[0].session, "sick");
    EXPECT_NE(report.issues[0].detail.find("eio"),
              std::string::npos);

    // The incident left a black box behind, valid and attributed.
    const std::string doc = readFile(spool.options.flight_path);
    ASSERT_FALSE(doc.empty());
    std::string why;
    EXPECT_TRUE(validateJson(doc, &why)) << why;
    EXPECT_NE(doc.find("\"reason\":\"quarantine: sick\""),
              std::string::npos);
}

TEST_F(ServeHealthTest, IngestLagSloDegradesAndSetsGauges)
{
    ManagedSpool spool("health_lag");
    spool.options.slo_max_lag_ms = 500;
    spool.options.idle_ttl_ms = 60 * 1000; // Stay live, lagging.
    spool.start();
    const std::string stream = analyzableStream();
    // An unfinished stream: the session ingests, then stalls.
    writeFile(spool.dir + "/slow.tpp",
              std::string_view(stream).substr(
                  0, stream.size() / 2));
    spool.manager->poll();
    spool.now = 2000;
    spool.manager->poll();

    const serve::HealthReport report = spool.manager->health();
    EXPECT_EQ(report.state, serve::HealthState::Degraded);
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_EQ(report.issues[0].kind, "slo-ingest-lag");
    EXPECT_EQ(report.issues[0].session, "slow");
    EXPECT_EQ(report.max_lag_session, "slow");
    EXPECT_GE(report.max_lag_ms, 2000);

    const auto snapshot =
        obs::MetricsRegistry::global().snapshot();
    EXPECT_GE(snapshot.gaugeOr(
                  "serve.session_lag_ms{session=slow}"),
              2000);
    EXPECT_GE(snapshot.gaugeOr("serve.ingest_lag_max_ms"), 2000);
}

TEST_F(ServeHealthTest, LagGaugeDropsToZeroOnceFinalized)
{
    ManagedSpool spool("health_lag_clear");
    spool.options.idle_ttl_ms = 1000;
    spool.start();
    const std::string stream = analyzableStream();
    writeFile(spool.dir + "/done.tpp", stream);
    spool.manager->poll();
    spool.now = 5000;
    spool.manager->poll();

    const auto snapshot =
        obs::MetricsRegistry::global().snapshot();
    EXPECT_EQ(snapshot.gaugeOr(
                  "serve.session_lag_ms{session=done}", -1),
              0);
}

TEST_F(ServeHealthTest, IngestP99SloDegrades)
{
    ManagedSpool spool("health_p99");
    spool.options.slo_p99_ingest_us = 1;
    spool.start();
    // Force a pathological tail directly into the shared
    // histogram: with an SLO of 1us, any real ingest violates it.
    obs::MetricsRegistry::global()
        .histogram("serve.ingest_chunk_us")
        .observe(1 << 20);
    const serve::HealthReport report = spool.manager->health();
    EXPECT_EQ(report.state, serve::HealthState::Degraded);
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_EQ(report.issues[0].kind, "slo-p99-ingest");
    EXPECT_TRUE(report.issues[0].session.empty());
    EXPECT_GT(report.p99_ingest_us, 1.0);
}

TEST_F(ServeHealthTest, StatusDocumentCarriesHealthSection)
{
    ManagedSpool spool("health_section");
    spool.options.max_sessions = 1;
    spool.start();
    const std::string stream = analyzableStream();
    writeFile(spool.dir + "/aaa.tpp", stream);
    writeFile(spool.dir + "/bbb.tpp", stream);
    spool.manager->poll();

    const std::string health_json = spool.section("health");
    std::string why;
    ASSERT_TRUE(validateJson(health_json, &why)) << why;
    EXPECT_NE(health_json.find("\"state\":\"degraded\""),
              std::string::npos)
        << health_json;
    EXPECT_NE(health_json.find("\"kind\":\"shed\""),
              std::string::npos);
    EXPECT_NE(health_json.find("\"issues\":"),
              std::string::npos);
}

TEST_F(ServeHealthTest, PublishMetricsWritesOpenMetricsAtomically)
{
    ManagedSpool spool("health_metrics");
    spool.start();
    writeFile(spool.dir + "/run.tpp", analyzableStream());
    spool.manager->poll();

    const std::string path = spool.dir + "/status.json.metrics";
    std::string error;
    ASSERT_TRUE(serve::publishMetrics(path, &error)) << error;
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    const std::string text = readFile(path);
    EXPECT_NE(text.find("# TYPE serve_sessions_discovered "
                        "counter"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("serve_sessions_discovered_total 1"),
              std::string::npos);
    // Labeled per-session gauges survive with proper label syntax.
    EXPECT_NE(
        text.find("serve_session_lag_ms{session=\"run\"}"),
        std::string::npos)
        << text;
    EXPECT_NE(text.find("serve_ingest_chunk_us_bucket"),
              std::string::npos);
    ASSERT_GE(text.size(), 6u);
    EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST_F(ServeHealthTest, PublishMetricsFailureLeavesNoTemp)
{
    ManagedSpool spool("health_metrics_fail");
    spool.start();
    ASSERT_TRUE(io::FaultInjector::global().configure(
        "serve.metrics_write=enospc@1"));
    const std::string path = spool.dir + "/m.metrics";
    std::string error;
    EXPECT_FALSE(serve::publishMetrics(path, &error));
    EXPECT_NE(error.find("enospc"), std::string::npos);
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    const auto snapshot =
        obs::MetricsRegistry::global().snapshot();
    EXPECT_EQ(
        snapshot.counterOr("serve.metrics_publish_errors"), 1u);
}

TEST_F(ServeHealthTest, PollRecordsSnapshotWhenFlightEnabled)
{
    obs::FlightRecorder &flight = obs::FlightRecorder::global();
    flight.enable();
    const std::uint64_t before = flight.recorded();
    ManagedSpool spool("health_flight_poll");
    spool.start();
    spool.manager->poll();
    flight.disable();
    EXPECT_GT(flight.recorded(), before);
}

} // namespace
} // namespace tpupoint
