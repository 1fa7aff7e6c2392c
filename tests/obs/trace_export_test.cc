/** @file Trace-event JSON export: golden format and filters. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/json.hh"
#include "obs/trace_export.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace obs {
namespace {

/** A hand-built window whose timings print as clean integers. */
ProfileRecord
tinyWindow()
{
    StepStats step;
    step.step = 3;
    step.begin = 1000; // ns -> 1 us in the trace
    step.end = 5000;
    OpStats matmul;
    matmul.count = 2;
    matmul.total_duration = 3000;
    step.tpu_ops["MatMul"] = matmul;
    OpStats recv;
    recv.count = 1;
    recv.total_duration = 1000;
    step.host_ops["Recv"] = recv;

    ProfileRecord record;
    record.sequence = 0;
    record.window_begin = 0;
    record.window_end = 10000;
    record.event_count = 3;
    record.tpu_idle_fraction = 0.5;
    record.mxu_utilization = 0.25;
    record.steps.push_back(step);
    return record;
}

ProfileRecord
boundaryMarker()
{
    ProfileRecord record;
    record.attempt_boundary = true;
    record.attempt = 2;
    record.window_begin = 10000;
    record.preempted_at_step = 7;
    record.resume_step = 4;
    return record;
}

/**
 * The golden test: pins the exported trace-event JSON byte for
 * byte. chrome://tracing and Perfetto both parse this document —
 * any change to the format must update this expectation
 * deliberately.
 */
TEST(TraceExportTest, GoldenProfileTrace)
{
    std::ostringstream out;
    ProfileTraceWriter writer(out);
    writer.add(testutil::columnar(tinyWindow()));
    writer.add(testutil::columnar(boundaryMarker()));
    writer.finish();

    const std::string expected =
        "{\"traceEvents\":["
        // Track names (one metadata event per tid).
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":1,\"args\":{\"name\":\"Steps\"}},"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":2,\"args\":{\"name\":\"TPU ops\"}},"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":3,\"args\":{\"name\":\"Host ops\"}},"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":4,\"args\":{\"name\":\"Profile windows\"}},"
        // The profile window itself.
        "{\"name\":\"profile 0\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":4,\"ts\":0,\"dur\":10,\"args\":{\"count\":3}},"
        // Device counters sampled with the window.
        "{\"name\":\"tpu_idle_fraction\",\"ph\":\"C\",\"pid\":1,"
        "\"ts\":0,\"args\":{\"value\":0.5}},"
        "{\"name\":\"mxu_utilization\",\"ph\":\"C\",\"pid\":1,"
        "\"ts\":0,\"args\":{\"value\":0.25}},"
        // One X event per step, then per per-step op row.
        "{\"name\":\"step 3\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
        "\"ts\":1,\"dur\":4},"
        "{\"name\":\"MatMul\",\"ph\":\"X\",\"pid\":1,\"tid\":2,"
        "\"ts\":1,\"dur\":3,\"args\":{\"count\":2}},"
        "{\"name\":\"Recv\",\"ph\":\"X\",\"pid\":1,\"tid\":3,"
        "\"ts\":1,\"dur\":1,\"args\":{\"count\":1}},"
        // Instant event at the attempt boundary.
        "{\"name\":\"preempted (attempt 2)\",\"ph\":\"i\","
        "\"pid\":1,\"tid\":1,\"ts\":10,\"s\":\"g\","
        "\"args\":{\"preempted_at_step\":7,\"resume_step\":4,"
        "\"attempt\":2}}"
        "],\"displayTimeUnit\":\"ms\"}";
    EXPECT_EQ(out.str(), expected);

    std::string error;
    EXPECT_TRUE(validateJson(out.str(), &error)) << error;
}

TEST(TraceExportTest, EveryOpBecomesOneDurationEvent)
{
    const auto steps = testutil::threePhaseRun(10, 2);
    const ProfileRecord record = testutil::makeRecord(steps);

    std::uint64_t op_rows = 0;
    for (const auto &s : record.steps)
        op_rows += s.tpu_ops.size() + s.host_ops.size();

    std::ostringstream out;
    ProfileTraceWriter writer(out);
    writer.add(testutil::columnar(record));
    writer.finish();
    // window + one per step + one per op row.
    EXPECT_EQ(writer.durationEvents(),
              1 + record.steps.size() + op_rows);
    EXPECT_EQ(writer.instantEvents(), 0u);

    std::string error;
    EXPECT_TRUE(validateJson(out.str(), &error)) << error;
}

TEST(TraceExportTest, StepRangeFilterCountsWhatItSkips)
{
    const ProfileRecord record =
        testutil::makeRecord(testutil::threePhaseRun(10, 2));
    ProfileTraceOptions options;
    options.first_step = 2;
    options.last_step = 4;

    std::ostringstream out;
    ProfileTraceWriter writer(out, options);
    writer.add(testutil::columnar(record));
    writer.finish();
    EXPECT_EQ(writer.stepsFiltered(), record.steps.size() - 3);
    EXPECT_NE(out.str().find("\"step 3\""), std::string::npos);
    EXPECT_EQ(out.str().find("\"step 7\""), std::string::npos);
}

TEST(TraceExportTest, OpAndCounterTracksCanBeSuppressed)
{
    ProfileTraceOptions options;
    options.include_ops = false;
    options.include_counters = false;

    std::ostringstream out;
    ProfileTraceWriter writer(out, options);
    writer.add(testutil::columnar(tinyWindow()));
    writer.finish();
    EXPECT_EQ(out.str().find("MatMul"), std::string::npos);
    EXPECT_EQ(out.str().find("tpu_idle_fraction"),
              std::string::npos);
    EXPECT_NE(out.str().find("\"step 3\""), std::string::npos);
}

// Columnar entries are sorted by interned id, which follows first
// sight, not the alphabet; op rows must still come out by name.
TEST(TraceExportTest, OpRowsFollowNameOrderNotInternOrder)
{
    StringInterner::global().intern("export-order-z");
    const ProfileRecord record = testutil::makeRecord(
        {testutil::makeStep(0, {"export-order-z", "export-order-a"})});
    const ColumnarRecord columnar = testutil::columnar(record);
    ASSERT_EQ(columnar.tpuOps(0).size(), 2u);
    ASSERT_EQ(StringInterner::global().view(columnar.tpuOps(0)[0].op),
              "export-order-z");

    std::ostringstream out;
    ProfileTraceWriter writer(out);
    writer.add(columnar);
    writer.finish();
    const std::size_t a = out.str().find("export-order-a");
    const std::size_t z = out.str().find("export-order-z");
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(z, std::string::npos);
    EXPECT_LT(a, z);
}

TEST(TraceExportTest, SpanTraceNormalizesToZeroOrigin)
{
    SpanRecord a;
    a.name = "analyze.ingest";
    a.thread_id = 1;
    a.begin_ns = 5'000'000;
    a.end_ns = 7'000'000;
    SpanRecord b;
    b.name = "analyze.kmeans";
    b.thread_id = 2;
    b.begin_ns = 6'000'000;
    b.end_ns = 6'500'000;
    b.args.emplace_back("steps", "97");

    std::ostringstream out;
    writeSpanTrace({a, b}, out);
    const std::string text = out.str();
    std::string error;
    EXPECT_TRUE(validateJson(text, &error)) << error;
    // Earliest span starts at ts 0; the later one at +1000 us.
    EXPECT_NE(text.find("\"ts\":0,\"dur\":2000"),
              std::string::npos);
    EXPECT_NE(text.find("\"ts\":1000,\"dur\":500"),
              std::string::npos);
    EXPECT_NE(text.find("\"pid\":2"), std::string::npos);
    EXPECT_NE(text.find("\"steps\":\"97\""), std::string::npos);
}

} // namespace
} // namespace obs
} // namespace tpupoint
