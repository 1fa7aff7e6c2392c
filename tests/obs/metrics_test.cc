/** @file Metrics registry: instruments, buckets, snapshots. */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "core/json.hh"
#include "obs/metrics.hh"

namespace tpupoint {
namespace obs {
namespace {

TEST(MetricsTest, CounterAccumulatesAndResets)
{
    MetricsRegistry registry;
    Counter &c = registry.counter("events");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsTest, GaugeIsLastWriteWins)
{
    MetricsRegistry registry;
    Gauge &g = registry.gauge("depth");
    g.set(7);
    g.set(-3);
    EXPECT_EQ(g.value(), -3);
}

TEST(MetricsTest, SameNameReturnsSameInstrument)
{
    MetricsRegistry registry;
    Counter &a = registry.counter("x");
    Counter &b = registry.counter("x");
    EXPECT_EQ(&a, &b);
    a.add(5);
    EXPECT_EQ(b.value(), 5u);
}

TEST(MetricsTest, HistogramBucketBoundariesAreInclusive)
{
    // Bounds 1, 2, 4, 8; bucket i counts v <= bound[i].
    HistogramOptions options;
    options.first_bound = 1;
    options.growth = 2;
    options.buckets = 4;
    MetricsRegistry registry;
    Histogram &h = registry.histogram("sizes", options);

    ASSERT_EQ(h.bounds().size(), 4u);
    EXPECT_EQ(h.bounds()[0], 1u);
    EXPECT_EQ(h.bounds()[1], 2u);
    EXPECT_EQ(h.bounds()[2], 4u);
    EXPECT_EQ(h.bounds()[3], 8u);

    EXPECT_EQ(h.bucketIndex(0), 0u);
    EXPECT_EQ(h.bucketIndex(1), 0u); // inclusive upper bound
    EXPECT_EQ(h.bucketIndex(2), 1u);
    EXPECT_EQ(h.bucketIndex(3), 2u);
    EXPECT_EQ(h.bucketIndex(4), 2u);
    EXPECT_EQ(h.bucketIndex(8), 3u);
    EXPECT_EQ(h.bucketIndex(9), 4u); // overflow bucket

    h.observe(1);
    h.observe(8);
    h.observe(8);
    h.observe(1000);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 1017u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(3), 2u);
    EXPECT_EQ(h.bucketCount(4), 1u);
}

TEST(MetricsTest, HistogramOptionsApplyOnlyOnCreation)
{
    MetricsRegistry registry;
    HistogramOptions small;
    small.buckets = 2;
    Histogram &first = registry.histogram("h", small);
    HistogramOptions big;
    big.buckets = 30;
    Histogram &second = registry.histogram("h", big);
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(second.bounds().size(), 2u);
}

TEST(MetricsTest, SnapshotAndResetCoverEveryInstrument)
{
    MetricsRegistry registry;
    registry.counter("jobs").add(3);
    registry.gauge("queue").set(9);
    registry.histogram("lat").observe(5);

    const MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at("jobs"), 3u);
    EXPECT_EQ(snap.gauges.at("queue"), 9);
    EXPECT_EQ(snap.histograms.at("lat").count, 1u);
    EXPECT_EQ(snap.histograms.at("lat").sum, 5u);

    registry.reset();
    const MetricsSnapshot zeroed = registry.snapshot();
    EXPECT_EQ(zeroed.counters.at("jobs"), 0u);
    EXPECT_EQ(zeroed.gauges.at("queue"), 0);
    EXPECT_EQ(zeroed.histograms.at("lat").count, 0u);
}

TEST(MetricsTest, JsonDumpIsValidAndNameSorted)
{
    MetricsRegistry registry;
    registry.counter("b.second").add(2);
    registry.counter("a.first").add(1);
    registry.gauge("depth").set(4);
    registry.histogram("lat").observe(3);

    std::ostringstream out;
    registry.writeJson(out);
    std::string error;
    EXPECT_TRUE(validateJson(out.str(), &error)) << error;
    // Name-sorted field order keeps dumps diffable.
    EXPECT_LT(out.str().find("a.first"), out.str().find("b.second"));
    EXPECT_NE(out.str().find("\"counters\""), std::string::npos);
    EXPECT_NE(out.str().find("\"gauges\""), std::string::npos);
    EXPECT_NE(out.str().find("\"histograms\""), std::string::npos);
}

TEST(MetricsTest, TextDumpListsValues)
{
    MetricsRegistry registry;
    registry.counter("jobs").add(12);
    std::ostringstream out;
    registry.writeText(out);
    EXPECT_NE(out.str().find("jobs"), std::string::npos);
    EXPECT_NE(out.str().find("12"), std::string::npos);
}

TEST(MetricsTest, ConcurrentAddsNeverLoseCounts)
{
    MetricsRegistry registry;
    Counter &c = registry.counter("hot");
    constexpr int kThreads = 8;
    constexpr int kAdds = 10000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&c] {
            for (int i = 0; i < kAdds; ++i)
                c.add();
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(c.value(),
              static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(MetricsTest, GlobalRegistryIsAProcessSingleton)
{
    EXPECT_EQ(&MetricsRegistry::global(),
              &MetricsRegistry::global());
}

TEST(MetricsTest, HistogramQuantileReportsBucketUpperBound)
{
    MetricsRegistry registry;
    HistogramOptions options;
    options.first_bound = 10;
    options.growth = 10;
    options.buckets = 3; // Bounds 10, 100, 1000.
    Histogram &h = registry.histogram("latency", options);
    // 90 observations in the first bucket, 9 in the second, 1 in
    // the third: a classic latency tail.
    for (int i = 0; i < 90; ++i)
        h.observe(5);
    for (int i = 0; i < 9; ++i)
        h.observe(50);
    h.observe(500);

    const auto snapshot = registry.snapshot();
    const auto &data = snapshot.histograms.at("latency");
    EXPECT_EQ(data.count, 100u);
    EXPECT_DOUBLE_EQ(histogramQuantile(data, 0.5), 10.0);
    EXPECT_DOUBLE_EQ(histogramQuantile(data, 0.9), 10.0);
    EXPECT_DOUBLE_EQ(histogramQuantile(data, 0.95), 100.0);
    EXPECT_DOUBLE_EQ(histogramQuantile(data, 0.99), 100.0);
    EXPECT_DOUBLE_EQ(histogramQuantile(data, 1.0), 1000.0);
}

TEST(MetricsTest, HistogramQuantileEdgeCases)
{
    MetricsSnapshot::HistogramData empty;
    EXPECT_DOUBLE_EQ(histogramQuantile(empty, 0.99), 0.0);

    MetricsRegistry registry;
    HistogramOptions options;
    options.first_bound = 10;
    options.growth = 10;
    options.buckets = 2; // Bounds 10, 100.
    Histogram &h = registry.histogram("overflow", options);
    h.observe(5);
    h.observe(12345); // Lands in the overflow bucket.
    const auto snapshot = registry.snapshot();
    const auto &data = snapshot.histograms.at("overflow");
    // Overflow observations can only report the last finite
    // bound — a lower bound on the truth, not an invention.
    EXPECT_DOUBLE_EQ(histogramQuantile(data, 1.0), 100.0);
    EXPECT_DOUBLE_EQ(histogramQuantile(data, 0.25), 10.0);
}

TEST(MetricsTest, HistogramQuantileSingleBucket)
{
    MetricsSnapshot::HistogramData data;
    data.count = 5;
    data.sum = 25;
    data.bounds = {10};
    data.bucket_counts = {5, 0};
    EXPECT_DOUBLE_EQ(histogramQuantile(data, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(histogramQuantile(data, 0.5), 10.0);
    EXPECT_DOUBLE_EQ(histogramQuantile(data, 1.0), 10.0);
}

TEST(MetricsTest, HistogramQuantileClampsDegenerateQ)
{
    MetricsSnapshot::HistogramData data;
    data.count = 4;
    data.bounds = {10, 100};
    data.bucket_counts = {2, 2, 0};
    // Out-of-range q clamps instead of indexing garbage; NaN
    // behaves as q=0, never casts into the rank arithmetic.
    EXPECT_DOUBLE_EQ(histogramQuantile(data, -3.0), 10.0);
    EXPECT_DOUBLE_EQ(histogramQuantile(data, 7.0), 100.0);
    EXPECT_DOUBLE_EQ(histogramQuantile(data, std::nan("")), 10.0);
}

TEST(MetricsTest, HistogramQuantileBoundaryRanks)
{
    MetricsSnapshot::HistogramData data;
    data.count = 100;
    data.bounds = {10, 100};
    data.bucket_counts = {50, 50, 0};
    // Rank ceil(q*N): the 50th observation still sits in bucket 0,
    // the 51st in bucket 1 — q=0.5 must not round up a bucket.
    EXPECT_DOUBLE_EQ(histogramQuantile(data, 0.5), 10.0);
    EXPECT_DOUBLE_EQ(histogramQuantile(data, 0.51), 100.0);
    EXPECT_DOUBLE_EQ(histogramQuantile(data, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(histogramQuantile(data, 1.0), 100.0);
}

TEST(MetricsTest, ParseMetricNameSplitsLabels)
{
    const ParsedMetricName plain = parseMetricName("serve.polls");
    EXPECT_EQ(plain.base, "serve.polls");
    EXPECT_TRUE(plain.labels.empty());

    const ParsedMetricName labeled = parseMetricName(
        "analyzer.ingest_bytes_per_sec{session=run1}");
    EXPECT_EQ(labeled.base, "analyzer.ingest_bytes_per_sec");
    ASSERT_EQ(labeled.labels.size(), 1u);
    EXPECT_EQ(labeled.labels[0].first, "session");
    EXPECT_EQ(labeled.labels[0].second, "run1");

    const ParsedMetricName multi =
        parseMetricName("m{a=1,b=two}");
    EXPECT_EQ(multi.base, "m");
    ASSERT_EQ(multi.labels.size(), 2u);
    EXPECT_EQ(multi.labels[1].first, "b");
    EXPECT_EQ(multi.labels[1].second, "two");
}

TEST(MetricsTest, EscapeLabelValueCoversSpecCharacters)
{
    EXPECT_EQ(escapeLabelValue("plain"), "plain");
    EXPECT_EQ(escapeLabelValue("a\"b"), "a\\\"b");
    EXPECT_EQ(escapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(escapeLabelValue("a\nb"), "a\\nb");
    // A value exercising every escape at once survives intact.
    EXPECT_EQ(escapeLabelValue("\\\"\n"), "\\\\\\\"\\n");
}

/** The registry's OpenMetrics exposition as a string. */
std::string
openMetrics(const MetricsRegistry &registry)
{
    std::string out;
    registry.writeOpenMetrics(out);
    return out;
}

TEST(MetricsTest, OpenMetricsGoldenExposition)
{
    MetricsRegistry registry;
    registry.counter("analyzer.jobs{session=run1}").add(7);
    registry.counter("serve.records_ingested").add(42);
    registry.gauge("analyzer.ingest_bytes_per_sec{session=run1}")
        .set(1024);
    HistogramOptions options;
    options.first_bound = 10;
    options.growth = 10;
    options.buckets = 2;
    Histogram &h =
        registry.histogram("serve.ingest_chunk_us", options);
    for (const std::uint64_t v : {5, 5, 20})
        h.observe(v);

    EXPECT_EQ(openMetrics(registry),
              "# TYPE analyzer_jobs counter\n"
              "analyzer_jobs_total{session=\"run1\"} 7\n"
              "# TYPE serve_records_ingested counter\n"
              "serve_records_ingested_total 42\n"
              "# TYPE analyzer_ingest_bytes_per_sec gauge\n"
              "analyzer_ingest_bytes_per_sec{session=\"run1\"} "
              "1024\n"
              "# TYPE serve_ingest_chunk_us histogram\n"
              "serve_ingest_chunk_us_bucket{le=\"10\"} 2\n"
              "serve_ingest_chunk_us_bucket{le=\"100\"} 3\n"
              "serve_ingest_chunk_us_bucket{le=\"+Inf\"} 3\n"
              "serve_ingest_chunk_us_sum 30\n"
              "serve_ingest_chunk_us_count 3\n"
              "# EOF\n");
}

TEST(MetricsTest, OpenMetricsEscapesHostileLabelValues)
{
    MetricsRegistry registry;
    registry.gauge("lag{session=evil\"name\\with\nnewline}").set(5);
    const std::string text = openMetrics(registry);
    EXPECT_NE(
        text.find(
            "lag{session=\"evil\\\"name\\\\with\\nnewline\"} 5"),
        std::string::npos)
        << text;
    // The exposition never carries a raw newline inside a label.
    EXPECT_EQ(text.find("evil\"name"), std::string::npos);
}

TEST(MetricsTest, JsonAndOpenMetricsAgreeOnOneSnapshot)
{
    MetricsRegistry registry;
    registry.counter("jobs").add(9);
    registry.gauge("depth{session=s1}").set(-4);
    HistogramOptions options;
    options.first_bound = 8;
    options.buckets = 2;
    registry.histogram("lat_us", options).observe(5);

    // Both renderings read the same quiescent registry, so a
    // scraper reading the OpenMetrics file and an operator reading
    // the JSON dump never disagree about a value.
    std::ostringstream json;
    registry.writeJson(json);
    const std::string text = openMetrics(registry);

    std::string error;
    EXPECT_TRUE(validateJson(json.str(), &error)) << error;
    EXPECT_NE(json.str().find("\"jobs\":9"), std::string::npos)
        << json.str();
    EXPECT_NE(text.find("jobs_total 9"), std::string::npos);
    EXPECT_NE(json.str().find("\"depth{session=s1}\":-4"),
              std::string::npos)
        << json.str();
    EXPECT_NE(text.find("depth{session=\"s1\"} -4"),
              std::string::npos);
    EXPECT_NE(text.find("lat_us_count 1"), std::string::npos);
    // The terminator proves a scrape read the whole document.
    ASSERT_GE(text.size(), 6u);
    EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(MetricsTest, OpenMetricsSanitizesNames)
{
    MetricsRegistry registry;
    registry.counter("serve.odd-name").add(1);
    registry.counter("9starts_with_digit").add(2);
    const std::string text = openMetrics(registry);
    EXPECT_NE(text.find("serve_odd_name_total 1"), std::string::npos);
    EXPECT_NE(text.find("_9starts_with_digit_total 2"),
              std::string::npos);
}

TEST(MetricsTest, OpenMetricsSeriesRegisteredAfterARenderSortIn)
{
    MetricsRegistry registry;
    registry.gauge("lag{session=b}").set(2);
    EXPECT_EQ(openMetrics(registry),
              "# TYPE lag gauge\n"
              "lag{session=\"b\"} 2\n"
              "# EOF\n");
    registry.gauge("lag{session=c}").set(3);
    registry.gauge("lag{session=a}").set(1);
    // New series land in name order inside their family, which
    // keeps its single # TYPE line.
    EXPECT_EQ(openMetrics(registry),
              "# TYPE lag gauge\n"
              "lag{session=\"a\"} 1\n"
              "lag{session=\"b\"} 2\n"
              "lag{session=\"c\"} 3\n"
              "# EOF\n");
}

TEST(MetricsTest, OpenMetricsAfterResetRendersZeros)
{
    MetricsRegistry registry;
    registry.counter("jobs").add(9);
    registry.gauge("depth{session=s1}").set(-4);
    HistogramOptions options;
    options.first_bound = 8;
    options.buckets = 1;
    registry.histogram("lat_us", options).observe(100);
    registry.reset();
    EXPECT_EQ(openMetrics(registry),
              "# TYPE jobs counter\n"
              "jobs_total 0\n"
              "# TYPE depth gauge\n"
              "depth{session=\"s1\"} 0\n"
              "# TYPE lat_us histogram\n"
              "lat_us_bucket{le=\"8\"} 0\n"
              "lat_us_bucket{le=\"+Inf\"} 0\n"
              "lat_us_sum 0\n"
              "lat_us_count 0\n"
              "# EOF\n");
}

} // namespace
} // namespace obs
} // namespace tpupoint
