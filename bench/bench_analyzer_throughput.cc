/**
 * @file
 * Analyzer ingest throughput: the columnar pipeline (zero-copy
 * chunk reads, interned op ids, struct-of-arrays step table, flat
 * feature matrix) runs decode -> step table -> feature extraction
 * over a serialized ResNet-scale profile; the bench reports MB/s
 * and events/sec.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>

#include "analyzer/features.hh"
#include "analyzer/step_table.hh"
#include "bench/common.hh"
#include "proto/serialize.hh"

using namespace tpupoint;

namespace {

/** Wall seconds one callable takes. */
template <typename Fn>
double
timeSeconds(Fn &&fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** What the pass boils the profile down to. */
struct PassResult
{
    std::size_t steps = 0;
    std::size_t dims = 0;
};

/** The columnar pipeline the analyzer runs. */
PassResult
columnarPass(const std::string &payload)
{
    std::istringstream in(payload);
    ProfileReader reader(in);
    ColumnarRecord record;
    StepTableBuilder builder;
    while (reader.read(record))
        builder.ingest(record);
    const StepTable table = std::move(builder).build();
    const FeatureMatrix features = FeatureMatrix::build(table);
    return {table.size(), features.dimensions()};
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::BenchReport report("analyzer_throughput", argc,
                                  argv);
    benchutil::banner(
        "Analyzer ingest throughput: columnar path",
        "columnar core (interned SoA table, zero-copy reads)");

    // One ResNet-scale profiled run, serialized several times over
    // so the pass chews through a multi-megabyte stream. Repeats
    // re-ingest the same step ids, which also exercises the
    // merge-into-existing-row path.
    constexpr int kRepeats = 24;
    constexpr int kIterations = 5;
    const auto run = benchutil::profiledRun(
        benchutil::buildScaled(WorkloadId::ResnetImagenet),
        TpuGeneration::V2);
    // Count events against a scratch interner, so the timed
    // passes below still meet the global one cold.
    std::uint64_t events = 0;
    {
        StringInterner scratch;
        ColumnarDecoder decoder;
        ColumnarRecord record;
        for (const std::string &record_payload : run.payloads) {
            if (!decoder.decode(record_payload, record, scratch))
                fatal("bench: malformed record payload");
            events += kRepeats * record.event_count;
        }
    }
    std::ostringstream buffer;
    {
        RecordStreamWriter writer(buffer);
        for (int repeat = 0; repeat < kRepeats; ++repeat) {
            for (const std::string &record_payload : run.payloads)
                writer.append(record_payload);
        }
        writer.finish();
    }
    const std::string payload = buffer.str();
    const double megabytes =
        static_cast<double>(payload.size()) / (1024.0 * 1024.0);
    std::printf("profile: %zu records x%d, %.1f MiB, %llu "
                "events\n\n",
                run.payloads.size(), kRepeats, megabytes,
                static_cast<unsigned long long>(events));

    // Best-of-N wall time; the first pass also pays the one-time
    // interner fill, which best-of absorbs.
    double columnar_seconds = 1e300;
    PassResult columnar;
    for (int iter = 0; iter < kIterations; ++iter) {
        columnar_seconds = std::min(
            columnar_seconds,
            timeSeconds([&] { columnar = columnarPass(payload); }));
    }

    const double columnar_eps =
        static_cast<double>(events) / columnar_seconds;
    const double columnar_mbps = megabytes / columnar_seconds;

    std::printf("%-10s %12s %14s %8s %6s\n", "Path", "MB/s",
                "events/sec", "steps", "dims");
    std::printf("%-10s %12.1f %14.0f %8zu %6zu\n", "columnar",
                columnar_mbps, columnar_eps, columnar.steps,
                columnar.dims);

    report.figure("columnar_mb_per_sec", columnar_mbps);
    report.figure("columnar_events_per_sec", columnar_eps);
    return report.write() ? 0 : 1;
}
