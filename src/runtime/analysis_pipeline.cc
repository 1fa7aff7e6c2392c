#include "runtime/analysis_pipeline.hh"

#include <chrono>
#include <exception>
#include <fstream>
#include <sstream>

#include "obs/metrics.hh"
#include "obs/pool_metrics.hh"
#include "obs/span.hh"
#include "proto/serialize.hh"

namespace tpupoint {
namespace runtime {

namespace {

/** Charge a salvaging reader's damage to the metrics registry. */
void
chargeSalvageMetrics(const ProfileReader &reader)
{
    if (!reader.sawDamage())
        return;
    auto &registry = obs::MetricsRegistry::global();
    registry.counter("salvage.chunks_dropped")
        .add(reader.chunksDropped());
    registry.counter("salvage.records_dropped")
        .add(reader.recordsDropped());
    registry.counter("salvage.bytes_skipped")
        .add(reader.bytesSkipped());
}

/** Seconds elapsed since @p start. */
double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

void
chargeIngestMetrics(const std::string &session_label,
                    std::uint64_t events, std::uint64_t bytes,
                    double seconds)
{
    auto &registry = obs::MetricsRegistry::global();
    registry.counter("analyzer.events_ingested").add(events);
    if (seconds <= 0.0)
        return;
    const auto rate = static_cast<std::int64_t>(
        static_cast<double>(bytes) / seconds);
    // 64 KiB/s .. ~4 TiB/s in x4 buckets.
    obs::HistogramOptions buckets;
    buckets.first_bound = 64 * 1024;
    buckets.growth = 4;
    buckets.buckets = 14;
    registry.histogram("analyzer.ingest_pass_bytes_per_sec", buckets)
        .observe(static_cast<std::uint64_t>(rate < 0 ? 0 : rate));
    const std::string gauge_name =
        session_label.empty()
            ? "analyzer.ingest_bytes_per_sec"
            : "analyzer.ingest_bytes_per_sec{session=" +
                session_label + "}";
    registry.gauge(gauge_name).set(rate);
}

const char *
pipelineErrorName(PipelineError error)
{
    switch (error) {
      case PipelineError::None: return "none";
      case PipelineError::OpenFailed: return "open-failed";
      case PipelineError::Unreadable: return "unreadable";
      case PipelineError::Empty: return "empty";
      case PipelineError::Pending: return "pending";
    }
    return "unknown";
}

std::string
PipelineReport::salvageSummary() const
{
    if (!saw_damage)
        return "salvage: profile is intact";
    std::ostringstream out;
    out << "salvage: dropped " << chunks_dropped << " chunks, "
        << records_dropped << " records, skipped " << bytes_skipped
        << " bytes";
    if (truncated_tail)
        out << ", truncated tail";
    return out.str();
}

AnalysisPipeline::AnalysisPipeline(const PipelineOptions &options)
    : opts(options)
{
    if (opts.pool != nullptr) {
        active_pool = opts.pool;
    } else {
        ThreadPoolOptions pool_opts;
        pool_opts.workers = obs::resolveThreadCount(opts.threads);
        pool_opts.hooks = obs::instrumentedPoolHooks("analysis");
        owned_pool = std::make_unique<ThreadPool>(pool_opts);
        active_pool = owned_pool.get();
    }
}

PipelineReport
AnalysisPipeline::streamProfile(const std::string &path,
                                const ColumnarHook &hook) const
{
    PipelineReport report;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        report.error = PipelineError::OpenFailed;
        report.message = "cannot open profile '" + path + "'";
        return report;
    }
    try {
        const auto start = std::chrono::steady_clock::now();
        ProfileReader reader(in, opts.salvage);
        // One record reused across the whole stream: per-step
        // columns and op runs land in the same buffers every
        // iteration, so the steady-state loop allocates nothing.
        ColumnarRecord record;
        while (reader.read(record)) {
            ++report.records;
            report.events += record.event_count;
            report.events_dropped += record.events_dropped;
            if (hook)
                hook(record);
        }
        chargeSalvageMetrics(reader);
        // The batch CLIs keep the unlabeled ingest-rate gauge.
        chargeIngestMetrics("", report.events, reader.bytesRead(),
                            secondsSince(start));
        report.saw_damage = reader.sawDamage();
        report.chunks_dropped = reader.chunksDropped();
        report.records_dropped = reader.recordsDropped();
        report.bytes_skipped = reader.bytesSkipped();
        report.truncated_tail = reader.truncatedTail();
    } catch (const std::exception &error) {
        report.error = PipelineError::Unreadable;
        report.message = "unreadable profile '" + path +
            "': " + error.what();
        return report;
    }
    if (report.records == 0) {
        report.error = PipelineError::Empty;
        report.message =
            "profile '" + path + "' contains no records";
    }
    return report;
}

PipelineReport
AnalysisPipeline::analyzeProfile(
    const std::string &path, AnalysisResult *result,
    const std::vector<CheckpointInfo> &checkpoints,
    const ColumnarHook &hook) const
{
    AnalysisSession session(opts.analyzer);
    obs::TraceSpan ingest_span("analyze.ingest");
    const PipelineReport report = streamProfile(
        path, [&session, &hook](const ColumnarRecord &record) {
            if (hook)
                hook(record);
            session.ingest(record);
        });
    ingest_span.arg("records", report.records);
    ingest_span.arg("events", report.events);
    ingest_span.finish();
    if (!report.ok())
        return report;
    *result = session.finalize(checkpoints, *active_pool);
    return report;
}

} // namespace runtime
} // namespace tpupoint
