/**
 * @file
 * `tpupoint-analyze`: the offline half of the toolchain. Reads a
 * binary profile written by `tpupoint-profile` (or
 * TpuPointProfiler::writeRecords), runs TPUPoint-Analyzer with the
 * chosen phase detector(s), prints the phase summary and writes the
 * chrome://tracing JSON, phase CSV and analysis JSON next to the
 * input. Loading and analysis run through the shared
 * runtime::AnalysisPipeline; `--threads` sizes the pool that phase
 * detectors and their sweeps fan out on (results are bit-identical
 * for any thread count).
 *
 * Run with --help for the full flag list.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "analyzer/visualization.hh"
#include "core/strings.hh"
#include "obs/span.hh"
#include "runtime/analysis_pipeline.hh"
#include "tools/cli_common.hh"

using namespace tpupoint;

namespace {

std::vector<CheckpointInfo>
loadCheckpoints(const std::string &path)
{
    std::vector<CheckpointInfo> out;
    std::ifstream in(path);
    CheckpointInfo info;
    while (in >> info.step >> info.saved_at >> info.bytes)
        out.push_back(info);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_base;
    std::string trace_out;
    std::string metrics_out;
    runtime::PipelineOptions pipeline_options;
    pipeline_options.threads = 0; // TPUPOINT_THREADS, else hw
    AnalyzerOptions &options = pipeline_options.analyzer;

    cli::FlagParser parser("tpupoint-analyze", "PROFILE");
    parser.option("--algorithm", "ols|kmeans|dbscan",
                  "phase detector (default ols)",
                  [&](const char *value) {
                      if (!cli::parseAlgorithm(
                              value, &options.algorithm)) {
                          std::fprintf(stderr,
                                       "unknown algorithm\n");
                          return false;
                      }
                      return true;
                  });
    parser.option("--also", "ols|kmeans|dbscan",
                  "additional detector to run over the same table "
                  "(repeatable)",
                  [&](const char *value) {
                      PhaseAlgorithm extra;
                      if (!cli::parseAlgorithm(value, &extra)) {
                          std::fprintf(stderr,
                                       "unknown algorithm\n");
                          return false;
                      }
                      options.extra_algorithms.push_back(extra);
                      return true;
                  });
    parser.option("--threshold", "F",
                  "OLS similarity threshold (default 0.70)",
                  [&](const char *value) {
                      return cli::parseDouble(
                          "--threshold", value, 0.0, 1.0,
                          &options.ols_threshold);
                  });
    parser.option("--k", "N",
                  "fixed k for k-means (default: 1..15 sweep)",
                  [&](const char *value) {
                      std::int64_t parsed = 0;
                      if (!cli::parseInt(
                              "--k", value, 0,
                              std::numeric_limits<int>::max(),
                              &parsed))
                          return false;
                      options.kmeans_fixed_k =
                          static_cast<int>(parsed);
                      return true;
                  });
    parser.option("--min-samples", "N",
                  "fixed DBSCAN min-samples (default: sweep)",
                  [&](const char *value) {
                      std::uint64_t parsed = 0;
                      if (!cli::parseUint(
                              "--min-samples", value,
                              std::numeric_limits<
                                  std::uint32_t>::max(),
                              &parsed))
                          return false;
                      options.dbscan_fixed_min_samples =
                          static_cast<std::size_t>(parsed);
                      return true;
                  });
    parser.option("--out", "BASE",
                  "output base path (default: PROFILE)",
                  [&](const char *value) {
                      out_base = value;
                      return true;
                  });
    parser.toggle("--salvage",
                  "analyze what survives in a damaged profile and "
                  "report what was dropped",
                  [&]() { pipeline_options.salvage = true; });
    cli::addThreadsFlag(parser, &pipeline_options.threads);
    parser.option("--trace-out", "PATH",
                  "write the tool's own wall-time spans as "
                  "trace-event JSON",
                  [&](const char *value) {
                      trace_out = value;
                      return true;
                  });
    parser.option("--metrics-out", "PATH",
                  "write the process metrics registry as JSON",
                  [&](const char *value) {
                      metrics_out = value;
                      return true;
                  });

    if (argc < 2) {
        std::fprintf(stderr, "%s\n", parser.usage().c_str());
        return 2;
    }
    const std::string profile_path = argv[1];
    if (profile_path == "--help" || profile_path == "-h") {
        parser.printHelp(stdout);
        return 0;
    }
    switch (parser.parse(argc, argv, 2)) {
      case cli::FlagParser::Outcome::Help: return 0;
      case cli::FlagParser::Outcome::Error: return 2;
      case cli::FlagParser::Outcome::Ok: break;
    }
    if (out_base.empty())
        out_base = profile_path;

    if (!cli::profileReadable(profile_path))
        return 1;

    // Probe the output base before the (possibly long) analysis so
    // a bad --out fails immediately, not after minutes of work.
    {
        std::ofstream probe(out_base + ".trace.json",
                            std::ios::binary);
        if (!probe) {
            std::fprintf(stderr,
                         "error: cannot write output base '%s'\n",
                         out_base.c_str());
            return 1;
        }
    }

    // Stream the profile through the shared pipeline; the windows
    // for the trace viewer are collected off the same pass.
    runtime::AnalysisPipeline pipeline(pipeline_options);
    std::vector<ProfileWindowInfo> windows;
    const auto checkpoints =
        loadCheckpoints(profile_path + ".checkpoints");
    AnalysisResult analysis;
    const runtime::PipelineReport report = pipeline.analyzeProfile(
        profile_path, &analysis, checkpoints,
        [&windows](const ColumnarRecord &record) {
            // Attempt-boundary markers are zero-width stitching
            // directives, not profile windows; keep them out of
            // the trace viewer's window track.
            if (!record.attempt_boundary)
                windows.emplace_back(record);
        });
    if (!report.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     report.message.c_str());
        return 1;
    }
    if (pipeline_options.salvage)
        std::printf("%s\n", report.salvageSummary().c_str());

    std::printf("loaded %llu profile records, %zu checkpoints\n",
                static_cast<unsigned long long>(report.records),
                checkpoints.size());

    if (analysis.dropped_events > 0) {
        std::printf("warning: profiler dropped %llu events at "
                    "transport caps; capped windows undercount\n",
                    static_cast<unsigned long long>(
                        analysis.dropped_events));
    }

    if (analysis.attempts > 1) {
        // A stitched multi-attempt profile: report what the
        // preemptions cost. Replayed steps are in the table once,
        // marked; discarded rows never made it in.
        std::printf("\nattempts: %u (preempted %u times); "
                    "%llu steps replayed, %llu dropped at "
                    "boundaries (%s lost)\n",
                    analysis.attempts, analysis.attempts - 1,
                    static_cast<unsigned long long>(
                        analysis.replayed_steps),
                    static_cast<unsigned long long>(
                        analysis.discarded_steps),
                    formatDuration(
                        analysis.discarded_time).c_str());
    }

    std::printf("\n%s: %zu steps -> %zu phases (top-3 coverage "
                "%.1f%%)\n",
                phaseAlgorithmName(analysis.algorithm),
                analysis.table.size(), analysis.phases.size(),
                100 * analysis.top3_coverage);
    for (const auto *phase : phasesByDuration(analysis.phases)) {
        std::printf("  phase %d%s: steps %llu..%llu, %zu steps, "
                    "%s\n",
                    phase->id, phase->is_noise ? " (noise)" : "",
                    static_cast<unsigned long long>(
                        phase->first_step),
                    static_cast<unsigned long long>(
                        phase->last_step),
                    phase->size(),
                    formatDuration(
                        phase->total_duration).c_str());
    }
    // Extra detectors requested with --also: one summary line each.
    for (std::size_t i = 1; i < analysis.detections.size(); ++i) {
        const DetectorResult &extra = analysis.detections[i];
        std::printf("also %s: %zu phases (top-3 coverage "
                    "%.1f%%)\n",
                    phaseAlgorithmName(extra.algorithm),
                    extra.phases.size(),
                    100 * extra.top3_coverage);
    }
    const Phase *longest = analysis.longest();
    if (longest) {
        std::printf("\nlongest phase — top TPU ops:");
        for (const auto &op : topOps(longest->tpu_ops, 5))
            std::printf(" %s(%.0f%%)", op.name.c_str(),
                        100 * op.share);
        std::printf("\nlongest phase — top host ops:");
        for (const auto &op : topOps(longest->host_ops, 5))
            std::printf(" %s(%.0f%%)", op.name.c_str(),
                        100 * op.share);
        std::printf("\n");
    }

    // Each writer runs under its own analyze.write.* span, so
    // --trace-out accounts for output time too.
    const auto write_artifact =
        [](const char *span, const std::string &path,
           const auto &writer) -> bool {
        obs::TraceSpan write_span(span);
        std::ofstream out(path, std::ios::binary);
        if (out)
            writer(out);
        if (!out) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         path.c_str());
            return false;
        }
        return true;
    };
    const bool wrote_all =
        write_artifact("analyze.write.trace", out_base + ".trace.json",
                       [&](std::ostream &out) {
                           writeChromeTrace(analysis, windows,
                                            out);
                       }) &
        write_artifact("analyze.write.csv", out_base + ".phases.csv",
                       [&](std::ostream &out) {
                           writePhaseCsv(analysis, out);
                       }) &
        write_artifact("analyze.write.summary",
                       out_base + ".summary.json",
                       [&](std::ostream &out) {
                           writeAnalysisJson(analysis, out);
                       });
    if (!wrote_all)
        return 1;
    std::printf("\nwrote %s.trace.json, %s.phases.csv, "
                "%s.summary.json\n",
                out_base.c_str(), out_base.c_str(),
                out_base.c_str());
    if (!cli::writeTelemetry(trace_out, metrics_out))
        return 1;
    return 0;
}
