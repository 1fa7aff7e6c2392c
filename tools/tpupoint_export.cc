/**
 * @file
 * `tpupoint-export`: convert a binary profile written by
 * `tpupoint-profile` into trace-event JSON loadable in Perfetto or
 * chrome://tracing. Each per-step operator row becomes an `X`
 * duration event on its device track, steps and profile windows get
 * their own tracks, idle/MXU device meta-data becomes counter
 * tracks, and every attempt boundary (preemption) becomes an
 * instant event. The profile streams through the shared
 * runtime::AnalysisPipeline reader (records are never materialized
 * as a list).
 *
 * Run with --help for the full flag list.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "core/json.hh"
#include "core/strings.hh"
#include "obs/trace_export.hh"
#include "runtime/analysis_pipeline.hh"
#include "tools/cli_common.hh"

using namespace tpupoint;

namespace {

/** Parse "A:B" into an inclusive step range (strict integers). */
bool
parseStepRange(std::string_view text, StepId *first, StepId *last)
{
    const std::size_t colon = text.find(':');
    return colon != std::string_view::npos &&
        parseUint64(text.substr(0, colon), first) &&
        parseUint64(text.substr(colon + 1), last) &&
        *first <= *last;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path;
    obs::ProfileTraceOptions options;
    runtime::PipelineOptions pipeline_options;
    bool check = false;

    cli::FlagParser parser("tpupoint-export", "PROFILE");
    parser.optionWithAlias(
        "--out", "-o", "PATH",
        "output path (default: PROFILE.trace.json)",
        [&](const char *value) {
            out_path = value;
            return true;
        });
    parser.option("--steps", "A:B",
                  "export only steps A through B inclusive",
                  [&](const char *value) {
                      if (!parseStepRange(value,
                                          &options.first_step,
                                          &options.last_step)) {
                          std::fprintf(
                              stderr,
                              "error: --steps wants A:B with "
                              "A <= B\n");
                          return false;
                      }
                      return true;
                  });
    parser.toggle("--no-ops",
                  "skip per-op rows (steps + windows only)",
                  [&]() { options.include_ops = false; });
    parser.toggle("--no-counters",
                  "skip the idle/MXU counter tracks",
                  [&]() { options.include_counters = false; });
    parser.toggle("--pretty", "indent the JSON",
                  [&]() { options.pretty = true; });
    parser.toggle("--salvage",
                  "convert what survives in a damaged profile "
                  "instead of failing on the first bad chunk",
                  [&]() { pipeline_options.salvage = true; });
    parser.toggle("--check",
                  "re-read the written file and validate it as "
                  "JSON (exit 1 on malformed output)",
                  [&]() { check = true; });

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
    if (out_path.empty())
        out_path = profile_path + ".trace.json";

    if (!cli::profileReadable(profile_path))
        return 1;

    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }

    // Stream records straight from the pipeline's profile reader
    // into the trace writer: memory stays bounded by one record
    // however large the profile is.
    const runtime::AnalysisPipeline pipeline(pipeline_options);
    obs::ProfileTraceWriter writer(out, options);
    const runtime::PipelineReport report = pipeline.streamProfile(
        profile_path, [&writer](const ColumnarRecord &record) {
            writer.add(record);
        });
    if (!report.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     report.message.c_str());
        return 1;
    }
    writer.finish();
    if (report.saw_damage)
        std::printf("%s\n", report.salvageSummary().c_str());
    std::printf("exported %llu records: %llu duration events, "
                "%llu instant events",
                static_cast<unsigned long long>(report.records),
                static_cast<unsigned long long>(
                    writer.durationEvents()),
                static_cast<unsigned long long>(
                    writer.instantEvents()));
    if (writer.stepsFiltered() > 0)
        std::printf(", %llu steps outside --steps",
                    static_cast<unsigned long long>(
                        writer.stepsFiltered()));
    std::printf("\n");
    if (report.events_dropped > 0)
        std::printf("warning: profiler dropped %llu events at "
                    "transport caps; capped windows "
                    "undercount\n",
                    static_cast<unsigned long long>(
                        report.events_dropped));
    out.flush();
    if (!out) {
        std::fprintf(stderr, "error: failed writing %s\n",
                     out_path.c_str());
        return 1;
    }
    out.close();

    if (check) {
        std::ifstream reread(out_path, std::ios::binary);
        std::ostringstream text;
        text << reread.rdbuf();
        std::string error;
        if (!reread || !validateJson(text.str(), &error)) {
            std::fprintf(stderr,
                         "error: %s is not valid JSON: %s\n",
                         out_path.c_str(), error.c_str());
            return 1;
        }
        std::printf("checked: %s is valid JSON (%zu bytes)\n",
                    out_path.c_str(), text.str().size());
    }

    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
