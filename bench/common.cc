#include "bench/common.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>

#include "core/json.hh"
#include "core/logging.hh"
#include "core/strings.hh"
#include "obs/logger.hh"
#include "obs/progress.hh"
#include "profiler/profiler.hh"
#include "runtime/sweep.hh"

namespace tpupoint {
namespace benchutil {

double
workloadScale(WorkloadId id)
{
    switch (id) {
      // The short-running workloads (the paper's sub-20-minute
      // group) replay at or near full scale.
      case WorkloadId::BertMrpc: return 1.0;   // 344 steps
      case WorkloadId::BertCola: return 1.0;   // 801 steps
      case WorkloadId::BertSquad: return 0.3;  // ~2463 steps
      case WorkloadId::BertMnli: return 0.05;  // ~1840 steps
      case WorkloadId::DcganCifar10: return 0.2;
      case WorkloadId::DcganMnist: return 0.2;
      // The hour-scale workloads replay time-scaled.
      case WorkloadId::QanetSquad: return 0.01;
      case WorkloadId::RetinanetCoco: return 0.03;
      case WorkloadId::ResnetImagenet: return 0.008;
      case WorkloadId::QanetSquadHalf: return 0.01;
      case WorkloadId::RetinanetCocoHalf: return 0.03;
      case WorkloadId::ResnetCifar10: return 0.008;
    }
    return 0.01;
}

RuntimeWorkload
buildScaled(WorkloadId id)
{
    WorkloadOptions options;
    options.step_scale = workloadScale(id);
    return makeWorkload(id, options);
}

RunOutput
profiledRun(const RuntimeWorkload &workload,
            TpuGeneration generation,
            const PipelineConfig &pipeline)
{
    Simulator sim;
    SessionConfig config;
    config.device = TpuDeviceSpec::forGeneration(generation);
    config.pipeline = pipeline;
    TrainingSession session(sim, config, workload);
    TpuPointProfiler profiler(sim, session);
    profiler.start(/*analyzer=*/true);
    session.start(nullptr);
    sim.run();
    profiler.stop();

    RunOutput out;
    out.result = session.result();
    out.payloads = profiler.payloads();
    out.checkpoints = session.checkpoints().checkpoints();
    return out;
}

void
ingestPayloads(StepTableBuilder &builder,
               const std::vector<std::string> &payloads)
{
    ColumnarDecoder decoder;
    ColumnarRecord record;
    for (const std::string &payload : payloads) {
        if (!decoder.decode(payload, record, StringInterner::global()))
            fatal("ingestPayloads: malformed record payload");
        builder.ingest(record);
    }
}

StepTable
stepTable(const std::vector<std::string> &payloads)
{
    StepTableBuilder builder;
    ingestPayloads(builder, payloads);
    return std::move(builder).build();
}

SessionResult
plainRun(const RuntimeWorkload &workload, TpuGeneration generation,
         const PipelineConfig &pipeline)
{
    Simulator sim;
    SessionConfig config;
    config.device = TpuDeviceSpec::forGeneration(generation);
    config.pipeline = pipeline;
    TrainingSession session(sim, config, workload);
    session.start(nullptr);
    sim.run();
    return session.result();
}

namespace {

/** Set by BenchReport when the bench was given `--threads N`. */
unsigned requested_sweep_threads = 0;

} // namespace

unsigned
sweepThreads()
{
    if (requested_sweep_threads > 0)
        return requested_sweep_threads;
    if (const char *env = std::getenv("TPUPOINT_SWEEP_THREADS")) {
        std::uint64_t parsed = 0;
        if (parseUint64(env, &parsed) && parsed > 0 &&
            parsed <= std::numeric_limits<unsigned>::max())
            return static_cast<unsigned>(parsed);
        obs::logWarn("bench", "ignoring TPUPOINT_SWEEP_THREADS: "
                              "want a positive integer",
                     {{"value", env}});
    }
    return 0; // 0 = SweepRunner resolves TPUPOINT_THREADS / hw.
}

namespace {

std::vector<SweepOutcome>
sweep(const std::vector<WorkloadId> &ids, TpuGeneration generation,
      const PipelineConfig &pipeline, bool profile)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(ids.size());
    for (const WorkloadId id : ids) {
        SweepJob job;
        job.workload = buildScaled(id);
        job.config.device =
            TpuDeviceSpec::forGeneration(generation);
        job.config.pipeline = pipeline;
        job.profile = profile;
        jobs.push_back(std::move(job));
    }
    SweepOptions options;
    options.threads = sweepThreads();
    // Progress goes to stderr — a repainted status line on a
    // terminal, JSONL on a pipe — leaving the bench's stdout
    // tables untouched.
    obs::ProgressReporter reporter(
        std::cerr, obs::ProgressReporter::autoMode(2));
    options.progress = std::ref(reporter);
    auto outcomes = SweepRunner(options).run(jobs);
    reporter.finish();
    return outcomes;
}

} // namespace

std::vector<RunOutput>
profiledSweep(const std::vector<WorkloadId> &ids,
              TpuGeneration generation,
              const PipelineConfig &pipeline)
{
    auto outcomes = sweep(ids, generation, pipeline, true);
    std::vector<RunOutput> outputs(outcomes.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        outputs[i].result = outcomes[i].result;
        outputs[i].payloads = std::move(outcomes[i].payloads);
        outputs[i].checkpoints =
            std::move(outcomes[i].checkpoints);
    }
    return outputs;
}

std::vector<SessionResult>
plainSweep(const std::vector<WorkloadId> &ids,
           TpuGeneration generation,
           const PipelineConfig &pipeline)
{
    auto outcomes = sweep(ids, generation, pipeline, false);
    std::vector<SessionResult> results(outcomes.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        results[i] = outcomes[i].result;
    return results;
}

void
banner(const std::string &title, const std::string &paper_reference)
{
    std::printf("==============================================="
                "=============================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paper_reference.c_str());
    std::printf("==============================================="
                "=============================\n");
}

BenchReport::BenchReport(const std::string &bench_name, int argc,
                         char **argv)
    : name(bench_name), started(std::chrono::steady_clock::now())
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            path = argv[++i];
        } else if (arg == "--threads" && i + 1 < argc) {
            std::uint64_t parsed = 0;
            if (!parseUint64(argv[++i], &parsed) ||
                parsed >
                    std::numeric_limits<unsigned>::max()) {
                std::fprintf(stderr,
                             "--threads wants an integer "
                             ">= 0, got '%s'\n",
                             argv[i]);
                std::exit(2);
            }
            thread_count = static_cast<unsigned>(parsed);
            requested_sweep_threads = thread_count;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--json PATH] "
                         "[--threads N]\n",
                         name.c_str());
            std::exit(2);
        }
    }
}

void
BenchReport::figure(const std::string &name_in, double value)
{
    figures.emplace_back(name_in, value);
}

bool
BenchReport::write() const
{
    if (path.empty())
        return true;
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - started)
            .count();
    std::ofstream out(path, std::ios::binary);
    if (out) {
        JsonWriter w(out);
        w.beginObject();
        w.field("bench", name);
        w.field("wall_ms", wall_ms);
        w.key("figures");
        w.beginObject();
        for (const auto &[key, value] : figures)
            w.field(key, value);
        w.endObject();
        w.endObject();
        out << '\n';
    }
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     path.c_str());
        return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
}

void
row(const std::vector<std::string> &cells,
    const std::vector<int> &widths)
{
    std::string line;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const int width =
            i < widths.size() ? widths[i] : 12;
        line += padLeft(cells[i],
                        static_cast<std::size_t>(width));
        line += "  ";
    }
    std::printf("%s\n", line.c_str());
}

} // namespace benchutil
} // namespace tpupoint
