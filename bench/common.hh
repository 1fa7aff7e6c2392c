/**
 * @file
 * Shared plumbing for the per-figure/per-table benchmark binaries:
 * scaled workload construction, profiled platform runs and tabular
 * output helpers.
 *
 * Step-count scaling: the paper's full training runs span hours of
 * TPU time (ResNet: 112,590 steps). Every bench replays each
 * workload with all cadences (train/eval/checkpoint) scaled
 * together, which preserves phase structure, operator mix and
 * utilization while keeping each binary's runtime in seconds. The
 * scale used per workload is printed with every table.
 */

#ifndef TPUPOINT_BENCH_COMMON_HH
#define TPUPOINT_BENCH_COMMON_HH

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "analyzer/step_table.hh"
#include "host/pipeline.hh"
#include "runtime/session.hh"
#include "tpu/spec.hh"
#include "workloads/catalog.hh"

namespace tpupoint {
namespace benchutil {

/** Simulation scale for one workload (fraction of real steps). */
double workloadScale(WorkloadId id);

/** Build the workload at its bench scale. */
RuntimeWorkload buildScaled(WorkloadId id);

/** Everything one profiled platform run produces. */
struct RunOutput
{
    SessionResult result;
    std::vector<std::string> payloads; ///< The profile's records.
    std::vector<CheckpointInfo> checkpoints;
};

/** Run @p workload once with TPUPoint-Profiler attached. */
RunOutput profiledRun(const RuntimeWorkload &workload,
                      TpuGeneration generation,
                      const PipelineConfig &pipeline =
                          PipelineConfig{});

/** Decode a profile's record payloads into @p builder. */
void ingestPayloads(StepTableBuilder &builder,
                    const std::vector<std::string> &payloads);

/** The step table of a profile's record payloads. */
StepTable stepTable(const std::vector<std::string> &payloads);

/** Run without the profiler (platform metrics only). */
SessionResult plainRun(const RuntimeWorkload &workload,
                       TpuGeneration generation,
                       const PipelineConfig &pipeline =
                           PipelineConfig{});

/**
 * Worker threads for bench sweeps: the `--threads N` flag (parsed
 * by BenchReport) if given, else TPUPOINT_SWEEP_THREADS, else 0 —
 * which lets SweepRunner resolve through the process-wide knob
 * (TPUPOINT_THREADS, then hardware concurrency). The thread count
 * never changes the numbers a bench prints — sweeps are
 * bit-deterministic — only how long the bench takes.
 */
unsigned sweepThreads();

/** One profiled run per workload, in parallel, in input order. */
std::vector<RunOutput> profiledSweep(
    const std::vector<WorkloadId> &ids, TpuGeneration generation,
    const PipelineConfig &pipeline = PipelineConfig{});

/** One plain run per workload, in parallel, in input order. */
std::vector<SessionResult> plainSweep(
    const std::vector<WorkloadId> &ids, TpuGeneration generation,
    const PipelineConfig &pipeline = PipelineConfig{});

/** Print the standard bench banner. */
void banner(const std::string &title,
            const std::string &paper_reference);

/** Print one row of right-aligned columns. */
void row(const std::vector<std::string> &cells,
         const std::vector<int> &widths);

/**
 * Machine-readable bench results. Every bench binary accepts
 * `--json PATH`; when given, the bench writes one JSON object —
 * bench name, wall-clock milliseconds, and the key figures it
 * printed — so CI and regression scripts can diff bench output
 * without scraping tables.
 *
 * @code
 *   BenchReport report("fig10_idle_time", argc, argv);
 *   ...
 *   report.figure("v2_idle_pct", 38.2);
 *   return report.write() ? 0 : 1;
 * @endcode
 */
class BenchReport
{
  public:
    /** Parse bench argv (`--json PATH` and `--threads N`; anything
     * else exits 2) and start the wall clock. `--threads` feeds
     * sweepThreads() for the whole process. */
    BenchReport(const std::string &bench_name, int argc,
                char **argv);

    /** Record one named figure. */
    void figure(const std::string &name, double value);

    /** True when `--json` was requested. */
    bool enabled() const { return !path.empty(); }

    /** The `--threads N` value (0 = not given; resolve via
     * sweepThreads() / obs::resolveThreadCount()). */
    unsigned threads() const { return thread_count; }

    /**
     * Write the report when `--json PATH` was given (no-op and
     * true otherwise). Returns false after printing an error when
     * the file cannot be written.
     */
    bool write() const;

  private:
    std::string name;
    std::string path;
    unsigned thread_count = 0;
    std::chrono::steady_clock::time_point started;
    std::vector<std::pair<std::string, double>> figures;
};

} // namespace benchutil
} // namespace tpupoint

#endif // TPUPOINT_BENCH_COMMON_HH
