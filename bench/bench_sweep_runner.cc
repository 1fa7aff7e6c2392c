/**
 * @file
 * Ablation: the parallel sweep runner itself. Runs the same
 * multi-workload profiled sweep once on a single worker and once on
 * the full pool, reports the wall-clock speedup, and proves the two
 * sweeps are bit-identical: every profile record serializes to the
 * same bytes and every analysis finds the same phases regardless of
 * thread count.
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>
#include <vector>

#include "analyzer/analyzer.hh"
#include "bench/common.hh"
#include "obs/progress.hh"
#include "proto/serialize.hh"
#include "runtime/sweep.hh"

using namespace tpupoint;

namespace {

std::vector<SweepJob>
makeJobs()
{
    const std::vector<WorkloadId> ids = {
        WorkloadId::BertMrpc,      WorkloadId::BertCola,
        WorkloadId::DcganCifar10,  WorkloadId::DcganMnist,
        WorkloadId::QanetSquad,    WorkloadId::RetinanetCoco,
    };
    std::vector<SweepJob> jobs;
    for (const WorkloadId id : ids) {
        SweepJob job;
        job.workload = benchutil::buildScaled(id);
        job.config.device =
            TpuDeviceSpec::forGeneration(TpuGeneration::V2);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::vector<SweepOutcome>
timedRun(const SweepRunner &runner,
         const std::vector<SweepJob> &jobs, double *seconds)
{
    const auto begin = std::chrono::steady_clock::now();
    auto outcomes = runner.run(jobs);
    const auto end = std::chrono::steady_clock::now();
    *seconds = std::chrono::duration<double>(end - begin).count();
    return outcomes;
}

/** Bitwise comparison of two sweeps' full output. */
bool
identical(const std::vector<SweepOutcome> &a,
          const std::vector<SweepOutcome> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].payloads != b[i].payloads)
            return false;
        if (a[i].result.wall_time != b[i].result.wall_time ||
            a[i].profiler_bytes != b[i].profiler_bytes ||
            a[i].profile_requests != b[i].profile_requests)
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::BenchReport report("sweep_runner", argc, argv);
    benchutil::banner("Ablation: parallel sweep runner",
                      "Section V methodology (profiled workload "
                      "sweeps)");

    const std::vector<SweepJob> jobs = makeJobs();

    SweepOptions serial_options;
    serial_options.threads = 1;
    const SweepRunner serial(serial_options);

    // The pool run reports live job progress: a status line on a
    // terminal, one JSON object per event when stderr is a pipe.
    obs::ProgressReporter reporter(
        std::cerr, obs::ProgressReporter::autoMode(2));
    SweepOptions pool_options;
    pool_options.threads = benchutil::sweepThreads();
    pool_options.progress = std::ref(reporter);
    const SweepRunner pool(pool_options);

    std::printf("sweeping %zu profiled workloads: 1 thread vs %u "
                "threads\n\n",
                jobs.size(), pool.threads());

    double serial_s = 0, pool_s = 0;
    const auto serial_out = timedRun(serial, jobs, &serial_s);
    const auto pool_out = timedRun(pool, jobs, &pool_s);
    reporter.finish();

    std::printf("%-24s %10.2fs\n", "1 worker", serial_s);
    std::printf("%-24s %10.2fs  (%.2fx speedup)\n",
                "pool", pool_s,
                pool_s > 0 ? serial_s / pool_s : 0.0);

    const bool bitwise = identical(serial_out, pool_out);
    std::printf("\nbit-determinism: records + results %s across "
                "thread counts\n",
                bitwise ? "IDENTICAL" : "DIFFER (BUG)");

    // Per-job summary from the pool run, in job order.
    std::printf("\n%-16s %10s %10s %10s\n", "Workload", "wall",
                "records", "phases");
    for (const auto &outcome : pool_out) {
        const AnalysisResult analysis =
            TpuPointAnalyzer().analyze(outcome.payloads);
        std::printf("%-16s %9.1fs %10zu %10zu\n",
                    jobs[outcome.job_index].workload.name.c_str(),
                    toSeconds(outcome.result.wall_time),
                    outcome.payloads.size(),
                    analysis.phases.size());
    }
    report.figure("serial_s", serial_s);
    report.figure("pool_s", pool_s);
    report.figure("speedup", pool_s > 0 ? serial_s / pool_s : 0.0);
    report.figure("bitwise_identical", bitwise ? 1.0 : 0.0);
    return report.write() && bitwise ? 0 : 1;
}
