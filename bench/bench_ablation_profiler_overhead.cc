/**
 * @file
 * Ablation: profiling overhead. Section VII-C observes an average
 * performance loss under 10% from the profiling/optimization
 * instrumentation. This bench runs each workload with and without
 * TPUPoint-Profiler attached and reports the simulated slowdown.
 */

#include <algorithm>
#include <cstdio>

#include "bench/common.hh"
#include "profiler/profiler.hh"

using namespace tpupoint;

int
main(int argc, char **argv)
{
    benchutil::BenchReport report("ablation_profiler_overhead",
                                  argc, argv);
    benchutil::banner("Ablation: TPUPoint-Profiler overhead",
                      "Section VII-C (overhead under 10%)");

    std::printf("%-16s %12s %12s %10s %10s\n", "Workload",
                "unprofiled", "profiled", "overhead",
                "records");
    const std::vector<WorkloadId> ids = allWorkloads();
    const auto plain_runs =
        benchutil::plainSweep(ids, TpuGeneration::V2);
    const auto profiled_runs =
        benchutil::profiledSweep(ids, TpuGeneration::V2);
    double sum_overhead = 0;
    double max_overhead = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const SessionResult &plain = plain_runs[i];
        const auto &profiled = profiled_runs[i];
        const double overhead =
            static_cast<double>(profiled.result.wall_time) /
                static_cast<double>(plain.wall_time) - 1.0;
        sum_overhead += overhead;
        max_overhead = std::max(max_overhead, overhead);
        std::printf("%-16s %11.2fs %11.2fs %9.2f%% %10zu\n",
                    workloadName(ids[i]),
                    toSeconds(plain.wall_time),
                    toSeconds(profiled.result.wall_time),
                    100 * overhead, profiled.payloads.size());
    }
    std::printf("\nPaper: profiling/optimization overhead stays "
                "under 10%% of complete program execution.\n");
    report.figure("mean_overhead_pct",
                  100 * sum_overhead /
                      static_cast<double>(ids.size()));
    report.figure("max_overhead_pct", 100 * max_overhead);
    return report.write() ? 0 : 1;
}
