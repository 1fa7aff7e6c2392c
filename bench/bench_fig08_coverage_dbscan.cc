/**
 * @file
 * Figure 8: coverage of total execution time by the top three
 * phases from DBSCAN with minimum samples 30 (noise treated as a
 * cluster of its own, as the paper does).
 */

#include <cstdio>

#include "analyzer/analyzer.hh"
#include "bench/common.hh"

using namespace tpupoint;

int
main()
{
    benchutil::banner("Figure 8: top-3 phase coverage, DBSCAN "
                      "(min samples 30)",
                      "Figure 8 + Observation 2");

    std::printf("%-16s %8s %8s %10s\n", "Workload", "clusters",
                "noise%", "top3");
    const std::vector<WorkloadId> ids = allWorkloads();
    const auto runs =
        benchutil::profiledSweep(ids, TpuGeneration::V2);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const WorkloadId id = ids[i];
        const auto &run = runs[i];

        AnalyzerOptions options;
        options.algorithm = PhaseAlgorithm::Dbscan;
        options.dbscan_fixed_min_samples = 30;
        const AnalysisResult analysis =
            TpuPointAnalyzer(options).analyze(run.payloads);

        const DbscanResult &best =
            analysis.detections[0].dbscan.best;
        std::printf("%-16s %8d %7.1f%% %9.1f%%\n",
                    workloadName(id), best.clusters,
                    100 * best.noise_ratio,
                    100 * analysis.top3_coverage);
    }
    std::printf("\nPaper: the unlabeled (noise) samples form a "
                "cluster too, and the top 3 phases dominate "
                "execution time.\n");
    return 0;
}
