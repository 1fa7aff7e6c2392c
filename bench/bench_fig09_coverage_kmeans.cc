/**
 * @file
 * Figure 9: coverage of total execution time by the top three
 * phases from k-means with k = 5. The paper notes that even with
 * more than 3 clusters, the top 3 still dominate.
 */

#include <cstdio>

#include "analyzer/analyzer.hh"
#include "bench/common.hh"

using namespace tpupoint;

int
main()
{
    benchutil::banner("Figure 9: top-3 phase coverage, k-means "
                      "(k = 5)",
                      "Figure 9 + Observation 2");

    std::printf("%-16s %8s %10s\n", "Workload", "clusters",
                "top3");
    const std::vector<WorkloadId> ids = allWorkloads();
    const auto runs =
        benchutil::profiledSweep(ids, TpuGeneration::V2);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const WorkloadId id = ids[i];
        const auto &run = runs[i];

        AnalyzerOptions options;
        options.algorithm = PhaseAlgorithm::KMeans;
        options.kmeans_fixed_k = 5;
        const AnalysisResult analysis =
            TpuPointAnalyzer(options).analyze(run.payloads);

        std::printf("%-16s %8zu %9.1f%%\n", workloadName(id),
                    analysis.phases.size(),
                    100 * analysis.top3_coverage);
    }
    std::printf("\nPaper: with k = 5 the top 3 clusters still "
                "dominate total execution time.\n");
    return 0;
}
