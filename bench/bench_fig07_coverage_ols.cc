/**
 * @file
 * Figure 7: coverage of total execution time by the top three
 * phases found by OLS at the 70% similarity threshold. The paper
 * reports at least 95% coverage for every workload.
 */

#include <cstdio>

#include "analyzer/analyzer.hh"
#include "bench/common.hh"

using namespace tpupoint;

int
main()
{
    benchutil::banner("Figure 7: top-3 phase coverage, OLS @ 70%",
                      "Figure 7 + Observation 2");

    std::printf("%-16s %8s %10s %10s %10s %10s\n", "Workload",
                "phases", "phase1", "phase2", "phase3", "top3");
    const std::vector<WorkloadId> ids = allWorkloads();
    const auto runs =
        benchutil::profiledSweep(ids, TpuGeneration::V2);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const WorkloadId id = ids[i];
        const auto &run = runs[i];

        AnalyzerOptions options;
        options.algorithm = PhaseAlgorithm::OnlineLinearScan;
        options.ols_threshold = 0.70;
        const AnalysisResult analysis =
            TpuPointAnalyzer(options).analyze(run.payloads);

        SimTime total = 0;
        for (const auto &phase : analysis.phases)
            total += phase.total_duration;
        const auto sorted = phasesByDuration(analysis.phases);
        double shares[3] = {0, 0, 0};
        for (std::size_t s = 0; s < sorted.size() && s < 3; ++s) {
            shares[s] = total ? static_cast<double>(
                sorted[s]->total_duration) /
                static_cast<double>(total) : 0.0;
        }
        std::printf("%-16s %8zu %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n",
                    workloadName(id), analysis.phases.size(),
                    100 * shares[0], 100 * shares[1],
                    100 * shares[2],
                    100 * analysis.top3_coverage);
    }
    std::printf("\nPaper: the top 3 phases cover at least 95%% of "
                "execution for every workload at 70%%.\n");
    return 0;
}
