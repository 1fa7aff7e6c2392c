/**
 * @file
 * Figure 5: DBSCAN clustering results — the ratio of noisy samples
 * to total samples as the minimum required samples sweeps 5..180 in
 * steps of 25. The paper finds 30..80 minimum samples optimal,
 * producing 3..13 clusters.
 */

#include <cstdio>

#include "analyzer/dbscan.hh"
#include "analyzer/features.hh"
#include "analyzer/step_table.hh"
#include "bench/common.hh"

using namespace tpupoint;

int
main()
{
    benchutil::banner("Figure 5: DBSCAN noise ratio vs minimum "
                      "samples (5..180 step 25)",
                      "Figure 5 + Section VI-A");

    bool header_printed = false;
    for (const WorkloadId id : allWorkloads()) {
        const RuntimeWorkload w = benchutil::buildScaled(id);
        const auto run =
            benchutil::profiledRun(w, TpuGeneration::V2);
        const StepTable table =
            benchutil::stepTable(run.payloads);
        const FeatureMatrix features = FeatureMatrix::build(table);
        const DbscanSweep sweep = dbscanSweep(features.matrix());

        if (!header_printed) {
            std::printf("%-16s", "min_samples =");
            for (const std::size_t m : sweep.min_samples_values)
                std::printf(" %6zu", m);
            std::printf("   elbow  clusters\n");
            header_printed = true;
        }
        std::printf("%-16s", workloadName(id));
        for (const double noise : sweep.noise_curve)
            std::printf(" %6.3f", noise);
        std::printf("   %5zu  %8d\n", sweep.elbow_min_samples,
                    sweep.best.clusters);
    }
    std::printf("\nPaper: 30..80 minimum samples are optimal and "
                "produce 3..13 clusters.\n");
    return 0;
}
