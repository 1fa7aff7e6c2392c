/**
 * @file
 * Table II: the top 5 most time-consuming operators in the most
 * time-consuming phase, per phase-detection algorithm, on both the
 * host and the TPU, for TPUv2 and TPUv3. The paper's headline
 * findings: `fusion` is the most time-consuming TPU operator
 * overall, `Reshape`/`MatMul` follow, and the host is dominated by
 * OutfeedDequeueTuple and TransferBufferToInfeedLocked.
 */

#include <cstdio>
#include <map>
#include <string>

#include "analyzer/analyzer.hh"
#include "bench/common.hh"

using namespace tpupoint;

namespace {

/** Tally of how often each operator makes a top-5 list. */
std::map<std::string, int> host_tally_v2, tpu_tally_v2;
std::map<std::string, int> host_tally_v3, tpu_tally_v3;

void
analyzeOne(WorkloadId id, TpuGeneration generation,
           const benchutil::RunOutput &run)
{
    const bool is_v2 = generation == TpuGeneration::V2;

    const PhaseAlgorithm algorithms[] = {
        PhaseAlgorithm::KMeans, PhaseAlgorithm::Dbscan,
        PhaseAlgorithm::OnlineLinearScan};

    if (is_v2)
        std::printf("\n--- %s (%s) ---\n", workloadName(id),
                    tpuGenerationName(generation));

    for (const PhaseAlgorithm algorithm : algorithms) {
        AnalyzerOptions options;
        options.algorithm = algorithm;
        // The paper's Section VI-B Table II settings.
        options.kmeans_fixed_k = 5;
        options.dbscan_fixed_min_samples = 30;
        const AnalysisResult analysis =
            TpuPointAnalyzer(options).analyze(run.payloads);
        const Phase *longest = analysis.longest();
        if (!longest)
            continue;

        const auto tpu_top = topOps(longest->tpu_ops, 5);
        const auto host_top = topOps(longest->host_ops, 5);
        for (const auto &op : tpu_top)
            ++(is_v2 ? tpu_tally_v2 : tpu_tally_v3)[op.name];
        for (const auto &op : host_top)
            ++(is_v2 ? host_tally_v2 : host_tally_v3)[op.name];

        if (!is_v2)
            continue;
        std::printf("  %-8s TPU :",
                    phaseAlgorithmName(algorithm));
        for (const auto &op : tpu_top)
            std::printf(" %s(%.0f%%)", op.name.c_str(),
                        100 * op.share);
        std::printf("\n  %-8s host:",
                    phaseAlgorithmName(algorithm));
        for (const auto &op : host_top)
            std::printf(" %s(%.0f%%)", op.name.c_str(),
                        100 * op.share);
        std::printf("\n");
    }
}

void
printTally(const char *title,
           const std::map<std::string, int> &v2,
           const std::map<std::string, int> &v3)
{
    // Order by v2 count descending, as the Table II total columns.
    std::vector<std::pair<std::string, int>> ranked(v2.begin(),
                                                    v2.end());
    for (const auto &[name, count] : v3) {
        if (!v2.count(name))
            ranked.emplace_back(name, 0);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    std::printf("\n%s (appearances in top-5 lists):\n", title);
    std::printf("  %-34s %10s %10s\n", "Operator", "TotalTPUv2",
                "TotalTPUv3");
    for (const auto &[name, count] : ranked) {
        const auto it = v3.find(name);
        std::printf("  %-34s %10d %10d\n", name.c_str(), count,
                    it == v3.end() ? 0 : it->second);
    }
}

} // namespace

int
main()
{
    benchutil::banner("Table II: top-5 operators of the longest "
                      "phase (k-means k=5, DBSCAN min=30, OLS "
                      "70%)",
                      "Table II + Observations 3-5");

    // Both generations profile in one parallel sweep each; the
    // tallying stays serial so the printed order is unchanged.
    const std::vector<WorkloadId> ids = allWorkloads();
    const auto v2_runs =
        benchutil::profiledSweep(ids, TpuGeneration::V2);
    const auto v3_runs =
        benchutil::profiledSweep(ids, TpuGeneration::V3);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        analyzeOne(ids[i], TpuGeneration::V2, v2_runs[i]);
        analyzeOne(ids[i], TpuGeneration::V3, v3_runs[i]);
    }

    printTally("Host operations", host_tally_v2, host_tally_v3);
    printTally("TPU operations", tpu_tally_v2, tpu_tally_v3);

    std::printf("\nPaper: fusion tops the TPU list (23 appearances"
                " each on v2/v3); OutfeedDequeueTuple and\n"
                "TransferBufferToInfeedLocked top the host list; "
                "Reshape grows on TPUv3 (15 -> 18).\n");
    return 0;
}
