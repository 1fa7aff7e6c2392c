/**
 * @file
 * Full TPUPoint-Analyzer session: profile a chosen workload, run a
 * chosen phase-detection algorithm and write the analyzer's output
 * files — the chrome://tracing JSON of Figure 3, the companion CSV,
 * the machine-readable analysis JSON and the raw binary profile.
 *
 * Usage:
 *   analyze_workload [workload] [algorithm]
 *     workload:  bert-squad | bert-mrpc | dcgan | qanet |
 *                retinanet | resnet         (default: dcgan)
 *     algorithm: ols | kmeans | dbscan      (default: ols)
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "analyzer/visualization.hh"
#include "core/logging.hh"
#include "profiler/profiler.hh"
#include "proto/serialize.hh"
#include "runtime/session.hh"
#include "workloads/catalog.hh"

using namespace tpupoint;

namespace {

WorkloadId
parseWorkload(const char *name)
{
    const std::string w = name;
    if (w == "bert-squad")
        return WorkloadId::BertSquad;
    if (w == "bert-mrpc")
        return WorkloadId::BertMrpc;
    if (w == "qanet")
        return WorkloadId::QanetSquad;
    if (w == "retinanet")
        return WorkloadId::RetinanetCoco;
    if (w == "resnet")
        return WorkloadId::ResnetImagenet;
    return WorkloadId::DcganCifar10;
}

PhaseAlgorithm
parseAlgorithm(const char *name)
{
    const std::string a = name;
    if (a == "kmeans")
        return PhaseAlgorithm::KMeans;
    if (a == "dbscan")
        return PhaseAlgorithm::Dbscan;
    return PhaseAlgorithm::OnlineLinearScan;
}

} // namespace

int
main(int argc, char **argv)
{
    const WorkloadId id =
        parseWorkload(argc > 1 ? argv[1] : "dcgan");
    const PhaseAlgorithm algorithm =
        parseAlgorithm(argc > 2 ? argv[2] : "ols");

    WorkloadOptions options;
    options.step_scale = 0.03;
    options.max_train_steps = 800;
    const RuntimeWorkload workload = makeWorkload(id, options);

    std::printf("profiling %s with the %s detector...\n",
                workload.name.c_str(),
                phaseAlgorithmName(algorithm));

    Simulator sim;
    SessionConfig config;
    TrainingSession session(sim, config, workload);
    TpuPointProfiler profiler(sim, session);
    profiler.start(true);
    session.start(nullptr);
    sim.run();
    profiler.stop();

    AnalyzerOptions analyzer_options;
    analyzer_options.algorithm = algorithm;
    const AnalysisResult analysis =
        TpuPointAnalyzer(analyzer_options)
            .analyze(profiler.payloads(),
                     session.checkpoints().checkpoints());

    std::printf("steps: %zu   phases: %zu   top-3 coverage: "
                "%.1f%%\n",
                analysis.table.size(), analysis.phases.size(),
                100 * analysis.top3_coverage);
    // detections is empty only when the run recorded no steps.
    const DetectorResult detection = analysis.detections.empty()
        ? DetectorResult{}
        : analysis.detections.front();
    if (algorithm == PhaseAlgorithm::KMeans) {
        std::printf("k-means elbow: k = %d (SSD curve over "
                    "k=1..15)\n",
                    detection.kmeans.elbow_k);
    }
    if (algorithm == PhaseAlgorithm::Dbscan) {
        std::printf("DBSCAN elbow: min_samples = %zu, clusters = "
                    "%d, noise = %.1f%%\n",
                    detection.dbscan.elbow_min_samples,
                    detection.dbscan.best.clusters,
                    100 * detection.dbscan.best.noise_ratio);
    }
    for (const auto &assoc : analysis.checkpoints) {
        std::printf("phase %d fast-forwards from checkpoint at "
                    "step %llu (distance %llu steps)\n",
                    assoc.phase_id,
                    static_cast<unsigned long long>(
                        assoc.checkpoint_step),
                    static_cast<unsigned long long>(
                        assoc.distance));
    }

    // Write the analyzer's output files.
    const std::string base = "tpupoint_analysis";
    {
        std::vector<ProfileWindowInfo> windows;
        ColumnarDecoder decoder;
        ColumnarRecord columnar;
        for (const std::string &payload : profiler.payloads()) {
            if (!decoder.decode(payload, columnar,
                                StringInterner::global()))
                fatal("analyze_workload: malformed record payload");
            windows.emplace_back(columnar);
        }
        std::ofstream out(base + ".trace.json");
        writeChromeTrace(analysis, windows, out);
    }
    {
        std::ofstream out(base + ".phases.csv");
        writePhaseCsv(analysis, out);
    }
    {
        std::ofstream out(base + ".summary.json");
        writeAnalysisJson(analysis, out);
    }
    {
        std::ofstream out(base + ".profile.bin",
                          std::ios::binary);
        profiler.writeRecords(out);
    }
    std::printf("\nwrote %s.trace.json (open in "
                "chrome://tracing), %s.phases.csv,\n"
                "%s.summary.json and %s.profile.bin\n",
                base.c_str(), base.c_str(), base.c_str(),
                base.c_str());
    return 0;
}
