/**
 * @file
 * Golden byte-identity suite for the analyzer outputs. The columnar
 * refactor of the analyzer core (interned step tables, flat feature
 * matrix, zero-copy reads) must not change a single output byte:
 * every artifact here — analyze CSV/JSON, the exported trace, the
 * comparison report, and the salvage path — is compared verbatim
 * against goldens generated from the pre-refactor row-oriented
 * implementation, for --threads 1, 2 and 8.
 *
 * Regenerate (only when an output format intentionally changes):
 *   TPUPOINT_UPDATE_GOLDENS=1 ./integration_test \
 *       --gtest_filter='GoldenOutput*'
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer/compare.hh"
#include "analyzer/visualization.hh"
#include "core/thread_pool.hh"
#include "obs/trace_export.hh"
#include "profiler/profiler.hh"
#include "proto/serialize.hh"
#include "tests/analyzer/synthetic.hh"
#include "workloads/catalog.hh"

#ifndef TPUPOINT_GOLDEN_DIR
#error "TPUPOINT_GOLDEN_DIR must be defined by the build"
#endif

namespace tpupoint {
namespace {

struct ProfiledRun
{
    std::vector<std::string> payloads;
    std::vector<CheckpointInfo> checkpoints;
};

/** Deterministic profiled run (same recipe as end_to_end_test). */
ProfiledRun
profileWorkload(WorkloadId id, TpuGeneration gen)
{
    WorkloadOptions options;
    options.step_scale = 0.02;
    options.max_train_steps = 300;
    const RuntimeWorkload w = makeWorkload(id, options);

    Simulator sim;
    SessionConfig config;
    config.device = TpuDeviceSpec::forGeneration(gen);
    TrainingSession session(sim, config, w);
    TpuPointProfiler profiler(sim, session);
    profiler.start(true);
    session.start(nullptr);
    sim.run();
    profiler.stop();

    ProfiledRun run;
    run.payloads = profiler.payloads();
    run.checkpoints = session.checkpoints().checkpoints();
    return run;
}

/** Serialize a run to the binary container format. */
std::string
encodeProfile(const std::vector<std::string> &payloads)
{
    std::ostringstream out(std::ios::binary);
    RecordStreamWriter writer(out);
    for (const std::string &payload : payloads)
        writer.append(payload);
    writer.finish();
    return out.str();
}

bool
updateGoldens()
{
    const char *env = std::getenv("TPUPOINT_UPDATE_GOLDENS");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/** Compare @p produced against the named golden file byte-wise. */
void
expectGolden(const std::string &name, const std::string &produced)
{
    const std::string path =
        std::string(TPUPOINT_GOLDEN_DIR) + "/" + name;
    if (updateGoldens()) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write golden " << path;
        out << produced;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden " << path
                    << " (run with TPUPOINT_UPDATE_GOLDENS=1)";
    std::ostringstream expected;
    expected << in.rdbuf();
    if (expected.str() != produced) {
        // Locate the first divergent byte for a usable failure.
        const std::string &a = expected.str();
        std::size_t i = 0;
        while (i < a.size() && i < produced.size() &&
               a[i] == produced[i])
            ++i;
        FAIL() << name << " differs from golden at byte " << i
               << " (golden " << a.size() << " bytes, produced "
               << produced.size() << " bytes)\n  golden  ...\""
               << a.substr(i > 30 ? i - 30 : 0, 60)
               << "\"\n  produced...\""
               << produced.substr(i > 30 ? i - 30 : 0, 60) << "\"";
    }
}

/** One full analysis with all three detectors at @p threads. */
AnalysisResult
analyzeAll(const std::vector<std::string> &payloads,
           const std::vector<CheckpointInfo> &checkpoints,
           unsigned threads, std::size_t max_dimensions = 100)
{
    AnalyzerOptions options;
    options.algorithm = PhaseAlgorithm::OnlineLinearScan;
    options.extra_algorithms = {PhaseAlgorithm::KMeans,
                                PhaseAlgorithm::Dbscan};
    options.features.max_dimensions = max_dimensions;
    ThreadPool pool(threads);
    return TpuPointAnalyzer(options).analyze(payloads, checkpoints,
                                             pool);
}

std::string
phaseCsv(const AnalysisResult &analysis)
{
    std::ostringstream out;
    writePhaseCsv(analysis, out);
    return out.str();
}

std::string
analysisJson(const AnalysisResult &analysis)
{
    std::ostringstream out;
    writeAnalysisJson(analysis, out, /*pretty=*/true);
    return out.str();
}

const ProfiledRun &
runV2()
{
    static const ProfiledRun run =
        profileWorkload(WorkloadId::DcganCifar10,
                        TpuGeneration::V2);
    return run;
}

const ProfiledRun &
runV3()
{
    static const ProfiledRun run =
        profileWorkload(WorkloadId::DcganCifar10,
                        TpuGeneration::V3);
    return run;
}

TEST(GoldenOutput, AnalyzeCsvAndJsonAcrossThreadCounts)
{
    const ProfiledRun &run = runV2();
    ASSERT_FALSE(run.payloads.empty());

    const AnalysisResult serial =
        analyzeAll(run.payloads, run.checkpoints, 1);
    const std::string csv = phaseCsv(serial);
    const std::string json = analysisJson(serial);
    expectGolden("analyze_phases.csv", csv);
    expectGolden("analyze.json", json);

    for (const unsigned threads : {2u, 8u}) {
        const AnalysisResult parallel =
            analyzeAll(run.payloads, run.checkpoints, threads);
        EXPECT_EQ(phaseCsv(parallel), csv)
            << "CSV diverges at --threads " << threads;
        EXPECT_EQ(analysisJson(parallel), json)
            << "JSON diverges at --threads " << threads;
    }
}

TEST(GoldenOutput, PcaReducedAnalysis)
{
    // max_dimensions 8 forces the PCA reduction path (the DCGAN op
    // universe is wider than 8 raw dimensions). k-means is the
    // primary algorithm so the projected features' numerics reach
    // the serialized phases.
    const ProfiledRun &run = runV2();
    AnalyzerOptions options;
    options.algorithm = PhaseAlgorithm::KMeans;
    options.extra_algorithms = {PhaseAlgorithm::Dbscan};
    options.features.max_dimensions = 8;
    std::string json;
    for (const unsigned threads : {1u, 8u}) {
        ThreadPool pool(threads);
        const AnalysisResult analysis =
            TpuPointAnalyzer(options).analyze(run.payloads,
                                              run.checkpoints, pool);
        EXPECT_TRUE(analysis.detections.size() == 2);
        const std::string produced = analysisJson(analysis);
        if (threads == 1) {
            json = produced;
            expectGolden("analyze_pca.json", json);
        } else {
            EXPECT_EQ(produced, json);
        }
    }
}

TEST(GoldenOutput, DbscanPrimaryAnalysis)
{
    // DBSCAN as the primary detector, so its labels, sweep elbow and
    // suggested eps reach the serialized phases.
    const ProfiledRun &run = runV2();
    AnalyzerOptions options;
    options.algorithm = PhaseAlgorithm::Dbscan;
    std::string json;
    for (const unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        const AnalysisResult analysis =
            TpuPointAnalyzer(options).analyze(run.payloads,
                                              run.checkpoints, pool);
        const std::string produced = analysisJson(analysis);
        if (threads == 1) {
            json = produced;
            expectGolden("analyze_dbscan.json", json);
        } else {
            EXPECT_EQ(produced, json)
                << "DBSCAN output diverges at --threads " << threads;
        }
    }
}

TEST(GoldenOutput, CompareReport)
{
    const AnalysisResult a =
        analyzeAll(runV2().payloads, runV2().checkpoints, 2);
    const AnalysisResult b =
        analyzeAll(runV3().payloads, runV3().checkpoints, 2);
    const AnalysisComparison comparison =
        compareAnalyses(a, b, "TPUv2", "TPUv3");
    std::ostringstream out;
    writeComparison(comparison, out);
    expectGolden("compare.txt", out.str());
}

TEST(GoldenOutput, ExportTrace)
{
    const ProfiledRun &run = runV2();
    const std::string profile = encodeProfile(run.payloads);

    // Stream through the reader exactly as tpupoint-export does.
    std::istringstream in(profile, std::ios::binary);
    ProfileReader reader(in);
    std::ostringstream out;
    obs::ProfileTraceOptions options;
    obs::ProfileTraceWriter writer(out, options);
    ColumnarRecord record;
    while (reader.read(record))
        writer.add(record);
    writer.finish();
    expectGolden("export_trace.json", out.str());
}

// Streaming-vs-batch agreement across the Table I workloads the
// paper characterizes. Three claims, each at --threads 1, 2 and 8:
// a streaming-mode session's finalize() output is byte-identical
// to the batch path (so turning live phases on can never change
// an archived analysis); the streaming OLS phase boundaries equal
// the batch OLS groups exactly (the snapshot is the same fold,
// finished once); and the mini-batch k-means reservoir estimate
// of top-3 coverage lands within a pinned tolerance of the batch
// answer.
TEST(GoldenOutput, StreamingAgreementAcrossTableIWorkloads)
{
    constexpr WorkloadId kTableOne[] = {
        WorkloadId::BertMrpc,      WorkloadId::DcganMnist,
        WorkloadId::QanetSquad,    WorkloadId::RetinanetCoco,
        WorkloadId::ResnetImagenet};
    for (const WorkloadId id : kTableOne) {
        SCOPED_TRACE(workloadName(id));
        const ProfiledRun run =
            profileWorkload(id, TpuGeneration::V3);
        ASSERT_FALSE(run.payloads.empty());

        AnalyzerOptions batch_opts;
        batch_opts.algorithm = PhaseAlgorithm::OnlineLinearScan;
        batch_opts.extra_algorithms = {PhaseAlgorithm::KMeans};
        const AnalysisResult batch =
            TpuPointAnalyzer(batch_opts).analyze(run.payloads,
                                                 run.checkpoints);
        const std::string batch_json = analysisJson(batch);
        ASSERT_EQ(batch.detections.size(), 2u);
        const double batch_coverage =
            batch.detections[1].top3_coverage;

        const std::vector<ColumnarRecord> stream =
            testutil::columnar(run.payloads);
        for (const unsigned threads : {1u, 2u, 8u}) {
            AnalyzerOptions opts = batch_opts;
            opts.streaming = true;
            AnalysisSession session(opts);
            for (const ColumnarRecord &record : stream)
                session.ingest(record);
            const PartialResult mid = session.partialResult();
            ASSERT_EQ(mid.snapshots.size(), 2u);
            EXPECT_TRUE(mid.snapshots[0].exact);
            EXPECT_TRUE(mid.snapshots[1].sampled);

            ThreadPool pool(threads);
            const AnalysisResult streamed =
                session.finalize(run.checkpoints, pool);
            EXPECT_EQ(analysisJson(streamed), batch_json)
                << "streaming output diverges at --threads "
                << threads;

            const PartialResult fin = session.partialResult();
            EXPECT_EQ(fin.steps_behind, 0u);
            const StreamingSnapshot &ols = fin.snapshots[0];
            const auto &groups = batch.detections[0].ols_groups;
            ASSERT_EQ(ols.phases.size(), groups.size());
            for (std::size_t i = 0; i < ols.phases.size(); ++i) {
                EXPECT_EQ(ols.phases[i].steps, groups[i].steps)
                    << "OLS phase " << i;
                EXPECT_EQ(ols.phases[i].duration,
                          groups[i].duration)
                    << "OLS phase " << i;
            }
            const StreamingSnapshot &kmeans = fin.snapshots[1];
            EXPECT_NEAR(kmeans.top3_coverage, batch_coverage,
                        0.15)
                << "k-means reservoir estimate drifted at "
                   "--threads "
                << threads;
        }
    }
}

TEST(GoldenOutput, SalvagedAnalysis)
{
    const ProfiledRun &run = runV2();
    std::string profile = encodeProfile(run.payloads);
    ASSERT_GT(profile.size(), 1024u);

    // Deterministic damage: corrupt one byte mid-stream (inside
    // some chunk payload) and truncate the end marker.
    profile[profile.size() / 2] ^= 0x5a;
    profile.resize(profile.size() - 4);

    std::string json;
    for (const unsigned threads : {1u, 2u, 8u}) {
        std::istringstream in(profile, std::ios::binary);
        ProfileReader reader(in, /*salvage=*/true);
        AnalyzerOptions options;
        options.algorithm = PhaseAlgorithm::OnlineLinearScan;
        options.extra_algorithms = {PhaseAlgorithm::KMeans,
                                    PhaseAlgorithm::Dbscan};
        AnalysisSession session(options);
        ColumnarRecord record;
        while (reader.read(record))
            session.ingest(record);
        EXPECT_TRUE(reader.sawDamage());
        ThreadPool pool(threads);
        const AnalysisResult analysis =
            session.finalize(run.checkpoints, pool);
        const std::string produced = analysisJson(analysis);
        if (threads == 1) {
            json = produced;
            expectGolden("salvage.json", json);
        } else {
            EXPECT_EQ(produced, json)
                << "salvage output diverges at --threads "
                << threads;
        }
    }
}

} // namespace
} // namespace tpupoint
