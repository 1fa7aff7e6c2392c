/**
 * @file The parallel-analysis determinism contract: whatever the
 * thread count, finalize() and the sweeps underneath it produce
 * bit-identical results — the same AnalysisResult, the same CSV,
 * the same JSON — and a borrowed pool behaves like an owned one.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analyzer/analyzer.hh"
#include "analyzer/visualization.hh"
#include "core/thread_pool.hh"
#include "profiler/profiler.hh"
#include "proto/serialize.hh"
#include "runtime/sweep.hh"
#include "workloads/catalog.hh"

namespace tpupoint {
namespace {

std::vector<std::string>
profiledPayloads()
{
    WorkloadOptions options;
    options.step_scale = 0.02;
    options.max_train_steps = 160;
    const RuntimeWorkload w =
        makeWorkload(WorkloadId::DcganMnist, options);
    Simulator sim;
    SessionConfig config;
    TrainingSession session(sim, config, w);
    TpuPointProfiler profiler(sim, session);
    profiler.start(true);
    session.start(nullptr);
    sim.run();
    profiler.stop();
    return profiler.payloads();
}

AnalysisResult
analyzeWith(const std::vector<std::string> &payloads,
            unsigned threads)
{
    AnalyzerOptions options;
    options.algorithm = PhaseAlgorithm::KMeans;
    options.extra_algorithms = {PhaseAlgorithm::Dbscan,
                                PhaseAlgorithm::OnlineLinearScan};
    ThreadPool pool(threads);
    return TpuPointAnalyzer(options).analyze(payloads, {}, pool);
}

/** Every field a thread count could possibly perturb. */
void
expectIdentical(const AnalysisResult &a, const AnalysisResult &b)
{
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].id, b.phases[i].id);
        EXPECT_EQ(a.phases[i].first_step, b.phases[i].first_step);
        EXPECT_EQ(a.phases[i].last_step, b.phases[i].last_step);
        EXPECT_EQ(a.phases[i].total_duration,
                  b.phases[i].total_duration);
    }
    // Exact double equality, not tolerance: the contract is
    // bit-identical, and any cross-thread reduction would break
    // it.
    EXPECT_EQ(a.top3_coverage, b.top3_coverage);
    ASSERT_EQ(a.detections.size(), b.detections.size());
    ASSERT_FALSE(a.detections.empty());
    const KMeansSweep &ka = a.detections[0].kmeans;
    const KMeansSweep &kb = b.detections[0].kmeans;
    EXPECT_EQ(ka.ssd_curve, kb.ssd_curve);
    EXPECT_EQ(ka.elbow_k, kb.elbow_k);
    EXPECT_EQ(ka.best.labels, kb.best.labels);
    EXPECT_EQ(ka.best.ssd, kb.best.ssd);

    for (std::size_t i = 0; i < a.detections.size(); ++i) {
        const DetectorResult &da = a.detections[i];
        const DetectorResult &db = b.detections[i];
        EXPECT_EQ(da.algorithm, db.algorithm);
        EXPECT_EQ(da.phases.size(), db.phases.size());
        EXPECT_EQ(da.top3_coverage, db.top3_coverage);
        EXPECT_EQ(da.kmeans.ssd_curve, db.kmeans.ssd_curve);
        EXPECT_EQ(da.dbscan.noise_curve, db.dbscan.noise_curve);
    }
}

std::string
phaseCsv(const AnalysisResult &result)
{
    std::ostringstream out;
    writePhaseCsv(result, out);
    return out.str();
}

std::string
analysisJson(const AnalysisResult &result)
{
    std::ostringstream out;
    writeAnalysisJson(result, out);
    return out.str();
}

TEST(ParallelDeterminismTest, ThreadCountNeverChangesTheResult)
{
    const auto records = profiledPayloads();
    const AnalysisResult serial = analyzeWith(records, 1);
    const AnalysisResult two = analyzeWith(records, 2);
    const AnalysisResult eight = analyzeWith(records, 8);
    expectIdentical(serial, two);
    expectIdentical(serial, eight);
}

TEST(ParallelDeterminismTest, ArtifactsAreByteIdentical)
{
    const auto records = profiledPayloads();
    const AnalysisResult serial = analyzeWith(records, 1);
    const AnalysisResult parallel = analyzeWith(records, 8);
    EXPECT_EQ(phaseCsv(serial), phaseCsv(parallel));
    EXPECT_EQ(analysisJson(serial), analysisJson(parallel));
}

TEST(ParallelDeterminismTest, CallerPoolMatchesOwnedPool)
{
    const auto records = profiledPayloads();
    AnalyzerOptions options;
    options.algorithm = PhaseAlgorithm::KMeans;
    const AnalysisResult owned =
        TpuPointAnalyzer(options).analyze(records);

    ThreadPool pool(4u);
    const AnalysisResult borrowed =
        TpuPointAnalyzer(options).analyze(records, {}, pool);
    expectIdentical(owned, borrowed);
}

TEST(ParallelDeterminismTest, SweepRunnerOnBorrowedPool)
{
    std::vector<SweepJob> jobs;
    for (const WorkloadId id :
         {WorkloadId::BertMrpc, WorkloadId::DcganMnist,
          WorkloadId::DcganCifar10}) {
        WorkloadOptions options;
        options.step_scale = 0.02;
        options.max_train_steps = 100;
        SweepJob job;
        job.workload = makeWorkload(id, options);
        jobs.push_back(std::move(job));
    }

    SweepOptions serial_options;
    serial_options.threads = 1;
    const auto serial = SweepRunner(serial_options).run(jobs);

    ThreadPool pool(4u);
    SweepOptions pooled_options;
    pooled_options.pool = &pool;
    const auto pooled = SweepRunner(pooled_options).run(jobs);

    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].result.wall_time,
                  pooled[i].result.wall_time);
        EXPECT_EQ(serial[i].result.steps_completed,
                  pooled[i].result.steps_completed);
        EXPECT_EQ(serial[i].payloads, pooled[i].payloads);
    }
}

} // namespace
} // namespace tpupoint
