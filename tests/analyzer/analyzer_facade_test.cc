/** @file TpuPointAnalyzer facade across all three algorithms. */

#include <gtest/gtest.h>

#include <ostream>

#include "analyzer/analyzer.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace {

using testutil::makeRecord;
using testutil::payloadsOf;
using testutil::threePhaseRun;

std::vector<std::string>
syntheticPayloads()
{
    return payloadsOf({makeRecord(threePhaseRun())});
}

TEST(AnalyzerTest, OlsFindsThreePhasesWithFullCoverage)
{
    AnalyzerOptions options;
    options.algorithm = PhaseAlgorithm::OnlineLinearScan;
    const AnalysisResult result =
        TpuPointAnalyzer(options).analyze(syntheticPayloads());
    EXPECT_EQ(result.algorithm,
              PhaseAlgorithm::OnlineLinearScan);
    EXPECT_EQ(result.phases.size(), 3u);
    EXPECT_NEAR(result.top3_coverage, 1.0, 1e-9);
    EXPECT_FALSE(result.detections[0].ols_groups.empty());
    ASSERT_NE(result.longest(), nullptr);
    // The train phase dominates.
    EXPECT_TRUE(result.longest()->tpu_ops.count("fusion"));
}

TEST(AnalyzerTest, KMeansSweepSelectsSmallK)
{
    AnalyzerOptions options;
    options.algorithm = PhaseAlgorithm::KMeans;
    const AnalysisResult result =
        TpuPointAnalyzer(options).analyze(syntheticPayloads());
    const KMeansSweep &kmeans = result.detections[0].kmeans;
    EXPECT_GE(kmeans.elbow_k, 2);
    EXPECT_LE(kmeans.elbow_k, 6);
    EXPECT_EQ(kmeans.k_values.size(), 15u);
    EXPECT_GE(result.top3_coverage, 0.95);
}

TEST(AnalyzerTest, KMeansFixedKIsHonored)
{
    AnalyzerOptions options;
    options.algorithm = PhaseAlgorithm::KMeans;
    options.kmeans_fixed_k = 5;
    const AnalysisResult result =
        TpuPointAnalyzer(options).analyze(syntheticPayloads());
    EXPECT_EQ(result.detections[0].kmeans.best.k, 5);
    EXPECT_LE(result.phases.size(), 5u);
}

TEST(AnalyzerTest, DbscanSweepAndFixedMinSamples)
{
    AnalyzerOptions sweep;
    sweep.algorithm = PhaseAlgorithm::Dbscan;
    const AnalysisResult swept =
        TpuPointAnalyzer(sweep).analyze(syntheticPayloads());
    EXPECT_FALSE(swept.detections[0].dbscan.noise_curve.empty());
    EXPECT_GT(swept.phases.size(), 0u);

    AnalyzerOptions fixed;
    fixed.algorithm = PhaseAlgorithm::Dbscan;
    fixed.dbscan_fixed_min_samples = 30;
    const AnalysisResult result =
        TpuPointAnalyzer(fixed).analyze(syntheticPayloads());
    EXPECT_EQ(result.detections[0].dbscan.best.min_samples,
              30u);
    EXPECT_GE(result.phases.size(), 1u);

    // An extreme min-samples turns every step into noise — which
    // the paper then treats as a cluster of its own.
    AnalyzerOptions extreme;
    extreme.algorithm = PhaseAlgorithm::Dbscan;
    extreme.dbscan_fixed_min_samples = 200;
    const AnalysisResult noisy =
        TpuPointAnalyzer(extreme).analyze(syntheticPayloads());
    bool has_noise_phase = false;
    for (const auto &phase : noisy.phases)
        has_noise_phase |= phase.is_noise;
    EXPECT_TRUE(has_noise_phase);
}

TEST(AnalyzerTest, ChecksAssociateNearestCheckpoint)
{
    std::vector<CheckpointInfo> checkpoints;
    CheckpointInfo a;
    a.step = 10;
    a.saved_at = 1000;
    CheckpointInfo b;
    b.step = 60;
    b.saved_at = 2000;
    checkpoints.push_back(a);
    checkpoints.push_back(b);

    AnalyzerOptions options;
    const AnalysisResult result = TpuPointAnalyzer(options)
        .analyze(syntheticPayloads(), checkpoints);
    ASSERT_EQ(result.checkpoints.size(), result.phases.size());
    for (const auto &assoc : result.checkpoints) {
        EXPECT_TRUE(assoc.checkpoint_step == 10 ||
                    assoc.checkpoint_step == 60);
    }
    // A phase containing step 60 associates at distance zero.
    bool zero_distance = false;
    for (const auto &assoc : result.checkpoints)
        zero_distance |= assoc.distance == 0;
    EXPECT_TRUE(zero_distance);
}

TEST(AnalyzerTest, StitchesAttemptBoundariesWithoutDoubleCount)
{
    // Attempt 0 runs steps 0..30 and is preempted; the restart
    // resumes from a step-20 checkpoint and re-runs 21..30 before
    // continuing to 50. The uninterrupted equivalent is the same
    // run without the boundary.
    const std::vector<StepStats> all = threePhaseRun(21, 8);
    ASSERT_EQ(all.size(), 51u);

    std::vector<ProfileRecord> stitched;
    stitched.push_back(makeRecord(
        {all.begin(), all.begin() + 31}, 0));
    ProfileRecord boundary;
    boundary.attempt = 1;
    boundary.attempt_boundary = true;
    boundary.preempted_at_step = 30;
    boundary.resume_step = 20;
    stitched.push_back(boundary);
    ProfileRecord rerun =
        makeRecord({all.begin() + 21, all.end()}, 1);
    rerun.attempt = 1;
    stitched.push_back(rerun);

    const AnalysisResult a =
        TpuPointAnalyzer().analyze(payloadsOf(stitched));
    const AnalysisResult b = TpuPointAnalyzer().analyze(
        payloadsOf({makeRecord(all)}));

    EXPECT_EQ(a.attempts, 2u);
    EXPECT_EQ(a.replayed_steps, 10u); // steps 21..30
    EXPECT_EQ(a.discarded_steps, 10u); // dropped rows 21..30
    EXPECT_GT(a.discarded_time, 0);
    std::uint64_t flagged = 0;
    for (std::size_t i = 0; i < a.table.size(); ++i)
        flagged += a.table.replayed(i) ? 1 : 0;
    EXPECT_EQ(flagged, 10u);

    // Identical aggregates to the uninterrupted run: nothing
    // counted twice, nothing lost.
    ASSERT_EQ(a.table.size(), b.table.size());
    EXPECT_EQ(a.table.totalDuration(), b.table.totalDuration());
    for (std::size_t i = 0; i < a.table.size(); ++i) {
        EXPECT_EQ(a.table.stepId(i), b.table.stepId(i));
        EXPECT_EQ(a.table.tpuBusy(i), b.table.tpuBusy(i));
    }
    EXPECT_EQ(b.attempts, 1u);
    EXPECT_EQ(b.replayed_steps, 0u);
}

TEST(AnalyzerTest, EmptyRecordsYieldEmptyResult)
{
    const AnalysisResult result =
        TpuPointAnalyzer().analyze({});
    EXPECT_EQ(result.phases.size(), 0u);
    EXPECT_EQ(result.table.size(), 0u);
    EXPECT_EQ(result.longest(), nullptr);
}

TEST(AnalyzerTest, AlgorithmNames)
{
    EXPECT_STREQ(phaseAlgorithmName(PhaseAlgorithm::KMeans),
                 "k-means");
    EXPECT_STREQ(phaseAlgorithmName(PhaseAlgorithm::Dbscan),
                 "DBSCAN");
    EXPECT_STREQ(
        phaseAlgorithmName(PhaseAlgorithm::OnlineLinearScan),
        "OLS");
}

/** One algorithm under test, named in the ctest name. */
struct AlgorithmCase
{
    const char *name;
    PhaseAlgorithm algorithm;
};

/**
 * Print a case by name: without this gtest prints the enum's raw
 * bytes into the ctest names.
 */
void
PrintTo(const AlgorithmCase &algorithm, std::ostream *os)
{
    *os << algorithm.name;
}

/** Property: all algorithms cover every step with their phases. */
class AnalyzerCoverageProperty
    : public ::testing::TestWithParam<AlgorithmCase>
{
};

TEST_P(AnalyzerCoverageProperty, PhasesPartitionSteps)
{
    AnalyzerOptions options;
    options.algorithm = GetParam().algorithm;
    const AnalysisResult result =
        TpuPointAnalyzer(options).analyze(syntheticPayloads());
    std::size_t covered = 0;
    for (const auto &phase : result.phases)
        covered += phase.size();
    EXPECT_EQ(covered, result.table.size());
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, AnalyzerCoverageProperty,
    ::testing::Values(AlgorithmCase{"kmeans", PhaseAlgorithm::KMeans},
                      AlgorithmCase{"dbscan", PhaseAlgorithm::Dbscan},
                      AlgorithmCase{"ols",
                                    PhaseAlgorithm::OnlineLinearScan}),
    [](const ::testing::TestParamInfo<AlgorithmCase> &param_info) {
        return param_info.param.name;
    });

} // namespace
} // namespace tpupoint
