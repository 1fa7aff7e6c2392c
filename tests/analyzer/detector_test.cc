/** @file The detector registry: builtins, multi-algorithm
 * finalize, and custom-detector interposition. */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "analyzer/analyzer.hh"
#include "analyzer/detector.hh"
#include "core/thread_pool.hh"
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

TEST(DetectorRegistryTest, BuiltinsAreRegistered)
{
    std::set<PhaseAlgorithm> seen;
    for (const PhaseAlgorithm algorithm :
         {PhaseAlgorithm::KMeans, PhaseAlgorithm::Dbscan,
          PhaseAlgorithm::OnlineLinearScan})
        seen.insert(
            detectorFor(algorithm).make(AnalyzerOptions{})
                ->algorithm());
    EXPECT_TRUE(seen.count(PhaseAlgorithm::KMeans));
    EXPECT_TRUE(seen.count(PhaseAlgorithm::Dbscan));
    EXPECT_TRUE(seen.count(PhaseAlgorithm::OnlineLinearScan));
}

TEST(DetectorRegistryTest, LookupMatchesAlgorithmAndName)
{
    for (const PhaseAlgorithm algorithm :
         {PhaseAlgorithm::KMeans, PhaseAlgorithm::Dbscan,
          PhaseAlgorithm::OnlineLinearScan}) {
        const DetectorEntry &detector = detectorFor(algorithm);
        EXPECT_EQ(detector.algorithm(), algorithm);
        EXPECT_STREQ(detector.name(),
                     phaseAlgorithmName(algorithm));
    }
}

TEST(DetectorRegistryTest, FeatureNeedsMatchTheAlgorithms)
{
    // The clustering detectors read the feature matrix; OLS works
    // on the aggregated table alone, so a pure-OLS run skips the
    // feature pass entirely.
    EXPECT_TRUE(
        detectorFor(PhaseAlgorithm::KMeans).needsFeatures());
    EXPECT_TRUE(
        detectorFor(PhaseAlgorithm::Dbscan).needsFeatures());
    EXPECT_FALSE(detectorFor(PhaseAlgorithm::OnlineLinearScan)
                     .needsFeatures());
}

TEST(DetectorTest, MultiAlgorithmRunProducesOneDetectionEach)
{
    AnalyzerOptions options;
    options.algorithm = PhaseAlgorithm::KMeans;
    options.extra_algorithms = {PhaseAlgorithm::Dbscan,
                                PhaseAlgorithm::OnlineLinearScan};
    ThreadPool pool(4u);
    const AnalysisResult result =
        TpuPointAnalyzer(options).analyze(syntheticPayloads(), {},
                                          pool);

    ASSERT_EQ(result.detections.size(), 3u);
    EXPECT_EQ(result.detections[0].algorithm,
              PhaseAlgorithm::KMeans);
    EXPECT_EQ(result.detections[1].algorithm,
              PhaseAlgorithm::Dbscan);
    EXPECT_EQ(result.detections[2].algorithm,
              PhaseAlgorithm::OnlineLinearScan);
    for (const DetectorResult &detection : result.detections)
        EXPECT_FALSE(detection.phases.empty());

    // The flat fields mirror the primary detection.
    EXPECT_EQ(result.algorithm, PhaseAlgorithm::KMeans);
    EXPECT_EQ(result.phases.size(),
              result.detections[0].phases.size());
    EXPECT_DOUBLE_EQ(result.top3_coverage,
                     result.detections[0].top3_coverage);
}

TEST(DetectorTest, ExtrasMatchSingleAlgorithmRuns)
{
    // Each detection of a multi-algorithm run is the same result
    // the algorithm produces when it runs alone.
    AnalyzerOptions multi;
    multi.algorithm = PhaseAlgorithm::OnlineLinearScan;
    multi.extra_algorithms = {PhaseAlgorithm::KMeans};
    const AnalysisResult both =
        TpuPointAnalyzer(multi).analyze(syntheticPayloads());
    ASSERT_EQ(both.detections.size(), 2u);

    AnalyzerOptions solo;
    solo.algorithm = PhaseAlgorithm::KMeans;
    const AnalysisResult alone =
        TpuPointAnalyzer(solo).analyze(syntheticPayloads());

    const DetectorResult &extra = both.detections[1];
    const KMeansSweep &solo_kmeans = alone.detections[0].kmeans;
    EXPECT_EQ(extra.kmeans.elbow_k, solo_kmeans.elbow_k);
    EXPECT_EQ(extra.kmeans.ssd_curve, solo_kmeans.ssd_curve);
    EXPECT_EQ(extra.phases.size(), alone.phases.size());
    EXPECT_DOUBLE_EQ(extra.top3_coverage, alone.top3_coverage);
}

TEST(DetectorTest, DuplicateExtrasCollapse)
{
    AnalyzerOptions options;
    options.algorithm = PhaseAlgorithm::OnlineLinearScan;
    options.extra_algorithms = {PhaseAlgorithm::OnlineLinearScan,
                                PhaseAlgorithm::KMeans,
                                PhaseAlgorithm::KMeans};
    const AnalysisResult result =
        TpuPointAnalyzer(options).analyze(syntheticPayloads());
    ASSERT_EQ(result.detections.size(), 2u);
    EXPECT_EQ(result.detections[0].algorithm,
              PhaseAlgorithm::OnlineLinearScan);
    EXPECT_EQ(result.detections[1].algorithm,
              PhaseAlgorithm::KMeans);
}

/** Interposable stub standing in for the DBSCAN builtin. */
class StubDetector final : public PhaseDetector
{
  public:
    explicit StubDetector(int *calls) : call_count(calls) {}

    PhaseAlgorithm
    algorithm() const override
    {
        return PhaseAlgorithm::Dbscan;
    }

    const char *name() const override { return "stub"; }

    bool needsFeatures() const override { return false; }

    void observeSteps(const std::vector<StepDelta> &) override {}

    void reset() override {}

    StreamingSnapshot snapshot() const override { return {}; }

    DetectorResult
    finalize(const StepTable &, const FeatureMatrix *,
             const AnalyzerOptions &, ThreadPool *) override
    {
        ++*call_count;
        DetectorResult out;
        out.algorithm = PhaseAlgorithm::Dbscan;
        return out;
    }

  private:
    int *call_count;
};

TEST(DetectorTest, CustomDetectorReplacesAndRestores)
{
    int calls = 0;
    registerDetector(PhaseAlgorithm::Dbscan,
                     [&calls](const AnalyzerOptions &) {
                         return std::make_unique<StubDetector>(
                             &calls);
                     });
    EXPECT_STREQ(detectorFor(PhaseAlgorithm::Dbscan).name(),
                 "stub");

    AnalyzerOptions options;
    options.algorithm = PhaseAlgorithm::Dbscan;
    const AnalysisResult stubbed =
        TpuPointAnalyzer(options).analyze(syntheticPayloads());
    EXPECT_EQ(calls, 1);
    EXPECT_TRUE(stubbed.phases.empty());

    // Restore the builtin so later suites in this binary see the
    // real algorithm again.
    registerDetector(PhaseAlgorithm::Dbscan, nullptr);
    const AnalysisResult real =
        TpuPointAnalyzer(options).analyze(syntheticPayloads());
    EXPECT_EQ(calls, 1);
    EXPECT_FALSE(real.phases.empty());
}

} // namespace
} // namespace tpupoint
