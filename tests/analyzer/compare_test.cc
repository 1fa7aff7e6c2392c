/** @file Cross-run analysis comparison (the Table II view). */

#include <gtest/gtest.h>

#include <sstream>

#include "analyzer/compare.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace {

using testutil::makeRecord;
using testutil::makeStep;

AnalysisResult
analyzeSteps(std::vector<StepStats> steps)
{
    return TpuPointAnalyzer().analyze(
        testutil::payloadsOf({makeRecord(std::move(steps))}));
}

TEST(CompareTest, SharesAndDeltas)
{
    std::vector<StepStats> run_a, run_b;
    for (StepId i = 0; i < 20; ++i) {
        run_a.push_back(makeStep(i, {"fusion", "MatMul"},
                                 {"OutfeedDequeueTuple"}));
        // Run B spends relatively more on Reshape (fusion still
        // tops both, as in Table II).
        run_b.push_back(makeStep(i,
                                 {"fusion", "Reshape", "MatMul"},
                                 {"OutfeedDequeueTuple"}));
    }
    const AnalysisComparison comparison = compareAnalyses(
        analyzeSteps(run_a), analyzeSteps(run_b), "TPUv2",
        "TPUv3");

    EXPECT_EQ(comparison.label_a, "TPUv2");
    EXPECT_TRUE(comparison.same_top_tpu_op); // fusion tops both

    // Reshape exists only in run B.
    const OpShareDelta *reshape = nullptr;
    for (const auto &delta : comparison.tpu_ops)
        if (delta.name == "Reshape")
            reshape = &delta;
    ASSERT_NE(reshape, nullptr);
    EXPECT_EQ(reshape->share_a, 0.0);
    EXPECT_GT(reshape->share_b, 0.0);
    EXPECT_GT(reshape->delta(), 0.0);
}

TEST(CompareTest, MoversFilterByThreshold)
{
    std::vector<StepStats> run_a, run_b;
    for (StepId i = 0; i < 10; ++i) {
        run_a.push_back(makeStep(i, {"fusion"}));
        run_b.push_back(makeStep(i, {"Infeed", "fusion"}));
    }
    const AnalysisComparison comparison = compareAnalyses(
        analyzeSteps(run_a), analyzeSteps(run_b));
    // Infeed went from 0% to a majority share (and fusion shrank
    // by the same amount) — both are movers.
    const auto movers = comparison.movers(0.25);
    ASSERT_GE(movers.size(), 2u);
    bool infeed_moved = false;
    for (const auto &delta : movers) {
        if (delta.name == "Infeed") {
            infeed_moved = true;
            EXPECT_GT(delta.delta(), 0.25);
        }
    }
    EXPECT_TRUE(infeed_moved);
    // An absurd threshold filters everything.
    EXPECT_TRUE(comparison.movers(2.0).empty());
}

TEST(CompareTest, EmptyAnalysesAreSafe)
{
    AnalysisResult empty_a, empty_b;
    const AnalysisComparison comparison =
        compareAnalyses(empty_a, empty_b);
    EXPECT_FALSE(comparison.same_top_tpu_op);
    EXPECT_TRUE(comparison.tpu_ops.empty());
    std::ostringstream out;
    writeComparison(comparison, out);
    EXPECT_FALSE(out.str().empty());
}

TEST(CompareTest, ReportMentionsOperatorsAndLabels)
{
    std::vector<StepStats> run_a, run_b;
    for (StepId i = 0; i < 10; ++i) {
        run_a.push_back(makeStep(i, {"fusion", "MatMul"}));
        run_b.push_back(makeStep(i, {"fusion", "Reshape"}));
    }
    const AnalysisComparison comparison = compareAnalyses(
        analyzeSteps(run_a), analyzeSteps(run_b), "v2", "v3");
    std::ostringstream out;
    writeComparison(comparison, out);
    const std::string report = out.str();
    EXPECT_NE(report.find("v2"), std::string::npos);
    EXPECT_NE(report.find("v3"), std::string::npos);
    EXPECT_NE(report.find("fusion"), std::string::npos);
    EXPECT_NE(report.find("Reshape"), std::string::npos);
}

} // namespace
} // namespace tpupoint
