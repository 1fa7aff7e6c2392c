/** @file Phase construction, coverage and operator ranking. */

#include <gtest/gtest.h>

#include <stdexcept>

#include "analyzer/phases.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace {

using testutil::makeRecord;
using testutil::makeStep;

StepTable
simpleTable()
{
    return testutil::tableOf({makeRecord(
        {makeStep(0, {"fusion"}, {}, 100),
         makeStep(1, {"fusion"}, {}, 100),
         makeStep(2, {"ArgMax"}, {}, 50),
         makeStep(3, {"fusion"}, {}, 100)})});
}

TEST(PhasesTest, FromLabelsGroupsByCluster)
{
    const StepTable table = simpleTable();
    const std::vector<int> labels{0, 0, 1, 0};
    const auto phases = phasesFromLabels(table, labels);
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(phases[0].size(), 3u);
    EXPECT_EQ(phases[0].total_duration, 300);
    EXPECT_EQ(phases[1].size(), 1u);
    EXPECT_EQ(phases[1].first_step, 2u);
    EXPECT_FALSE(phases[0].is_noise);
}

TEST(PhasesTest, NoiseLabelsBecomeOnePseudoPhase)
{
    const StepTable table = simpleTable();
    const std::vector<int> labels{-1, 0, -1, 0};
    const auto phases = phasesFromLabels(table, labels);
    ASSERT_EQ(phases.size(), 2u);
    // Ordered map: noise (-1) sorts first.
    EXPECT_TRUE(phases[0].is_noise);
    EXPECT_EQ(phases[0].size(), 2u);
}

TEST(PhasesTest, LabelMismatchPanics)
{
    const StepTable table = simpleTable();
    EXPECT_THROW(phasesFromLabels(table, {0, 1}),
                 std::logic_error);
}

TEST(PhasesTest, FromGroupsMapsSpansToSteps)
{
    const StepTable table = simpleTable();
    OnlineLinearScan::Group train;
    train.spans.push_back({0, 1, 2, 200});
    train.spans.push_back({3, 3, 1, 100});
    train.steps = 3;
    train.duration = 300;
    OnlineLinearScan::Group eval;
    eval.spans.push_back({2, 2, 1, 50});
    eval.steps = 1;
    eval.duration = 50;

    const auto phases = phasesFromGroups(table, {train, eval});
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(phases[0].size(), 3u);
    EXPECT_EQ(phases[0].total_duration, 300);
    EXPECT_EQ(phases[0].first_step, 0u);
    EXPECT_EQ(phases[0].last_step, 3u);
    EXPECT_EQ(phases[1].size(), 1u);
}

TEST(PhasesTest, AggregatesOpMaps)
{
    const StepTable table = simpleTable();
    const auto phases = phasesFromLabels(table, {0, 0, 0, 0});
    ASSERT_EQ(phases.size(), 1u);
    EXPECT_EQ(phases[0].tpu_ops.at("fusion").count, 3u);
    EXPECT_EQ(phases[0].tpu_ops.at("ArgMax").count, 1u);
}

TEST(PhasesTest, CoverageOfTopPhases)
{
    std::vector<Phase> phases(4);
    phases[0].total_duration = 700;
    phases[1].total_duration = 200;
    phases[2].total_duration = 80;
    phases[3].total_duration = 20;
    EXPECT_NEAR(topPhaseCoverage(phases, 1), 0.7, 1e-9);
    EXPECT_NEAR(topPhaseCoverage(phases, 3), 0.98, 1e-9);
    EXPECT_NEAR(topPhaseCoverage(phases, 10), 1.0, 1e-9);
    EXPECT_EQ(topPhaseCoverage({}, 3), 0.0);
}

TEST(PhasesTest, LongestPhaseAndOrdering)
{
    std::vector<Phase> phases(3);
    phases[0].id = 0;
    phases[0].total_duration = 10;
    phases[1].id = 1;
    phases[1].total_duration = 100;
    phases[2].id = 2;
    phases[2].total_duration = 50;
    EXPECT_EQ(longestPhase(phases)->id, 1);
    const auto sorted = phasesByDuration(phases);
    EXPECT_EQ(sorted[0]->id, 1);
    EXPECT_EQ(sorted[1]->id, 2);
    EXPECT_EQ(sorted[2]->id, 0);
    EXPECT_EQ(longestPhase({}), nullptr);
}

TEST(PhasesTest, TopOpsRanksByDuration)
{
    OpStatsMap ops;
    ops["fusion"] = OpStats{10, 500};
    ops["MatMul"] = OpStats{5, 300};
    ops["Reshape"] = OpStats{50, 150};
    ops["Copy"] = OpStats{1, 50};

    const auto top2 = topOps(ops, 2);
    ASSERT_EQ(top2.size(), 2u);
    EXPECT_EQ(top2[0].name, "fusion");
    EXPECT_EQ(top2[1].name, "MatMul");
    EXPECT_NEAR(top2[0].share, 0.5, 1e-9);
    EXPECT_EQ(top2[0].count, 10u);

    // Asking for more than exist returns them all.
    EXPECT_EQ(topOps(ops, 10).size(), 4u);
    EXPECT_TRUE(topOps({}, 5).empty());
}

TEST(PhasesTest, TopOpsTieBreaksByName)
{
    OpStatsMap ops;
    ops["b"] = OpStats{1, 100};
    ops["a"] = OpStats{1, 100};
    const auto top = topOps(ops, 2);
    EXPECT_EQ(top[0].name, "a");
    EXPECT_EQ(top[1].name, "b");
}

} // namespace
} // namespace tpupoint
