/**
 * @file The paper's six observations, asserted as properties of the
 * reproduced platform + toolchain (Sections VI and VII).
 */

#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "analyzer/analyzer.hh"
#include "optimizer/optimizer.hh"
#include "profiler/profiler.hh"
#include "workloads/catalog.hh"

namespace tpupoint {
namespace {

struct Measured
{
    SessionResult result;
    std::vector<std::string> payloads;
};

Measured
measure(WorkloadId id, TpuGeneration gen,
        std::uint64_t max_steps = 300)
{
    WorkloadOptions options;
    options.step_scale = 0.02;
    options.max_train_steps = max_steps;
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
    return {session.result(), profiler.payloads()};
}

/** One workload under test, named in the ctest name. */
struct WorkloadCase
{
    const char *name;
    WorkloadId id;
};

/**
 * Print a case by name: without this gtest prints the enum's raw
 * bytes into the ctest names.
 */
void
PrintTo(const WorkloadCase &workload, std::ostream *os)
{
    *os << workload.name;
}

/** Observations 1 and 2, checked per workload. */
class PhaseObservations
    : public ::testing::TestWithParam<WorkloadCase>
{
};

TEST_P(PhaseObservations, FewPhasesCoverMostExecution)
{
    const Measured m = measure(GetParam().id, TpuGeneration::V2);
    AnalyzerOptions options;
    options.ols_threshold = 0.70;
    const AnalysisResult analysis =
        TpuPointAnalyzer(options).analyze(m.payloads);

    // Observation 1: a limited number of phases.
    EXPECT_GE(analysis.phases.size(), 1u);
    EXPECT_LE(analysis.phases.size(), 15u);
    // Observation 2: the 3 longest phases cover >= 95%.
    EXPECT_GE(analysis.top3_coverage, 0.95);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PhaseObservations,
    ::testing::Values(
        WorkloadCase{"bert_mrpc", WorkloadId::BertMrpc},
        WorkloadCase{"bert_squad", WorkloadId::BertSquad},
        WorkloadCase{"dcgan_cifar10", WorkloadId::DcganCifar10},
        WorkloadCase{"qanet_squad", WorkloadId::QanetSquad},
        WorkloadCase{"retinanet_coco", WorkloadId::RetinanetCoco},
        WorkloadCase{"resnet_imagenet", WorkloadId::ResnetImagenet}),
    [](const ::testing::TestParamInfo<WorkloadCase> &param_info) {
        return param_info.param.name;
    });

TEST(Observations, ThreeAndFour_DataMovementDominatesHost)
{
    const Measured m =
        measure(WorkloadId::ResnetImagenet, TpuGeneration::V2);
    const AnalysisResult analysis =
        TpuPointAnalyzer().analyze(m.payloads);
    const Phase *longest = analysis.longest();
    ASSERT_NE(longest, nullptr);

    // The top host operators are the data-exchange ops.
    const auto host_top = topOps(longest->host_ops, 5);
    ASSERT_FALSE(host_top.empty());
    std::map<std::string, bool> in_top;
    for (const auto &op : host_top)
        in_top[op.name] = true;
    EXPECT_TRUE(in_top.count("OutfeedDequeueTuple") ||
                in_top.count("TransferBufferToInfeedLocked") ||
                in_top.count("DecodeAndCropJpeg"));

    // And the device spends real time idle (Observation 3).
    EXPECT_GT(m.result.tpu_idle_fraction, 0.10);
}

TEST(Observations, FusionTopsTheTpuOperators)
{
    // A compute-fed workload: fusion tops the TPU operators.
    const Measured dcgan =
        measure(WorkloadId::DcganCifar10, TpuGeneration::V2);
    const AnalysisResult dcgan_analysis =
        TpuPointAnalyzer().analyze(dcgan.payloads);
    const Phase *dcgan_longest = dcgan_analysis.longest();
    ASSERT_NE(dcgan_longest, nullptr);
    const auto dcgan_top = topOps(dcgan_longest->tpu_ops, 5);
    ASSERT_FALSE(dcgan_top.empty());
    EXPECT_EQ(dcgan_top[0].name, "fusion");

    // An infeed-bound workload: the Infeed stall joins the top
    // operators (as in several of Table II's columns) while
    // fusion and Reshape stay among the leaders.
    const Measured bert =
        measure(WorkloadId::BertSquad, TpuGeneration::V2);
    const AnalysisResult analysis =
        TpuPointAnalyzer().analyze(bert.payloads);
    const Phase *longest = analysis.longest();
    ASSERT_NE(longest, nullptr);
    const auto tpu_top = topOps(longest->tpu_ops, 5);
    ASSERT_FALSE(tpu_top.empty());
    bool fusion_in_top = false, reshape_in_top = false;
    for (const auto &op : tpu_top) {
        fusion_in_top |= op.name == "fusion";
        reshape_in_top |= op.name == "Reshape";
    }
    EXPECT_TRUE(fusion_in_top);
    EXPECT_TRUE(reshape_in_top);
}

TEST(Observations, Five_FasterTpuIdlesMore)
{
    double idle_v2 = 0, idle_v3 = 0;
    double mxu_v2 = 0, mxu_v3 = 0;
    const WorkloadId ids[] = {WorkloadId::BertSquad,
                              WorkloadId::DcganCifar10,
                              WorkloadId::ResnetImagenet};
    for (const WorkloadId id : ids) {
        const Measured v2 = measure(id, TpuGeneration::V2);
        const Measured v3 = measure(id, TpuGeneration::V3);
        idle_v2 += v2.result.tpu_idle_fraction;
        idle_v3 += v3.result.tpu_idle_fraction;
        mxu_v2 += v2.result.mxu_utilization;
        mxu_v3 += v3.result.mxu_utilization;
    }
    // Observation 5: idle grows and MXU utilization shrinks on
    // the faster generation.
    EXPECT_GT(idle_v3, idle_v2);
    EXPECT_LT(mxu_v3, mxu_v2);
    // Utilization roughly halves (paper: 22.72% -> 11.34%).
    EXPECT_LT(mxu_v3, 0.75 * mxu_v2);
}

TEST(Observations, Six_BottleneckShiftsWithDataset)
{
    const Measured imagenet =
        measure(WorkloadId::ResnetImagenet, TpuGeneration::V2);
    const Measured cifar =
        measure(WorkloadId::ResnetCifar10, TpuGeneration::V2);
    // Same model + methodology, different dataset: utilization
    // collapses and idle rises on CIFAR-10.
    EXPECT_LT(cifar.result.mxu_utilization,
              imagenet.result.mxu_utilization);
    EXPECT_GT(cifar.result.tpu_idle_fraction,
              imagenet.result.tpu_idle_fraction);
}

} // namespace
} // namespace tpupoint
