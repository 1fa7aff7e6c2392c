/** @file Model graph builders: structure, parameters, op mix. */

#include <gtest/gtest.h>

#include <ostream>

#include "graph/fusion.hh"
#include "tests/graph/total_flops.hh"
#include "workloads/models.hh"

namespace tpupoint {
namespace {

TEST(BertModelTest, ParameterCountMatchesBertBase)
{
    const ModelGraphs graphs = buildBert(32, 128);
    // BERT-Base: ~110M parameters.
    EXPECT_GT(graphs.parameters, 100'000'000u);
    EXPECT_LT(graphs.parameters, 120'000'000u);
    graphs.train.validate();
    graphs.eval.validate();
}

TEST(BertModelTest, TrainGraphHasBackwardOps)
{
    const ModelGraphs graphs = buildBert(8, 64);
    EXPECT_GT(graphs.train.countKind(OpKind::MatMul), 0u);
    EXPECT_GT(graphs.train.countKind(OpKind::LayerNormGrad), 0u);
    EXPECT_GT(graphs.train.countKind(OpKind::AllReduce), 0u);
    EXPECT_EQ(graphs.train.countKind(OpKind::ApplyAdam), 1u);
    // Eval is forward-only.
    EXPECT_EQ(graphs.eval.countKind(OpKind::LayerNormGrad), 0u);
    EXPECT_EQ(graphs.eval.countKind(OpKind::AllReduce), 0u);
    EXPECT_LT(graphs.eval.size(), graphs.train.size());
}

TEST(BertModelTest, AttentionEmitsReshapeAndTranspose)
{
    const ModelGraphs graphs = buildBert(8, 64);
    // Head split/merge creates heavy Reshape/Transpose traffic —
    // the reason those ops top Table II.
    EXPECT_GE(graphs.train.countKind(OpKind::Reshape), 48u);
    EXPECT_GE(graphs.train.countKind(OpKind::Transpose), 36u);
}

TEST(BertModelTest, EvalHasMetricOpsTrainLacks)
{
    const ModelGraphs graphs = buildBert(8, 64);
    EXPECT_GT(graphs.eval.countKind(OpKind::ArgMax), 0u);
    EXPECT_GT(graphs.eval.countKind(OpKind::Equal), 0u);
    EXPECT_EQ(graphs.train.countKind(OpKind::ArgMax), 0u);
    EXPECT_EQ(graphs.train.countKind(OpKind::Equal), 0u);
}

TEST(ResnetModelTest, ParameterCountMatchesResnet50)
{
    const ModelGraphs graphs = buildResnet(32, 224, 1000);
    // ResNet-50: ~25.6M parameters.
    EXPECT_GT(graphs.parameters, 23'000'000u);
    EXPECT_LT(graphs.parameters, 28'000'000u);
}

TEST(ResnetModelTest, HasFiftyThreeConvolutions)
{
    const ModelGraphs graphs = buildResnet(8, 224, 1000);
    // 1 stem + 16 blocks x 3 + 4 projections = 53 convs.
    EXPECT_EQ(graphs.train.countKind(OpKind::Conv2D), 53u);
    EXPECT_EQ(graphs.train.countKind(
                  OpKind::Conv2DBackpropFilter), 53u);
    EXPECT_EQ(graphs.train.countKind(OpKind::FusedBatchNormV3),
              53u);
}

TEST(ResnetModelTest, FlopsScaleWithResolution)
{
    const ModelGraphs small = buildResnet(8, 32, 10);
    const ModelGraphs large = buildResnet(8, 224, 10);
    // 224/32 = 7x linear -> ~49x flops.
    EXPECT_GT(testutil::totalFlops(large.train),
              20 * testutil::totalFlops(small.train));
}

TEST(DcganModelTest, GeneratorAndTwoDiscriminatorPasses)
{
    const ModelGraphs graphs = buildDcgan(64, 32, 3);
    graphs.train.validate();
    // Generator upsamples...
    EXPECT_EQ(graphs.train.countKind(
                  OpKind::ResizeNearestNeighbor), 3u);
    // ...and both D(real) and D(fake) contribute convs.
    EXPECT_GE(graphs.train.countKind(OpKind::Conv2D), 9u);
    EXPECT_LT(graphs.parameters, 20'000'000u);
}

TEST(DcganModelTest, MnistPadsTo32)
{
    // 28px MNIST works on the 32px canvas without crashing.
    const ModelGraphs graphs = buildDcgan(64, 28, 3);
    graphs.train.validate();
}

TEST(QanetModelTest, StructureAndScale)
{
    const ModelGraphs graphs = buildQanet(8, 100, 30);
    graphs.train.validate();
    // 21 model-encoder blocks + 2 embedding encoders worth of
    // convolutions.
    EXPECT_GE(graphs.train.countKind(OpKind::Conv2D), 20u);
    EXPECT_GT(graphs.train.countKind(OpKind::Reshape), 100u);
    EXPECT_GT(graphs.parameters, 1'000'000u);
}

TEST(RetinanetModelTest, BackboneFpnAndHeads)
{
    const ModelGraphs graphs = buildRetinanet(4, 256);
    graphs.train.validate();
    // 53 backbone convs + FPN laterals/smoothing + two subnets at
    // five levels.
    EXPECT_GT(graphs.train.countKind(OpKind::Conv2D), 100u);
    // ~36M parameters for the detector.
    EXPECT_GT(graphs.parameters, 25'000'000u);
    EXPECT_LT(graphs.parameters, 90'000'000u);
}

/** Property: every model fuses substantially and keeps flops. */
struct ModelCase
{
    const char *name;
    ModelGraphs (*build)();
};

/**
 * Print a case by name: without this gtest prints the struct's raw
 * bytes (two pointers), which move from build to build and leak
 * into the ctest names.
 */
void
PrintTo(const ModelCase &model, std::ostream *os)
{
    *os << model.name;
}

ModelGraphs buildBertCase() { return buildBert(8, 64); }
ModelGraphs buildDcganCase() { return buildDcgan(32, 32, 3); }
ModelGraphs buildQanetCase() { return buildQanet(8, 100, 30); }
ModelGraphs buildRetinaCase() { return buildRetinanet(2, 256); }
ModelGraphs buildResnetCase() { return buildResnet(8, 64, 100); }

class ModelFusionProperty
    : public ::testing::TestWithParam<ModelCase>
{
};

TEST_P(ModelFusionProperty, FusionShrinksGraphAndKeepsFlops)
{
    const ModelGraphs graphs = GetParam().build();
    FusionStats stats;
    const Graph fused = fuseGraph(graphs.train, &stats);
    fused.validate();
    EXPECT_GT(stats.groups_formed, 0u);
    EXPECT_LT(fused.size(), graphs.train.size());
    EXPECT_EQ(testutil::totalFlops(fused),
              testutil::totalFlops(graphs.train));
    EXPECT_LT(fused.totalBytes(), graphs.train.totalBytes());
    EXPECT_GT(fused.countKind(OpKind::Fusion), 0u);
}

TEST_P(ModelFusionProperty, TrainGraphsHaveInfeedAndOutfeed)
{
    const ModelGraphs graphs = GetParam().build();
    EXPECT_GT(graphs.train.countKind(OpKind::InfeedDequeueTuple),
              0u);
    EXPECT_GT(graphs.train.countKind(
                  OpKind::OutfeedEnqueueTuple), 0u);
    EXPECT_GT(graphs.eval.countKind(OpKind::InfeedDequeueTuple),
              0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelFusionProperty,
    ::testing::Values(ModelCase{"bert", buildBertCase},
                      ModelCase{"dcgan", buildDcganCase},
                      ModelCase{"qanet", buildQanetCase},
                      ModelCase{"retinanet", buildRetinaCase},
                      ModelCase{"resnet", buildResnetCase}),
    [](const ::testing::TestParamInfo<ModelCase> &param_info) {
        return param_info.param.name;
    });

} // namespace
} // namespace tpupoint
