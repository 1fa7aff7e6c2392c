/** @file Workload catalog: Table I parameters and scaling. */

#include <gtest/gtest.h>

#include <ostream>

#include "workloads/catalog.hh"

namespace tpupoint {
namespace {

TEST(CatalogTest, NinePrimaryWorkloads)
{
    EXPECT_EQ(allWorkloads().size(), 9u);
    EXPECT_EQ(reducedWorkloads().size(), 3u);
}

TEST(CatalogTest, NamesAreStable)
{
    EXPECT_STREQ(workloadName(WorkloadId::BertSquad),
                 "BERT-SQuAD");
    EXPECT_STREQ(workloadName(WorkloadId::ResnetImagenet),
                 "ResNet-ImageNet");
    EXPECT_STREQ(workloadName(WorkloadId::RetinanetCocoHalf),
                 "RetinaNet-COCO/2");
}

TEST(CatalogTest, TableOneDefaults)
{
    // DCGAN: batch 1024, 10000 steps, eval every 1000,
    // iterations_per_loop 100.
    const RuntimeWorkload dcgan =
        makeWorkload(WorkloadId::DcganCifar10);
    EXPECT_EQ(dcgan.batch_size, 1024u);
    EXPECT_EQ(dcgan.schedule.train_steps, 10000u);
    EXPECT_EQ(dcgan.schedule.steps_per_eval, 1000u);
    EXPECT_EQ(dcgan.schedule.iterations_per_loop, 100u);

    // BERT: batch 32, 3 epochs.
    const RuntimeWorkload bert =
        makeWorkload(WorkloadId::BertSquad);
    EXPECT_EQ(bert.batch_size, 32u);
    EXPECT_EQ(bert.schedule.train_steps,
              3 * (bert.dataset.num_examples / 32));

    // QANet: 5 epochs x 20000 steps.
    const RuntimeWorkload qanet =
        makeWorkload(WorkloadId::QanetSquad);
    EXPECT_EQ(qanet.schedule.train_steps, 100000u);

    // RetinaNet: batch 64, 15 epochs of 120k examples.
    const RuntimeWorkload retina =
        makeWorkload(WorkloadId::RetinanetCoco);
    EXPECT_EQ(retina.batch_size, 64u);
    EXPECT_EQ(retina.schedule.train_steps,
              15u * (120000 / 64));

    // ResNet: batch 1024, 112590 steps.
    const RuntimeWorkload resnet =
        makeWorkload(WorkloadId::ResnetImagenet);
    EXPECT_EQ(resnet.batch_size, 1024u);
    EXPECT_EQ(resnet.schedule.train_steps, 112590u);
}

TEST(CatalogTest, ScalingShrinksAllCadencesTogether)
{
    WorkloadOptions options;
    options.step_scale = 0.01;
    const RuntimeWorkload full =
        makeWorkload(WorkloadId::ResnetImagenet);
    const RuntimeWorkload scaled =
        makeWorkload(WorkloadId::ResnetImagenet, options);
    EXPECT_EQ(scaled.schedule.train_steps,
              full.schedule.train_steps / 100);
    // Cadences scale by the effective cadence scale: the requested
    // factor floored so the smallest cadence (ResNet's 48-step
    // eval pass) stays at one step — this keeps every overhead
    // ratio intact.
    const double cadence_scale = std::max(
        0.01, 1.0 / static_cast<double>(
            full.schedule.eval_steps));
    EXPECT_EQ(scaled.schedule.steps_per_eval,
              static_cast<std::uint64_t>(
                  static_cast<double>(
                      full.schedule.steps_per_eval) *
                  cadence_scale));
    EXPECT_EQ(scaled.schedule.checkpoint_interval,
              scaled.schedule.steps_per_eval);
    EXPECT_GE(scaled.schedule.eval_steps, 1u);
    EXPECT_LE(scaled.schedule.eval_steps,
              full.schedule.eval_steps);
    // The checkpoint payload shrinks with the cadences.
    EXPECT_LT(scaled.model_bytes, full.model_bytes);
    EXPECT_LT(scaled.fixed_cost_scale, 1.0);
    EXPECT_DOUBLE_EQ(full.fixed_cost_scale, 1.0);
}

TEST(CatalogTest, MaxTrainStepsCaps)
{
    WorkloadOptions options;
    options.max_train_steps = 123;
    const RuntimeWorkload w =
        makeWorkload(WorkloadId::QanetSquad, options);
    EXPECT_EQ(w.schedule.train_steps, 123u);
}

TEST(CatalogTest, SchedulesAreFusedAndCoalesced)
{
    const RuntimeWorkload w =
        makeWorkload(WorkloadId::BertMrpc);
    // Post-fusion schedules contain fusion ops...
    bool has_fusion = false;
    int infeeds = 0;
    for (const auto &op : w.train_schedule.ops) {
        has_fusion |= op.kind == OpKind::Fusion;
        infeeds += op.kind == OpKind::InfeedDequeueTuple;
    }
    EXPECT_TRUE(has_fusion);
    // ...and exactly one coalesced infeed per step.
    EXPECT_EQ(infeeds, 1);
    EXPECT_GT(w.train_schedule.infeed_bytes, 0u);
    EXPECT_GT(w.model_bytes, 0u);
}

TEST(CatalogTest, ResnetCifarKeepsModelChangesDataset)
{
    const RuntimeWorkload imagenet =
        makeWorkload(WorkloadId::ResnetImagenet);
    const RuntimeWorkload cifar =
        makeWorkload(WorkloadId::ResnetCifar10);
    EXPECT_EQ(cifar.dataset.name, "CIFAR10");
    // Same methodology, drastically smaller per-step compute.
    EXPECT_LT(cifar.train_schedule.total_flops,
              imagenet.train_schedule.total_flops / 10);
}

/** One catalog entry, with the name its ctest id carries. */
struct CatalogCase
{
    const char *name;
    WorkloadId id;
};

/**
 * Print a case by name: without this gtest prints the enum's raw
 * bytes into the ctest names.
 */
void
PrintTo(const CatalogCase &entry, std::ostream *os)
{
    *os << entry.name;
}

/** Property: every catalog entry builds a consistent workload. */
class CatalogProperty
    : public ::testing::TestWithParam<CatalogCase>
{
};

TEST_P(CatalogProperty, BuildsConsistentWorkload)
{
    WorkloadOptions options;
    options.step_scale = 0.02;
    const RuntimeWorkload w = makeWorkload(GetParam().id, options);
    EXPECT_FALSE(w.name.empty());
    EXPECT_GT(w.batch_size, 0u);
    EXPECT_GT(w.schedule.train_steps, 0u);
    EXPECT_GT(w.train_schedule.size(), 0u);
    EXPECT_GT(w.eval_schedule.size(), 0u);
    EXPECT_LT(w.eval_schedule.total_flops,
              w.train_schedule.total_flops);
    EXPECT_GT(w.train_schedule.infeed_bytes, 0u);
    EXPECT_GT(w.train_schedule.mxu_flops, 0u);
    EXPECT_LE(w.schedule.iterations_per_loop,
              std::max<std::uint64_t>(
                  w.schedule.train_steps, 1));
}

INSTANTIATE_TEST_SUITE_P(
    AllEntries, CatalogProperty,
    ::testing::Values(
        CatalogCase{"bert_mrpc", WorkloadId::BertMrpc},
        CatalogCase{"bert_squad", WorkloadId::BertSquad},
        CatalogCase{"bert_cola", WorkloadId::BertCola},
        CatalogCase{"bert_mnli", WorkloadId::BertMnli},
        CatalogCase{"dcgan_cifar10", WorkloadId::DcganCifar10},
        CatalogCase{"dcgan_mnist", WorkloadId::DcganMnist},
        CatalogCase{"qanet_squad", WorkloadId::QanetSquad},
        CatalogCase{"retinanet_coco", WorkloadId::RetinanetCoco},
        CatalogCase{"resnet_imagenet", WorkloadId::ResnetImagenet},
        CatalogCase{"qanet_squad_half", WorkloadId::QanetSquadHalf},
        CatalogCase{"retinanet_coco_half",
                    WorkloadId::RetinanetCocoHalf},
        CatalogCase{"resnet_cifar10", WorkloadId::ResnetCifar10}),
    [](const ::testing::TestParamInfo<CatalogCase> &param_info) {
        return param_info.param.name;
    });

} // namespace
} // namespace tpupoint
