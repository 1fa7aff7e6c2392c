/** @file Statistical record merge and summary semantics. */

#include <gtest/gtest.h>

#include <stdexcept>

#include "proto/record.hh"

namespace tpupoint {
namespace {

TEST(StepStatsTest, MergeCombinesMaps)
{
    StepStats a, b;
    a.step = b.step = 3;
    a.begin = 0;
    a.end = 5;
    a.tpu_ops["MatMul"].add(5);
    a.tpu_busy = 5;
    a.mxu_active = 1;
    b.begin = 50;
    b.end = 58;
    b.tpu_ops["MatMul"].add(7);
    b.tpu_ops["Relu"].add(1);
    b.tpu_busy = 8;
    b.mxu_active = 2;
    a.merge(b);
    EXPECT_EQ(a.tpu_ops.at("MatMul").count, 2u);
    EXPECT_EQ(a.tpu_ops.at("Relu").count, 1u);
    EXPECT_EQ(a.tpu_busy, 13);
    EXPECT_EQ(a.mxu_active, 3);
    EXPECT_EQ(a.begin, 0);
    EXPECT_EQ(a.end, 58);
}

TEST(StepStatsTest, MergeDifferentStepsPanics)
{
    StepStats a, b;
    a.step = 1;
    b.step = 2;
    EXPECT_THROW(a.merge(b), std::logic_error);
}

TEST(StepStatsTest, OpSetIsPrefixedAndSorted)
{
    StepStats s;
    s.step = 0;
    s.tpu_ops["MatMul"].add(1);
    s.host_ops["RunGraph"].add(1);
    s.tpu_ops["Relu"].add(1);
    const auto set = s.opSet();
    ASSERT_EQ(set.size(), 3u);
    EXPECT_EQ(set[0], "host:RunGraph");
    EXPECT_EQ(set[1], "tpu:MatMul");
    EXPECT_EQ(set[2], "tpu:Relu");
}

TEST(ProfileRecordTest, TotalOpCount)
{
    ProfileRecord record;
    StepStats s;
    s.step = 0;
    s.tpu_ops["MatMul"].add(1);
    s.tpu_ops["MatMul"].add(1);
    s.host_ops["RunGraph"].add(1);
    record.steps.push_back(s);
    EXPECT_EQ(record.totalOpCount(), 3u);
    record.window_begin = 10;
    record.window_end = 50;
    EXPECT_EQ(record.span(), 40);
}

} // namespace
} // namespace tpupoint
