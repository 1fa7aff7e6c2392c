/** @file Schedule extraction and infeed/outfeed coalescing. */

#include <gtest/gtest.h>

#include "graph/builder.hh"
#include "graph/schedule.hh"
#include "tests/graph/total_flops.hh"

namespace tpupoint {
namespace {

TEST(ScheduleTest, MultipleInfeedsCoalesceToOne)
{
    GraphBuilder gb("t", DataType::BF16);
    const NodeId a = gb.infeed(TensorShape{2, 4}, "ids",
                               DataType::I32);
    const NodeId b = gb.infeed(TensorShape{2, 4}, "mask",
                               DataType::I32);
    const NodeId sum = gb.binary(OpKind::Add, a, b, "add");
    gb.outfeed(sum, "out");
    const StepSchedule s = extractSchedule(gb.finish());

    int infeed_ops = 0;
    for (const auto &op : s.ops)
        if (op.kind == OpKind::InfeedDequeueTuple)
            ++infeed_ops;
    EXPECT_EQ(infeed_ops, 1);
    // Coalesced byte total covers both tensors.
    EXPECT_EQ(s.infeed_bytes, 2u * (2 * 4 * 4));
    EXPECT_EQ(s.ops.front().kind, OpKind::InfeedDequeueTuple);
    EXPECT_EQ(s.ops.front().bytes, s.infeed_bytes);
}

TEST(ScheduleTest, OutfeedBytesTracked)
{
    GraphBuilder gb("t", DataType::BF16);
    const NodeId x = gb.infeed(TensorShape{8}, "in");
    gb.outfeed(x, "out");
    const StepSchedule s = extractSchedule(gb.finish());
    EXPECT_EQ(s.outfeed_bytes, 8u * 2);
    EXPECT_EQ(s.ops.back().kind, OpKind::OutfeedEnqueueTuple);
}

TEST(ScheduleTest, TotalsAndMxuFlops)
{
    GraphBuilder gb("t");
    const NodeId x = gb.infeed(TensorShape{4, 4}, "in");
    const NodeId mm = gb.matmul(x, 4, "mm");
    const NodeId relu = gb.unary(OpKind::Relu, mm, "relu");
    gb.outfeed(relu, "out");
    const Graph g = gb.finish();
    const StepSchedule s = extractSchedule(g);
    EXPECT_EQ(s.total_flops, testutil::totalFlops(g));
    EXPECT_EQ(s.mxu_flops, g.node(mm).flops);
    EXPECT_EQ(s.size(), g.size());
    EXPECT_EQ(s.model, "t");
}

TEST(ScheduleTest, TypeNamesMatchOpKinds)
{
    GraphBuilder gb("t");
    const NodeId x = gb.infeed(TensorShape{4, 4}, "in");
    const NodeId mm = gb.matmul(x, 4, "mm");
    gb.outfeed(mm, "out");
    const StepSchedule s = extractSchedule(gb.finish());
    EXPECT_STREQ(s.ops[1].typeName(), "MatMul");
}

} // namespace
} // namespace tpupoint
