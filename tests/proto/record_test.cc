/** @file Statistical record summary semantics. */

#include <gtest/gtest.h>

#include "proto/record.hh"

namespace tpupoint {
namespace {

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

} // namespace
} // namespace tpupoint
