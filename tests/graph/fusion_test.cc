/** @file XLA-style fusion pass behaviour. */

#include <gtest/gtest.h>

#include "graph/builder.hh"
#include "graph/fusion.hh"
#include "tests/graph/total_flops.hh"

namespace tpupoint {
namespace {

TEST(FusionTest, ElementwiseChainFusesIntoMatMulRoot)
{
    GraphBuilder gb("t", DataType::BF16);
    const NodeId x = gb.infeed(TensorShape{8, 64}, "in");
    const NodeId mm = gb.matmul(x, 64, "mm");
    const NodeId bias = gb.biasAdd(mm, "bias");
    const NodeId act = gb.unary(OpKind::Relu, bias, "relu");
    gb.outfeed(act, "out");
    const Graph g = gb.finish();

    FusionStats stats;
    const Graph fused = fuseGraph(g, &stats);
    fused.validate();

    EXPECT_EQ(stats.groups_formed, 1u);
    EXPECT_EQ(stats.nodes_fused, 2u); // bias + relu absorbed
    EXPECT_EQ(fused.countKind(OpKind::Fusion), 1u);
    EXPECT_EQ(fused.countKind(OpKind::MatMul), 0u);
    EXPECT_EQ(fused.countKind(OpKind::BiasAdd), 0u);
    // infeed + fusion + outfeed
    EXPECT_EQ(fused.size(), 3u);
    EXPECT_GT(stats.bytes_elided, 0u);
}

TEST(FusionTest, FusionInheritsMxuAndSumsFlops)
{
    GraphBuilder gb("t");
    const NodeId x = gb.infeed(TensorShape{8, 64}, "in");
    const NodeId mm = gb.matmul(x, 64, "mm");
    const NodeId act = gb.unary(OpKind::Relu, mm, "relu");
    gb.outfeed(act, "out");
    const Graph g = gb.finish();
    const std::uint64_t flops_before =
        g.node(mm).flops + g.node(act).flops;

    const Graph fused = fuseGraph(g);
    const Node *fusion_node = nullptr;
    for (const auto &n : fused.nodes())
        if (n.kind == OpKind::Fusion)
            fusion_node = &n;
    ASSERT_NE(fusion_node, nullptr);
    EXPECT_TRUE(fusion_node->mxu);
    EXPECT_EQ(fusion_node->flops, flops_before);
}

TEST(FusionTest, MultiConsumerProducerBlocksFusion)
{
    GraphBuilder gb("t");
    const NodeId x = gb.infeed(TensorShape{8, 8}, "in");
    const NodeId mm = gb.matmul(x, 8, "mm");
    // Two consumers of mm: neither can absorb it.
    const NodeId r1 = gb.unary(OpKind::Relu, mm, "r1");
    const NodeId r2 = gb.unary(OpKind::Tanh, mm, "r2");
    gb.outfeed(r1, "out1");
    gb.outfeed(r2, "out2");
    const Graph fused = fuseGraph(gb.finish());
    // mm must survive as a standalone MatMul.
    EXPECT_EQ(fused.countKind(OpKind::MatMul), 1u);
    EXPECT_EQ(fused.countKind(OpKind::Fusion), 0u);
}

TEST(FusionTest, MemoryOpsDoNotFuse)
{
    GraphBuilder gb("t");
    const NodeId x = gb.infeed(TensorShape{4, 4}, "in");
    const NodeId rs = gb.reshape(x, TensorShape{16}, "rs");
    const NodeId relu = gb.unary(OpKind::Relu, rs, "relu");
    gb.outfeed(relu, "out");
    const Graph fused = fuseGraph(gb.finish());
    // Relu cannot fuse into the reshape (Memory class producer).
    EXPECT_EQ(fused.countKind(OpKind::Reshape), 1u);
    EXPECT_EQ(fused.countKind(OpKind::Relu), 1u);
}

TEST(FusionTest, InfeedBoundaryBlocksFusion)
{
    GraphBuilder gb("t");
    const NodeId x = gb.infeed(TensorShape{4, 4}, "in");
    const NodeId cast = gb.unary(OpKind::Cast, x, "cast");
    gb.outfeed(cast, "out");
    const Graph fused = fuseGraph(gb.finish());
    EXPECT_EQ(fused.countKind(OpKind::Cast), 1u);
    EXPECT_EQ(fused.countKind(OpKind::Fusion), 0u);
}

TEST(FusionTest, LongChainFormsSingleFusion)
{
    GraphBuilder gb("t");
    const NodeId x = gb.infeed(TensorShape{16, 16}, "in");
    NodeId y = gb.matmul(x, 16, "mm");
    y = gb.biasAdd(y, "b");
    y = gb.unary(OpKind::Relu, y, "r");
    y = gb.unary(OpKind::Mul, y, "m");
    y = gb.unary(OpKind::Tanh, y, "t");
    gb.outfeed(y, "out");
    FusionStats stats;
    const Graph fused = fuseGraph(gb.finish(), &stats);
    EXPECT_EQ(stats.groups_formed, 1u);
    EXPECT_EQ(stats.nodes_fused, 4u);
    EXPECT_EQ(fused.size(), 3u);
}

TEST(FusionTest, TotalFlopsPreserved)
{
    // Fusion elides memory traffic but never loses computation.
    GraphBuilder gb("t");
    const NodeId x = gb.infeed(TensorShape{32, 32}, "in");
    NodeId y = gb.matmul(x, 32, "mm1");
    y = gb.unary(OpKind::Relu, y, "r1");
    y = gb.matmul(y, 32, "mm2");
    y = gb.unary(OpKind::Gelu, y, "g1");
    gb.outfeed(y, "out");
    const Graph g = gb.finish();
    const Graph fused = fuseGraph(g);
    EXPECT_EQ(testutil::totalFlops(fused), testutil::totalFlops(g));
    EXPECT_LE(fused.totalBytes(), g.totalBytes());
}

TEST(FusionTest, PlainGraphPassesThrough)
{
    GraphBuilder gb("t");
    const NodeId x = gb.infeed(TensorShape{4, 4}, "in");
    const NodeId rs = gb.reshape(x, TensorShape{16}, "rs");
    gb.outfeed(rs, "out");
    FusionStats stats;
    const Graph fused = fuseGraph(gb.finish(), &stats);
    EXPECT_EQ(stats.groups_formed, 0u);
    EXPECT_EQ(stats.nodes_fused, 0u);
    EXPECT_EQ(fused.size(), 3u);
}

} // namespace
} // namespace tpupoint
