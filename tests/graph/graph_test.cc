/** @file Graph IR invariants. */

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/graph.hh"
#include "tests/graph/total_flops.hh"

namespace tpupoint {
namespace {

Node
makeNode(OpKind kind, std::vector<NodeId> inputs,
         std::uint64_t flops = 10, std::uint64_t bytes = 20)
{
    Node n;
    n.kind = kind;
    n.name = opKindName(kind);
    n.inputs = std::move(inputs);
    n.shape = TensorShape{2, 2};
    n.flops = flops;
    n.bytes = bytes;
    n.mxu = isMxuKind(kind);
    return n;
}

TEST(GraphTest, AddAssignsSequentialIds)
{
    Graph g("test");
    const NodeId a = g.add(makeNode(OpKind::InfeedDequeueTuple, {}));
    const NodeId b = g.add(makeNode(OpKind::MatMul, {a}));
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(g.size(), 2u);
    EXPECT_EQ(g.node(b).inputs[0], a);
    g.validate();
}

TEST(GraphTest, ForwardReferenceRejected)
{
    Graph g("test");
    EXPECT_THROW(g.add(makeNode(OpKind::Relu, {0})),
                 std::logic_error);
    g.add(makeNode(OpKind::InfeedDequeueTuple, {}));
    EXPECT_THROW(g.add(makeNode(OpKind::Relu, {5})),
                 std::logic_error);
}

TEST(GraphTest, NodeLookupOutOfRangePanics)
{
    Graph g("test");
    EXPECT_THROW(g.node(0), std::logic_error);
}

TEST(GraphTest, ConsumerCounts)
{
    Graph g("test");
    const NodeId a = g.add(makeNode(OpKind::InfeedDequeueTuple, {}));
    const NodeId b = g.add(makeNode(OpKind::MatMul, {a}));
    g.add(makeNode(OpKind::Relu, {a, b}));
    const auto counts = g.consumerCounts();
    EXPECT_EQ(counts[a], 2u);
    EXPECT_EQ(counts[b], 1u);
    EXPECT_EQ(counts[2], 0u);
}

TEST(GraphTest, TotalsAndKindCounts)
{
    Graph g("test");
    const NodeId a = g.add(
        makeNode(OpKind::InfeedDequeueTuple, {}, 0, 64));
    g.add(makeNode(OpKind::MatMul, {a}, 100, 32));
    g.add(makeNode(OpKind::MatMul, {a}, 200, 16));
    EXPECT_EQ(testutil::totalFlops(g), 300u);
    EXPECT_EQ(g.totalBytes(), 112u);
    EXPECT_EQ(g.countKind(OpKind::MatMul), 2u);
    EXPECT_EQ(g.countKind(OpKind::Relu), 0u);
}

TEST(OpKindTest, NamesMatchTableII)
{
    EXPECT_STREQ(opKindName(OpKind::Fusion), "fusion");
    EXPECT_STREQ(opKindName(OpKind::AllReduce), "all-reduce");
    EXPECT_STREQ(opKindName(OpKind::Conv2DBackpropFilter),
                 "Conv2DBackpropFilter");
    EXPECT_STREQ(opKindName(OpKind::InfeedDequeueTuple),
                 "InfeedDequeueTuple");
    EXPECT_STREQ(opKindName(OpKind::FusedBatchNormGradV3),
                 "FusedBatchNormGradV3");
}

TEST(OpKindTest, ClassesAndMxu)
{
    EXPECT_TRUE(isMxuKind(OpKind::MatMul));
    EXPECT_TRUE(isMxuKind(OpKind::Conv2DBackpropInput));
    EXPECT_FALSE(isMxuKind(OpKind::Relu));
    EXPECT_EQ(opKindClass(OpKind::Reshape), OpClass::Memory);
    EXPECT_EQ(opKindClass(OpKind::Infeed),
              OpClass::InfeedOutfeed);
    EXPECT_EQ(opKindClass(OpKind::AllReduce),
              OpClass::Collective);
    EXPECT_EQ(opKindClass(OpKind::Softmax),
              OpClass::VectorCompute);
}

TEST(OpKindTest, FusableSetExcludesBoundaries)
{
    EXPECT_TRUE(isFusableElementwise(OpKind::Relu));
    EXPECT_TRUE(isFusableElementwise(OpKind::FusedBatchNormV3));
    EXPECT_TRUE(isFusableElementwise(OpKind::Softmax));
    EXPECT_FALSE(isFusableElementwise(OpKind::MatMul));
    EXPECT_FALSE(isFusableElementwise(OpKind::Reshape));
    EXPECT_FALSE(isFusableElementwise(OpKind::Infeed));
    EXPECT_FALSE(isFusableElementwise(OpKind::ArgMax));
}

} // namespace
} // namespace tpupoint
