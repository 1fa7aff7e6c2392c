/**
 * @file
 * The op-graph IR. A Graph is a DAG of operator Nodes held in
 * topological order (builders may only reference already-created
 * nodes as inputs), annotated with per-op FLOP and HBM-byte costs
 * that drive the TPU timing model.
 */

#ifndef TPUPOINT_GRAPH_GRAPH_HH
#define TPUPOINT_GRAPH_GRAPH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "graph/op.hh"
#include "graph/tensor.hh"

namespace tpupoint {

/** Index of a node within its graph. */
using NodeId = std::uint32_t;

/** Sentinel for "no node". */
inline constexpr NodeId kInvalidNode = 0xffffffffU;

/**
 * One operator instance. `flops` counts floating-point operations;
 * `bytes` counts HBM traffic (operands plus results); `mxu` marks
 * ops dispatched to the matrix units.
 */
struct Node
{
    NodeId id = kInvalidNode;
    OpKind kind = OpKind::Copy;
    std::string name;
    std::vector<NodeId> inputs;
    TensorShape shape;
    DataType dtype = DataType::BF16;
    std::uint64_t flops = 0;
    std::uint64_t bytes = 0;
    bool mxu = false;
};

/**
 * A DAG of operators in topological order.
 */
class Graph
{
  public:
    /** Create a graph with a human-readable name. */
    explicit Graph(std::string graph_name = "graph");

    /**
     * Append a node. Inputs must reference existing nodes, which
     * keeps the node vector topologically sorted by construction.
     * @return the new node's id.
     */
    NodeId add(Node node);

    /** Node lookup. @pre id < size() */
    const Node &node(NodeId id) const;

    /** Number of nodes. */
    std::size_t size() const { return node_list.size(); }

    /** All nodes, topologically ordered. */
    const std::vector<Node> &nodes() const { return node_list; }

    /** Graph name (the model name, e.g. "resnet50"). */
    const std::string &name() const { return graph_name; }

    /** Number of consumers of each node (index = NodeId). */
    std::vector<std::uint32_t> consumerCounts() const;

    /** Sum of bytes over all nodes. */
    std::uint64_t totalBytes() const;

    /** Count of nodes with a given kind. */
    std::size_t countKind(OpKind kind) const;

    /**
     * Check structural invariants (inputs precede users, ids are
     * consistent); panics on violation. Cheap; used by tests and
     * after graph transformations.
     */
    void validate() const;

  private:
    std::string graph_name;
    std::vector<Node> node_list;
};

} // namespace tpupoint

#endif // TPUPOINT_GRAPH_GRAPH_HH
