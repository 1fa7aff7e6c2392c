/**
 * @file
 * GraphBuilder: emits operator nodes with shape inference and the
 * FLOP/HBM-byte cost model. Workload model builders (BERT, ResNet,
 * ...) are written against this API.
 */

#ifndef TPUPOINT_GRAPH_BUILDER_HH
#define TPUPOINT_GRAPH_BUILDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hh"

namespace tpupoint {

/**
 * Convenience layer over Graph::add. All emitters compute output
 * shape, flops and HBM bytes from the input shapes; weights are
 * implicit (their HBM reads are charged to the consuming op, the way
 * XLA's HLO cost analysis attributes them).
 */
class GraphBuilder
{
  public:
    /** Build into a fresh graph named @p graph_name. */
    explicit GraphBuilder(std::string graph_name,
                          DataType default_type = DataType::BF16);

    /** Finish building and take the graph. */
    Graph finish();

    /** Access the graph under construction. */
    const Graph &graph() const { return building; }

    // ---- Host <-> device boundary -------------------------------

    /** A batch tensor arriving through the infeed queue. */
    NodeId infeed(const TensorShape &shape, const std::string &name,
                  DataType type);
    NodeId infeed(const TensorShape &shape, const std::string &name);

    /** Scalar (loss/metric) tuple leaving through the outfeed. */
    NodeId outfeed(NodeId value, const std::string &name);

    // ---- MXU compute --------------------------------------------

    /**
     * Dense projection of the last axis: [..., k] -> [..., units].
     * Weight reads (k x units) are charged to the op.
     */
    NodeId matmul(NodeId x, std::int64_t units,
                  const std::string &name);

    /**
     * Batched matmul of two activation tensors (attention):
     * [b, m, k] x [b, k, n] -> [b, m, n]. Ranks must match and be
     * >= 2; leading dims must agree.
     */
    NodeId batchMatmul(NodeId a, NodeId b, const std::string &name);

    /**
     * NHWC convolution with square kernel/stride and SAME padding:
     * [n, h, w, c] -> [n, h/stride, w/stride, out_channels].
     */
    NodeId conv2d(NodeId x, std::int64_t out_channels,
                  std::int64_t kernel, std::int64_t stride,
                  const std::string &name);

    /** Gradient wrt the conv filter; same flops as forward. */
    NodeId conv2dBackpropFilter(NodeId activations, NodeId grads,
                                std::int64_t kernel,
                                const std::string &name);

    /** Gradient wrt the conv input; same flops as forward. */
    NodeId conv2dBackpropInput(NodeId grads,
                               const TensorShape &input_shape,
                               std::int64_t kernel,
                               const std::string &name);

    // ---- Vector compute -----------------------------------------

    /** Unary element-wise op (Relu, Tanh, Cast, ...). */
    NodeId unary(OpKind kind, NodeId x, const std::string &name);

    /** Binary element-wise op; shapes must match (or b broadcast). */
    NodeId binary(OpKind kind, NodeId a, NodeId b,
                  const std::string &name);

    /** BiasAdd along the last axis. */
    NodeId biasAdd(NodeId x, const std::string &name);

    /** Softmax over the last axis. */
    NodeId softmax(NodeId x, const std::string &name);

    /** Reduction to scalar (Sum, Mean, L2Loss). */
    NodeId reduceAll(OpKind kind, NodeId x, const std::string &name);

    /** Reduce the last axis away (e.g. BiasAddGrad). */
    NodeId reduceLastAxis(OpKind kind, NodeId x,
                          const std::string &name);

    /** Fused batch normalization (training mode). */
    NodeId batchNorm(NodeId x, const std::string &name);

    /** Batch-norm gradient. */
    NodeId batchNormGrad(NodeId grads, const std::string &name);

    /** Layer normalization over the last axis. */
    NodeId layerNorm(NodeId x, const std::string &name);

    /** Layer-norm gradient. */
    NodeId layerNormGrad(NodeId grads, const std::string &name);

    /** Parameter update op; @p param_count weights touched. */
    NodeId applyOptimizer(OpKind kind, NodeId grads_in,
                          std::uint64_t param_count,
                          const std::string &name);

    // ---- Data movement ------------------------------------------

    /** Reshape; element count must be preserved. Full HBM copy. */
    NodeId reshape(NodeId x, const TensorShape &shape,
                   const std::string &name);

    /** Transpose with permutation @p perm. Full HBM copy. */
    NodeId transpose(NodeId x, const std::vector<int> &perm,
                     const std::string &name);

    /** Concatenate along @p axis; shapes must agree elsewhere. */
    NodeId concat(const std::vector<NodeId> &parts, std::size_t axis,
                  const std::string &name);

    /** Contiguous slice of @p count rows along the first axis. */
    NodeId slice(NodeId x, std::int64_t count,
                 const std::string &name);

    /** Embedding lookup: ids [b, s] -> [b, s, width]. */
    NodeId gather(NodeId ids, std::int64_t width,
                  const std::string &name);

    // ---- Pooling -------------------------------------------------

    /** Square-window pooling on NHWC input. */
    NodeId pool(OpKind kind, NodeId x, std::int64_t window,
                std::int64_t stride, const std::string &name);

    /** Nearest-neighbour upsampling by @p factor (FPN upsample). */
    NodeId resizeNearest(NodeId x, std::int64_t factor,
                         const std::string &name);

    // ---- Collectives ---------------------------------------------

    /** Cross-replica gradient all-reduce over @p param_count values. */
    NodeId allReduce(NodeId after, std::uint64_t param_count,
                     const std::string &name);

    // ---- Cost-model escapes --------------------------------------

    /**
     * L2 regularization over the model's @p param_count weights
     * (weight decay); reads every parameter once.
     */
    NodeId l2Loss(NodeId after, std::uint64_t param_count,
                  const std::string &name);

    /**
     * Generic op with an explicit output shape: used by gradient
     * emitters whose output shape differs from the input (pooling /
     * upsampling backward, embedding scatter). Costs one flop per
     * output element plus input+output HBM traffic.
     */
    NodeId shapeOp(OpKind kind, NodeId x, const TensorShape &shape,
                   const std::string &name);

    /** Output shape of an existing node (for layer libraries). */
    const TensorShape &outputShape(NodeId id) const
    {
        return shapeOf(id);
    }

  private:
    NodeId emit(OpKind kind, std::string name,
                std::vector<NodeId> inputs, TensorShape shape,
                DataType type, std::uint64_t flops,
                std::uint64_t bytes, bool mxu);

    const TensorShape &shapeOf(NodeId id) const;
    DataType typeOf(NodeId id) const;
    std::uint64_t bytesOf(NodeId id) const;

    Graph building;
    DataType default_dtype;
};

} // namespace tpupoint

#endif // TPUPOINT_GRAPH_BUILDER_HH
