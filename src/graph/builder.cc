#include "graph/builder.hh"

#include <algorithm>

#include "core/logging.hh"

namespace tpupoint {

namespace {

/** Flops per element for unary kinds. */
std::uint64_t
unaryFlopFactor(OpKind kind)
{
    switch (kind) {
      case OpKind::Tanh:
      case OpKind::Gelu:
      case OpKind::Rsqrt:
        return 8;
      case OpKind::Cast:
      case OpKind::Relu:
        return 1;
      default:
        return 1;
    }
}

} // namespace

GraphBuilder::GraphBuilder(std::string graph_name, DataType dflt)
    : building(std::move(graph_name)), default_dtype(dflt)
{
}

Graph
GraphBuilder::finish()
{
    building.validate();
    return std::move(building);
}

NodeId
GraphBuilder::emit(OpKind kind, std::string name,
                   std::vector<NodeId> inputs, TensorShape shape,
                   DataType type, std::uint64_t flops,
                   std::uint64_t bytes, bool mxu)
{
    Node node;
    node.kind = kind;
    node.name = std::move(name);
    node.inputs = std::move(inputs);
    node.shape = std::move(shape);
    node.dtype = type;
    node.flops = flops;
    node.bytes = bytes;
    node.mxu = mxu;
    return building.add(std::move(node));
}

const TensorShape &
GraphBuilder::shapeOf(NodeId id) const
{
    return building.node(id).shape;
}

DataType
GraphBuilder::typeOf(NodeId id) const
{
    return building.node(id).dtype;
}

std::uint64_t
GraphBuilder::bytesOf(NodeId id) const
{
    return shapeOf(id).numBytes(typeOf(id));
}

NodeId
GraphBuilder::infeed(const TensorShape &shape, const std::string &name,
                     DataType type)
{
    return emit(OpKind::InfeedDequeueTuple, name, {}, shape, type,
                0, shape.numBytes(type), false);
}

NodeId
GraphBuilder::infeed(const TensorShape &shape, const std::string &name)
{
    return infeed(shape, name, default_dtype);
}

NodeId
GraphBuilder::outfeed(NodeId value, const std::string &name)
{
    return emit(OpKind::OutfeedEnqueueTuple, name, {value},
                shapeOf(value), typeOf(value), 0, bytesOf(value),
                false);
}

NodeId
GraphBuilder::matmul(NodeId x, std::int64_t units,
                     const std::string &name)
{
    const TensorShape &in = shapeOf(x);
    if (in.rank() < 1)
        fatal("matmul: input must have rank >= 1");
    const std::int64_t k = in.dim(in.rank() - 1);
    const std::int64_t m = in.numElements() / std::max<std::int64_t>(
        k, 1);
    std::vector<std::int64_t> out_dims = in.dimensions();
    out_dims.back() = units;
    TensorShape out(std::move(out_dims));
    const std::size_t esize = dataTypeSize(typeOf(x));
    const std::uint64_t flops = 2ULL * m * k * units;
    const std::uint64_t bytes = bytesOf(x) +
        static_cast<std::uint64_t>(k) * units * esize +
        out.numBytes(typeOf(x));
    return emit(OpKind::MatMul, name, {x}, out, typeOf(x), flops,
                bytes, true);
}

NodeId
GraphBuilder::batchMatmul(NodeId a, NodeId b, const std::string &name)
{
    const TensorShape &sa = shapeOf(a);
    const TensorShape &sb = shapeOf(b);
    if (sa.rank() != sb.rank() || sa.rank() < 2)
        fatal("batchMatmul: rank mismatch for ", name);
    const std::size_t rank = sa.rank();
    for (std::size_t i = 0; i + 2 < rank; ++i) {
        if (sa.dim(i) != sb.dim(i))
            fatal("batchMatmul: batch dim mismatch for ", name);
    }
    const std::int64_t m = sa.dim(rank - 2);
    const std::int64_t k = sa.dim(rank - 1);
    if (sb.dim(rank - 2) != k)
        fatal("batchMatmul: contraction dim mismatch for ", name);
    const std::int64_t n = sb.dim(rank - 1);
    std::int64_t batch = 1;
    for (std::size_t i = 0; i + 2 < rank; ++i)
        batch *= sa.dim(i);
    std::vector<std::int64_t> out_dims = sa.dimensions();
    out_dims[rank - 1] = n;
    TensorShape out(std::move(out_dims));
    const std::uint64_t flops = 2ULL * batch * m * k * n;
    const std::uint64_t bytes = bytesOf(a) + bytesOf(b) +
        out.numBytes(typeOf(a));
    return emit(OpKind::MatMul, name, {a, b}, out, typeOf(a), flops,
                bytes, true);
}

NodeId
GraphBuilder::conv2d(NodeId x, std::int64_t out_channels,
                     std::int64_t kernel, std::int64_t stride,
                     const std::string &name)
{
    const TensorShape &in = shapeOf(x);
    if (in.rank() != 4)
        fatal("conv2d: expected NHWC input for ", name);
    const std::int64_t n = in.dim(0);
    const std::int64_t h = (in.dim(1) + stride - 1) / stride;
    const std::int64_t w = (in.dim(2) + stride - 1) / stride;
    const std::int64_t c = in.dim(3);
    TensorShape out({n, h, w, out_channels});
    const std::size_t esize = dataTypeSize(typeOf(x));
    const std::uint64_t flops = 2ULL * n * h * w * out_channels *
        kernel * kernel * c;
    const std::uint64_t weight_bytes =
        static_cast<std::uint64_t>(kernel) * kernel * c *
        out_channels * esize;
    const std::uint64_t bytes = bytesOf(x) + weight_bytes +
        out.numBytes(typeOf(x));
    return emit(OpKind::Conv2D, name, {x}, out, typeOf(x), flops,
                bytes, true);
}

NodeId
GraphBuilder::conv2dBackpropFilter(NodeId activations, NodeId grads,
                                   std::int64_t kernel,
                                   const std::string &name)
{
    const TensorShape &act = shapeOf(activations);
    const TensorShape &gs = shapeOf(grads);
    if (act.rank() != 4 || gs.rank() != 4)
        fatal("conv2dBackpropFilter: expected NHWC inputs for ",
              name);
    const std::int64_t c_in = act.dim(3);
    const std::int64_t c_out = gs.dim(3);
    TensorShape out({kernel, kernel, c_in, c_out});
    const std::uint64_t flops = 2ULL * gs.dim(0) * gs.dim(1) *
        gs.dim(2) * c_out * kernel * kernel * c_in;
    const std::uint64_t bytes = bytesOf(activations) +
        bytesOf(grads) + out.numBytes(typeOf(grads));
    return emit(OpKind::Conv2DBackpropFilter, name,
                {activations, grads}, out, typeOf(grads), flops,
                bytes, true);
}

NodeId
GraphBuilder::conv2dBackpropInput(NodeId grads,
                                  const TensorShape &input_shape,
                                  std::int64_t kernel,
                                  const std::string &name)
{
    const TensorShape &gs = shapeOf(grads);
    if (gs.rank() != 4 || input_shape.rank() != 4)
        fatal("conv2dBackpropInput: expected NHWC shapes for ",
              name);
    const std::uint64_t flops = 2ULL * gs.dim(0) * gs.dim(1) *
        gs.dim(2) * gs.dim(3) * kernel * kernel * input_shape.dim(3);
    const std::uint64_t bytes = bytesOf(grads) +
        input_shape.numBytes(typeOf(grads));
    return emit(OpKind::Conv2DBackpropInput, name, {grads},
                input_shape, typeOf(grads), flops, bytes, true);
}

NodeId
GraphBuilder::unary(OpKind kind, NodeId x, const std::string &name)
{
    const TensorShape &in = shapeOf(x);
    const std::uint64_t elems =
        static_cast<std::uint64_t>(in.numElements());
    return emit(kind, name, {x}, in, typeOf(x),
                elems * unaryFlopFactor(kind), 2 * bytesOf(x),
                false);
}

NodeId
GraphBuilder::binary(OpKind kind, NodeId a, NodeId b,
                     const std::string &name)
{
    const TensorShape &sa = shapeOf(a);
    const TensorShape &sb = shapeOf(b);
    const TensorShape &out =
        sa.numElements() >= sb.numElements() ? sa : sb;
    const std::uint64_t elems =
        static_cast<std::uint64_t>(out.numElements());
    const std::uint64_t bytes = bytesOf(a) + bytesOf(b) +
        out.numBytes(typeOf(a));
    return emit(kind, name, {a, b}, out, typeOf(a), elems, bytes,
                false);
}

NodeId
GraphBuilder::biasAdd(NodeId x, const std::string &name)
{
    const TensorShape &in = shapeOf(x);
    const std::uint64_t elems =
        static_cast<std::uint64_t>(in.numElements());
    return emit(OpKind::BiasAdd, name, {x}, in, typeOf(x), elems,
                2 * bytesOf(x), false);
}

NodeId
GraphBuilder::softmax(NodeId x, const std::string &name)
{
    const TensorShape &in = shapeOf(x);
    const std::uint64_t elems =
        static_cast<std::uint64_t>(in.numElements());
    return emit(OpKind::Softmax, name, {x}, in, typeOf(x),
                5 * elems, 2 * bytesOf(x), false);
}

NodeId
GraphBuilder::reduceAll(OpKind kind, NodeId x, const std::string &name)
{
    const TensorShape &in = shapeOf(x);
    const std::uint64_t elems =
        static_cast<std::uint64_t>(in.numElements());
    const std::uint64_t factor = (kind == OpKind::L2Loss) ? 2 : 1;
    return emit(kind, name, {x}, TensorShape{}, typeOf(x),
                factor * elems,
                bytesOf(x) + dataTypeSize(typeOf(x)), false);
}

NodeId
GraphBuilder::reduceLastAxis(OpKind kind, NodeId x,
                             const std::string &name)
{
    const TensorShape &in = shapeOf(x);
    if (in.rank() < 1)
        fatal("reduceLastAxis: scalar input for ", name);
    std::vector<std::int64_t> out_dims(
        in.dimensions().begin(), in.dimensions().end() - 1);
    TensorShape out(std::move(out_dims));
    const std::uint64_t elems =
        static_cast<std::uint64_t>(in.numElements());
    return emit(kind, name, {x}, out, typeOf(x), elems,
                bytesOf(x) + out.numBytes(typeOf(x)), false);
}

NodeId
GraphBuilder::batchNorm(NodeId x, const std::string &name)
{
    const TensorShape &in = shapeOf(x);
    const std::uint64_t elems =
        static_cast<std::uint64_t>(in.numElements());
    return emit(OpKind::FusedBatchNormV3, name, {x}, in, typeOf(x),
                10 * elems, 3 * bytesOf(x), false);
}

NodeId
GraphBuilder::batchNormGrad(NodeId grads, const std::string &name)
{
    const TensorShape &in = shapeOf(grads);
    const std::uint64_t elems =
        static_cast<std::uint64_t>(in.numElements());
    return emit(OpKind::FusedBatchNormGradV3, name, {grads}, in,
                typeOf(grads), 12 * elems, 3 * bytesOf(grads),
                false);
}

NodeId
GraphBuilder::layerNorm(NodeId x, const std::string &name)
{
    const TensorShape &in = shapeOf(x);
    const std::uint64_t elems =
        static_cast<std::uint64_t>(in.numElements());
    return emit(OpKind::LayerNorm, name, {x}, in, typeOf(x),
                8 * elems, 3 * bytesOf(x), false);
}

NodeId
GraphBuilder::layerNormGrad(NodeId grads, const std::string &name)
{
    const TensorShape &in = shapeOf(grads);
    const std::uint64_t elems =
        static_cast<std::uint64_t>(in.numElements());
    return emit(OpKind::LayerNormGrad, name, {grads}, in,
                typeOf(grads), 10 * elems, 3 * bytesOf(grads),
                false);
}

NodeId
GraphBuilder::applyOptimizer(OpKind kind, NodeId grads_in,
                             std::uint64_t param_count,
                             const std::string &name)
{
    const std::size_t esize = dataTypeSize(DataType::F32);
    const std::uint64_t flop_factor =
        (kind == OpKind::ApplyAdam) ? 12 : 2;
    const std::uint64_t byte_factor =
        (kind == OpKind::ApplyAdam) ? 6 : 3;
    return emit(kind, name, {grads_in}, TensorShape{},
                DataType::F32, flop_factor * param_count,
                byte_factor * param_count * esize, false);
}

NodeId
GraphBuilder::reshape(NodeId x, const TensorShape &shape,
                      const std::string &name)
{
    if (shape.numElements() != shapeOf(x).numElements()) {
        fatal("reshape: element count mismatch for ", name, ": ",
              shapeOf(x).toString(), " -> ", shape.toString());
    }
    return emit(OpKind::Reshape, name, {x}, shape, typeOf(x), 0,
                2 * bytesOf(x), false);
}

NodeId
GraphBuilder::transpose(NodeId x, const std::vector<int> &perm,
                        const std::string &name)
{
    const TensorShape &in = shapeOf(x);
    if (perm.size() != in.rank())
        fatal("transpose: permutation rank mismatch for ", name);
    std::vector<std::int64_t> out_dims(in.rank());
    for (std::size_t i = 0; i < perm.size(); ++i) {
        if (perm[i] < 0 || static_cast<std::size_t>(perm[i]) >=
            in.rank())
            fatal("transpose: bad permutation for ", name);
        out_dims[i] = in.dim(static_cast<std::size_t>(perm[i]));
    }
    return emit(OpKind::Transpose, name, {x},
                TensorShape(std::move(out_dims)), typeOf(x), 0,
                2 * bytesOf(x), false);
}

NodeId
GraphBuilder::concat(const std::vector<NodeId> &parts,
                     std::size_t axis, const std::string &name)
{
    if (parts.empty())
        fatal("concat: no inputs for ", name);
    const TensorShape &first = shapeOf(parts.front());
    if (axis >= first.rank())
        fatal("concat: axis out of range for ", name);
    std::vector<std::int64_t> out_dims = first.dimensions();
    std::uint64_t bytes = 0;
    std::int64_t axis_total = 0;
    for (const NodeId part : parts) {
        const TensorShape &s = shapeOf(part);
        if (s.rank() != first.rank())
            fatal("concat: rank mismatch for ", name);
        axis_total += s.dim(axis);
        bytes += bytesOf(part);
    }
    out_dims[axis] = axis_total;
    TensorShape out(std::move(out_dims));
    bytes += out.numBytes(typeOf(parts.front()));
    return emit(OpKind::Concat, name, parts, out,
                typeOf(parts.front()), 0, bytes, false);
}

NodeId
GraphBuilder::slice(NodeId x, std::int64_t count,
                    const std::string &name)
{
    const TensorShape &in = shapeOf(x);
    if (in.rank() < 1 || count > in.dim(0))
        fatal("slice: bad row count for ", name);
    std::vector<std::int64_t> out_dims = in.dimensions();
    out_dims[0] = count;
    TensorShape out(std::move(out_dims));
    return emit(OpKind::Slice, name, {x}, out, typeOf(x), 0,
                2 * out.numBytes(typeOf(x)), false);
}

NodeId
GraphBuilder::gather(NodeId ids, std::int64_t width,
                     const std::string &name)
{
    const TensorShape &in = shapeOf(ids);
    std::vector<std::int64_t> out_dims = in.dimensions();
    out_dims.push_back(width);
    TensorShape out(std::move(out_dims));
    const std::uint64_t out_bytes = out.numBytes(default_dtype);
    return emit(OpKind::GatherV2, name, {ids}, out, default_dtype,
                0, bytesOf(ids) + 2 * out_bytes, false);
}

NodeId
GraphBuilder::pool(OpKind kind, NodeId x, std::int64_t window,
                   std::int64_t stride, const std::string &name)
{
    const TensorShape &in = shapeOf(x);
    if (in.rank() != 4)
        fatal("pool: expected NHWC input for ", name);
    TensorShape out({in.dim(0),
                     (in.dim(1) + stride - 1) / stride,
                     (in.dim(2) + stride - 1) / stride,
                     in.dim(3)});
    const std::uint64_t flops =
        static_cast<std::uint64_t>(out.numElements()) * window *
        window;
    return emit(kind, name, {x}, out, typeOf(x), flops,
                bytesOf(x) + out.numBytes(typeOf(x)), false);
}

NodeId
GraphBuilder::resizeNearest(NodeId x, std::int64_t factor,
                            const std::string &name)
{
    const TensorShape &in = shapeOf(x);
    if (in.rank() != 4)
        fatal("resizeNearest: expected NHWC input for ", name);
    TensorShape out({in.dim(0), in.dim(1) * factor,
                     in.dim(2) * factor, in.dim(3)});
    return emit(OpKind::ResizeNearestNeighbor, name, {x}, out,
                typeOf(x), 0,
                bytesOf(x) + out.numBytes(typeOf(x)), false);
}

NodeId
GraphBuilder::l2Loss(NodeId after, std::uint64_t param_count,
                     const std::string &name)
{
    const std::size_t esize = dataTypeSize(DataType::F32);
    return emit(OpKind::L2Loss, name, {after}, TensorShape{},
                DataType::F32, 2 * param_count,
                param_count * esize, false);
}

NodeId
GraphBuilder::shapeOp(OpKind kind, NodeId x,
                      const TensorShape &shape,
                      const std::string &name)
{
    const std::uint64_t out_elems =
        static_cast<std::uint64_t>(shape.numElements());
    return emit(kind, name, {x}, shape, typeOf(x), out_elems,
                bytesOf(x) + shape.numBytes(typeOf(x)), false);
}

NodeId
GraphBuilder::allReduce(NodeId after, std::uint64_t param_count,
                        const std::string &name)
{
    const std::size_t esize = dataTypeSize(DataType::F32);
    const std::uint64_t bytes = 2 * param_count * esize;
    return emit(OpKind::AllReduce, name, {after}, TensorShape{},
                DataType::F32, param_count, bytes, false);
}

} // namespace tpupoint
