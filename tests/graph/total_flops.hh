/** @file Sum of a graph's node flops, shared by the graph tests. */

#ifndef TPUPOINT_TESTS_GRAPH_TOTAL_FLOPS_HH
#define TPUPOINT_TESTS_GRAPH_TOTAL_FLOPS_HH

#include <cstdint>

#include "graph/graph.hh"

namespace tpupoint {
namespace testutil {

/** Sum of flops over all nodes of @p graph. */
inline std::uint64_t
totalFlops(const Graph &graph)
{
    std::uint64_t total = 0;
    for (const auto &node : graph.nodes())
        total += node.flops;
    return total;
}

} // namespace testutil
} // namespace tpupoint

#endif // TPUPOINT_TESTS_GRAPH_TOTAL_FLOPS_HH
