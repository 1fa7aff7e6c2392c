#include "graph/graph.hh"

#include "core/logging.hh"

namespace tpupoint {

Graph::Graph(std::string name_arg) : graph_name(std::move(name_arg))
{
}

NodeId
Graph::add(Node node)
{
    const NodeId id = static_cast<NodeId>(node_list.size());
    for (const NodeId input : node.inputs) {
        if (input >= id) {
            panic("Graph::add: node '", node.name, "' references ",
                  "input ", input, " which does not precede it");
        }
    }
    node.id = id;
    node_list.push_back(std::move(node));
    return id;
}

const Node &
Graph::node(NodeId id) const
{
    if (id >= node_list.size())
        panic("Graph::node: id ", id, " out of range");
    return node_list[id];
}

std::vector<std::uint32_t>
Graph::consumerCounts() const
{
    std::vector<std::uint32_t> counts(node_list.size(), 0);
    for (const auto &n : node_list)
        for (const NodeId input : n.inputs)
            ++counts[input];
    return counts;
}

std::uint64_t
Graph::totalBytes() const
{
    std::uint64_t total = 0;
    for (const auto &n : node_list)
        total += n.bytes;
    return total;
}

std::size_t
Graph::countKind(OpKind kind) const
{
    std::size_t count = 0;
    for (const auto &n : node_list)
        if (n.kind == kind)
            ++count;
    return count;
}

void
Graph::validate() const
{
    for (std::size_t i = 0; i < node_list.size(); ++i) {
        const Node &n = node_list[i];
        if (n.id != static_cast<NodeId>(i))
            panic("Graph::validate: node ", i, " has wrong id");
        for (const NodeId input : n.inputs) {
            if (input >= n.id) {
                panic("Graph::validate: node '", n.name,
                      "' input does not precede it");
            }
        }
    }
}

} // namespace tpupoint
