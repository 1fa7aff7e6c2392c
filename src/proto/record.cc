#include "proto/record.hh"

namespace tpupoint {

std::vector<std::string>
StepStats::opSet() const
{
    std::vector<std::string> out;
    out.reserve(host_ops.size() + tpu_ops.size());
    for (const auto &[name, stats] : host_ops)
        out.push_back("host:" + name);
    for (const auto &[name, stats] : tpu_ops)
        out.push_back("tpu:" + name);
    return out; // sorted: maps iterate in key order, prefixes kept
}

} // namespace tpupoint
