#include "proto/record.hh"

#include <algorithm>

#include "core/logging.hh"

namespace tpupoint {

void
StepStats::merge(const StepStats &other)
{
    if (step != other.step)
        panic("StepStats::merge: step mismatch");
    begin = std::min(begin, other.begin);
    end = std::max(end, other.end);
    for (const auto &[name, stats] : other.host_ops)
        host_ops[name].merge(stats);
    for (const auto &[name, stats] : other.tpu_ops)
        tpu_ops[name].merge(stats);
    tpu_busy += other.tpu_busy;
    tpu_idle += other.tpu_idle;
    mxu_active += other.mxu_active;
}

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

std::uint64_t
ProfileRecord::totalOpCount() const
{
    std::uint64_t total = 0;
    for (const auto &s : steps) {
        for (const auto &[name, stats] : s.host_ops)
            total += stats.count;
        for (const auto &[name, stats] : s.tpu_ops)
            total += stats.count;
    }
    return total;
}

} // namespace tpupoint
