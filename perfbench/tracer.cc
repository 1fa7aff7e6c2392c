#include "tracer.hh"

#include <cstdio>

namespace perfbench {

std::int64_t
Tracer::totalNs(const std::string &name) const
{
    std::int64_t total = 0;
    for (const Span &span : spans)
        if (span.name == name)
            total += span.duration();
    return total;
}

std::int64_t
Tracer::selfNs(const std::string &name) const
{
    std::int64_t total = 0;
    for (const Span &span : spans)
        if (span.name == name)
            total += span.self();
    return total;
}

void
Tracer::printBreakdown(const std::string &root) const
{
    const double root_ns = static_cast<double>(totalNs(root));
    const auto share = [&](double ns) {
        return root_ns > 0 ? 100.0 * ns / root_ns : 0.0;
    };
    std::map<std::string, std::pair<std::int64_t, std::int64_t>> by_name;
    for (const Span &span : spans) {
        by_name[span.name].first += span.duration();
        by_name[span.name].second += span.self();
    }
    std::printf("# traced time as a share of %s (%.1f ms in all)\n",
                root.c_str(), root_ns / 1e6);
    for (const auto &[name, time] : by_name)
        std::printf("# span  %-30s %11.2f ms  self %11.2f ms %6.1f%%\n",
                    name.c_str(), time.first / 1e6, time.second / 1e6,
                    share(static_cast<double>(time.first)));
    for (const auto &[name, layer] : layers)
        std::printf("# layer %-30s %11.2f ms  %10llu calls %6.1f%%\n",
                    name.c_str(), layer.ns / 1e6,
                    static_cast<unsigned long long>(layer.calls),
                    share(static_cast<double>(layer.ns)));
}

void
Tracer::write(std::ostream &out) const
{
    const std::int64_t origin = spans.empty() ? 0 : spans.front().begin_ns;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << span.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << (span.begin_ns - origin) / 1000.0
            << ",\"dur\":" << span.duration() / 1000.0
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
            << ",\"job\":" << span.job
            << ",\"self_us\":" << span.self() / 1000.0
            << ",\"charged_us\":" << span.charged_ns / 1000.0 << "}}";
    }
    out << "\n],\"layers\":{";
    bool first = true;
    for (const auto &[name, layer] : layers) {
        out << (first ? "\n" : ",\n") << "\"" << name
            << "\":{\"ns\":" << layer.ns << ",\"calls\":" << layer.calls
            << ",\"items\":" << layer.items << "}";
        first = false;
    }
    out << "\n}}\n";
}

} // namespace perfbench
