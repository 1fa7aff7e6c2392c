#include "obs/metrics.hh"

#include <charconv>
#include <limits>

#include "core/json.hh"
#include "core/logging.hh"

namespace tpupoint {
namespace obs {

Histogram::Histogram(const HistogramOptions &options)
{
    if (options.buckets == 0)
        fatal("Histogram: at least one bucket is required");
    if (options.growth < 2)
        fatal("Histogram: growth factor must be >= 2");
    upper_bounds.reserve(options.buckets);
    std::uint64_t bound =
        options.first_bound > 0 ? options.first_bound : 1;
    for (std::size_t i = 0; i < options.buckets; ++i) {
        upper_bounds.push_back(bound);
        // Saturate instead of wrapping: every further bucket keeps
        // the max bound and the scan stops at the first match.
        if (bound > std::numeric_limits<std::uint64_t>::max() /
                        options.growth) {
            bound = std::numeric_limits<std::uint64_t>::max();
        } else {
            bound *= options.growth;
        }
    }
    counts = std::vector<std::atomic<std::uint64_t>>(
        upper_bounds.size() + 1);
}

std::size_t
Histogram::bucketIndex(std::uint64_t value) const
{
    for (std::size_t i = 0; i < upper_bounds.size(); ++i) {
        if (value <= upper_bounds[i])
            return i;
    }
    return upper_bounds.size(); // overflow bucket
}

void
Histogram::observe(std::uint64_t value)
{
    counts[bucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    total.fetch_add(value, std::memory_order_relaxed);
    // Release-publish last: a reader that acquires `observations`
    // == N is guaranteed to see the bucket and sum updates of all
    // N observations, so a snapshot's sum can never undercount
    // its own count (it may include newer observations, which is
    // benign — monotonic, never torn).
    observations.fetch_add(1, std::memory_order_release);
}

std::uint64_t
Histogram::bucketCount(std::size_t index) const
{
    if (index >= counts.size())
        panic("Histogram::bucketCount: index out of range");
    return counts[index].load(std::memory_order_relaxed);
}

HistogramData
Histogram::data() const
{
    HistogramData data;
    data.count = count();
    data.sum = sum();
    data.bounds = upper_bounds;
    data.bucket_counts.reserve(counts.size());
    for (const auto &bucket : counts)
        data.bucket_counts.push_back(
            bucket.load(std::memory_order_relaxed));
    return data;
}

void
Histogram::reset()
{
    for (auto &bucket : counts)
        bucket.store(0, std::memory_order_relaxed);
    observations.store(0, std::memory_order_relaxed);
    total.store(0, std::memory_order_relaxed);
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry *registry = new MetricsRegistry();
    return *registry;
}

namespace {

/** OpenMetrics name charset: [a-zA-Z0-9_:], no leading digit. */
std::string
sanitizeMetricName(std::string_view name)
{
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
            (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    if (out.empty() || (out[0] >= '0' && out[0] <= '9'))
        out.insert(out.begin(), '_');
    return out;
}

/** `{key="escaped",...}` or "" when label-less. */
std::string
renderLabels(const ParsedMetricName &parsed)
{
    if (parsed.labels.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto &[key, value] : parsed.labels) {
        if (!first)
            out += ",";
        out += sanitizeMetricName(key);
        out += "=\"";
        out += escapeLabelValue(value);
        out += "\"";
        first = false;
    }
    out += "}";
    return out;
}

template <typename Integer>
void
appendInteger(std::string &out, Integer value)
{
    char digits[24];
    const char *const end =
        std::to_chars(digits, digits + sizeof(digits), value).ptr;
    out.append(digits, static_cast<std::size_t>(end - digits));
}

/** Emit `# TYPE family kind` once per family (names arrive
 * sorted, so labeled variants of one base are adjacent). */
void
typeLineOnce(std::string &out, std::string_view &last_family,
             std::string_view family, std::string_view kind)
{
    if (family == last_family)
        return;
    out += "# TYPE ";
    out += family;
    out += ' ';
    out += kind;
    out += '\n';
    last_family = family;
}

} // namespace

template <typename Instrument, typename... Args>
Instrument &
MetricsRegistry::getOrCreate(EntryMap<Instrument> &entries,
                             std::string_view name, Args &&...args)
{
    auto it = entries.find(name);
    if (it == entries.end()) {
        const ParsedMetricName parsed = parseMetricName(name);
        Entry<Instrument> entry{
            std::make_unique<Instrument>(std::forward<Args>(args)...),
            sanitizeMetricName(parsed.base), renderLabels(parsed)};
        it = entries.emplace(std::string(name), std::move(entry))
                 .first;
    }
    return *it->second.instrument;
}

Counter &
MetricsRegistry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(registration);
    return getOrCreate(counters, name);
}

Gauge &
MetricsRegistry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(registration);
    return getOrCreate(gauges, name);
}

Histogram &
MetricsRegistry::histogram(std::string_view name,
                           const HistogramOptions &options)
{
    std::lock_guard<std::mutex> lock(registration);
    return getOrCreate(histograms, name, options);
}

const Histogram *
MetricsRegistry::findHistogram(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(registration);
    const auto it = histograms.find(name);
    return it == histograms.end() ? nullptr
                                  : it->second.instrument.get();
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(registration);
    MetricsSnapshot snap;
    for (const auto &[name, entry] : counters)
        snap.counters[name] = entry.instrument->value();
    for (const auto &[name, entry] : gauges)
        snap.gauges[name] = entry.instrument->value();
    for (const auto &[name, entry] : histograms)
        snap.histograms[name] = entry.instrument->data();
    return snap;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(registration);
    for (auto &[name, entry] : counters)
        entry.instrument->reset();
    for (auto &[name, entry] : gauges)
        entry.instrument->reset();
    for (auto &[name, entry] : histograms)
        entry.instrument->reset();
}

void
MetricsRegistry::writeJson(std::ostream &out, bool pretty) const
{
    const MetricsSnapshot snap = snapshot();
    JsonWriter w(out, pretty);
    w.beginObject();
    w.key("counters");
    w.beginObject();
    for (const auto &[name, value] : snap.counters)
        w.field(name, value);
    w.endObject();
    w.key("gauges");
    w.beginObject();
    for (const auto &[name, value] : snap.gauges)
        w.field(name, value);
    w.endObject();
    w.key("histograms");
    w.beginObject();
    for (const auto &[name, data] : snap.histograms) {
        w.key(name);
        w.beginObject();
        w.field("count", data.count);
        w.field("sum", data.sum);
        w.key("buckets");
        w.beginArray();
        for (std::size_t i = 0; i < data.bucket_counts.size();
             ++i) {
            w.beginObject();
            w.key("le");
            if (i < data.bounds.size())
                w.value(data.bounds[i]);
            else
                w.value("inf");
            w.field("count", data.bucket_counts[i]);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

ParsedMetricName
parseMetricName(std::string_view name)
{
    ParsedMetricName parsed;
    const std::size_t brace = name.find('{');
    if (brace == std::string_view::npos ||
        name.back() != '}') {
        parsed.base = std::string(name);
        return parsed;
    }
    parsed.base = std::string(name.substr(0, brace));
    std::string_view body =
        name.substr(brace + 1, name.size() - brace - 2);
    while (!body.empty()) {
        const std::size_t comma = body.find(',');
        const std::string_view entry =
            comma == std::string_view::npos
                ? body
                : body.substr(0, comma);
        const std::size_t eq = entry.find('=');
        if (eq != std::string_view::npos)
            parsed.labels.emplace_back(
                std::string(entry.substr(0, eq)),
                std::string(entry.substr(eq + 1)));
        if (comma == std::string_view::npos)
            break;
        body.remove_prefix(comma + 1);
    }
    return parsed;
}

std::string
escapeLabelValue(std::string_view value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

void
MetricsRegistry::writeOpenMetrics(std::string &out) const
{
    out.clear();
    std::lock_guard<std::mutex> lock(registration);
    std::string_view last_family;

    for (const auto &[name, entry] : counters) {
        typeLineOnce(out, last_family, entry.family, "counter");
        out += entry.family;
        out += "_total";
        out += entry.labels;
        out += ' ';
        appendInteger(out, entry.instrument->value());
        out += '\n';
    }

    for (const auto &[name, entry] : gauges) {
        typeLineOnce(out, last_family, entry.family, "gauge");
        out += entry.family;
        out += entry.labels;
        out += ' ';
        appendInteger(out, entry.instrument->value());
        out += '\n';
    }

    for (const auto &[name, entry] : histograms) {
        const std::string &family = entry.family;
        const std::string_view labels = entry.labels;
        typeLineOnce(out, last_family, family, "histogram");
        const Histogram &histogram = *entry.instrument;
        // Count first: its acquire covers the buckets and sum of
        // at least that many observations.
        const std::uint64_t count = histogram.count();
        const std::uint64_t sum = histogram.sum();
        // OpenMetrics buckets are cumulative; `le` is the
        // inclusive upper bound. Extra labels precede le.
        const std::vector<std::uint64_t> &bounds = histogram.bounds();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i <= bounds.size(); ++i) {
            cumulative += histogram.bucketCount(i);
            out += family;
            out += "_bucket";
            if (labels.empty()) {
                out += '{';
            } else {
                out += labels.substr(0, labels.size() - 1);
                out += ',';
            }
            out += "le=\"";
            if (i < bounds.size())
                appendInteger(out, bounds[i]);
            else
                out += "+Inf";
            out += "\"} ";
            appendInteger(out, cumulative);
            out += '\n';
        }
        out += family;
        out += "_sum";
        out += labels;
        out += ' ';
        appendInteger(out, sum);
        out += '\n';
        out += family;
        out += "_count";
        out += labels;
        out += ' ';
        appendInteger(out, count);
        out += '\n';
    }

    out += "# EOF\n";
}

void
MetricsRegistry::writeText(std::ostream &out) const
{
    const MetricsSnapshot snap = snapshot();
    for (const auto &[name, value] : snap.counters)
        out << name << ' ' << value << '\n';
    for (const auto &[name, value] : snap.gauges)
        out << name << ' ' << value << '\n';
    for (const auto &[name, data] : snap.histograms) {
        out << name << " count=" << data.count
            << " sum=" << data.sum << '\n';
    }
}

double
histogramQuantile(const HistogramData &data, double q)
{
    if (data.count == 0 || data.bucket_counts.empty())
        return 0.0;
    // NaN fails every comparison; !(q >= 0) catches it alongside
    // the negatives so the rank arithmetic below never casts NaN.
    if (!(q >= 0.0))
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // The observation whose bucket we report: rank ceil(q * N),
    // clamped to [1, N].
    auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(data.count));
    if (static_cast<double>(rank) <
        q * static_cast<double>(data.count))
        ++rank;
    if (rank == 0)
        rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < data.bucket_counts.size(); ++i) {
        seen += data.bucket_counts[i];
        if (seen >= rank) {
            if (i < data.bounds.size())
                return static_cast<double>(data.bounds[i]);
            break;
        }
    }
    // Overflow bucket: the last finite bound is all we can say.
    return data.bounds.empty()
        ? 0.0
        : static_cast<double>(data.bounds.back());
}

} // namespace obs
} // namespace tpupoint
