/**
 * @file
 * The benchmark's own tracer. Spans wrap the benchmark's calls into
 * each layer's public functions; nothing inside the library is
 * instrumented. Coarse calls (a finalize, a writer, a serve tick)
 * become spans; per-event and per-record calls are too frequent for
 * one span each, so they are charged to a named layer accumulator
 * and to the span that is open at the time. A span's self time is
 * its duration minus its child spans and the time charged to it.
 *
 * Everything stays in memory until write(), which emits Chrome
 * trace-event JSON plus a "layers" summary.
 */

#ifndef TPUPOINT_PERFBENCH_TRACER_HH
#define TPUPOINT_PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Time and work charged to one layer by frequent calls. */
struct Layer
{
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
    std::uint64_t items = 0; ///< Events or bytes, per the layer.

    /** Nanoseconds per item (0 with no items). */
    double
    nsPerItem() const
    {
        return items == 0 ? 0.0
                          : static_cast<double>(ns) /
                static_cast<double>(items);
    }
};

/** One recorded span. */
struct Span
{
    std::string name;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;        ///< Index of the enclosing span.
    std::uint32_t job = 0;  ///< Request id shared by a job's spans.
    std::int64_t child_ns = 0;   ///< Covered by child spans.
    std::int64_t charged_ns = 0; ///< Charged by layer accumulators.

    std::int64_t duration() const { return end_ns - begin_ns; }
    std::int64_t self() const
    {
        return duration() - child_ns - charged_ns;
    }
};

/** Single-threaded span recorder; off means every call is a no-op. */
class Tracer
{
  public:
    bool enabled() const { return on; }
    void enable(bool value) { on = value; }

    /** Tag the spans that follow with request id @p id. */
    void setJob(std::uint32_t id) { job = id; }

    int
    begin(const std::string &name)
    {
        if (!on)
            return -1;
        Span span;
        span.name = name;
        span.parent = open.empty() ? -1 : open.back();
        span.job = job;
        span.begin_ns = nowNs();
        spans.push_back(std::move(span));
        open.push_back(static_cast<int>(spans.size() - 1));
        return open.back();
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        Span &span = spans[static_cast<std::size_t>(id)];
        span.end_ns = nowNs();
        open.pop_back();
        if (span.parent >= 0)
            spans[static_cast<std::size_t>(span.parent)].child_ns +=
                span.duration();
    }

    /** The accumulator for @p name (stable reference). */
    Layer &layer(const std::string &name) { return layers[name]; }

    /** Charge @p ns of @p layer's work to it and the open span. */
    void
    charge(Layer &target, std::int64_t ns, std::uint64_t items)
    {
        target.ns += ns;
        ++target.calls;
        target.items += items;
        if (!open.empty())
            spans[static_cast<std::size_t>(open.back())].charged_ns +=
                ns;
    }

    /** Total duration of every span named @p name. */
    std::int64_t totalNs(const std::string &name) const;

    /** Total self time of every span named @p name. */
    std::int64_t selfNs(const std::string &name) const;

    const std::vector<Span> &recorded() const { return spans; }

    /** Chrome trace-event JSON plus the per-layer summary. */
    void write(std::ostream &out) const;

    /**
     * Print "# " lines with every span name's total and self time
     * and every layer's charged time, each as a share of the total
     * time of the spans named @p root.
     */
    void printBreakdown(const std::string &root) const;

  private:
    bool on = false;
    std::uint32_t job = 0;
    std::vector<Span> spans;
    std::vector<int> open;
    std::map<std::string, Layer> layers;
};

/** RAII span; a no-op when the tracer is off. */
class Scoped
{
  public:
    Scoped(Tracer &tracer, const std::string &name)
        : owner(tracer), id(tracer.begin(name))
    {
    }
    ~Scoped() { owner.end(id); }

    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    Tracer &owner;
    int id;
};

} // namespace perfbench

#endif // TPUPOINT_PERFBENCH_TRACER_HH
