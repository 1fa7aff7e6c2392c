/**
 * @file
 * The TPUPoint benchmark: four workloads that drive the library's
 * public entry points in-process, the way the tools do.
 *
 *   profile       simulate + profile ResNet-ImageNet, streamed to a file
 *   analyze       tpupoint-analyze's default OLS path on a large profile
 *   characterize  k-means + DBSCAN + OLS on a ~5k-step QANet profile
 *   serve         open-loop live ingest through SessionManager
 *
 * Usage:
 *   tpupoint_perfbench --workload NAME --seed N --seconds S
 *                      --trace 0|1 --root DIR
 *
 * With --trace 0 the last stdout line is one JSON object carrying the
 * end-to-end metrics; with --trace 1 it carries the per-layer metrics
 * of a traced run (see README.md next to this file). Every job's
 * output is checked; a mismatch counts as a failed operation.
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <unordered_map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analyzer/detector.hh"
#include "analyzer/features.hh"
#include "analyzer/visualization.hh"
#include "core/json.hh"
#include "core/logging.hh"
#include "core/rng.hh"
#include "obs/metrics.hh"
#include "profiler/profiler.hh"
#include "proto/serialize.hh"
#include "runtime/analysis_pipeline.hh"
#include "runtime/session.hh"
#include "serve/serve.hh"
#include "trace/record_stream.hh"
#include "trace/wire.hh"
#include "tracer.hh"
#include "workloads/catalog.hh"

using namespace tpupoint;
using perfbench::Layer;
using perfbench::nowNs;
using perfbench::Scoped;
using perfbench::Tracer;

namespace fs = std::filesystem;

namespace {

// ---- Workload sizes --------------------------------------------------

/** profile: ResNet-ImageNet at 10% of its steps (~6.5k windows). */
constexpr double kProfileScale = 0.1;

/** analyze: ResNet-ImageNet at 30% (~40 MB of profile). */
constexpr double kAnalyzeScale = 0.3;

/** characterize: QANet at the tools' default scale (~5k steps). */
constexpr double kCharacterizeScale = 0.05;

/** serve: daemon tick interval; appends are due on the same grid. */
constexpr std::int64_t kTickMs = 20;

/** serve: sessions started per second of run, each streaming for
 * kSessionMs, so about 13 run at once. */
constexpr double kSessionsPerSecond = 6.4;
constexpr std::int64_t kSessionMs = 2000;

/** Set-ups per run; setup_s is their median. */
constexpr std::uint32_t kSetups = 3;

// ---- Small helpers ---------------------------------------------------

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2;
}

/** Linear-interpolated percentile, @p q in [0, 100]. */
double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos =
        q / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
        (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) / 1e9;
}

/**
 * CPU time in nanoseconds, by default of every thread of the process.
 * Unlike wall time it leaves out time spent blocked and, in a guest
 * with paravirtual time accounting, time the host gave this CPU to
 * another guest (steal).
 */
std::int64_t
cpuNs(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID)
{
    timespec now{};
    clock_gettime(clock, &now);
    return static_cast<std::int64_t>(now.tv_sec) * 1000000000 +
        now.tv_nsec;
}

/** One timed piece of work: process CPU time and wall time. */
struct Sample
{
    double cpu_ms = 0;
    double wall_ms = 0;
};

/** Measures a Sample from construction to elapsed(). */
class Stopwatch
{
  public:
    Sample
    elapsed() const
    {
        return {static_cast<double>(cpuNs() - cpu0) / 1e6,
                static_cast<double>(nowNs() - wall0) / 1e6};
    }

  private:
    std::int64_t wall0 = nowNs();
    std::int64_t cpu0 = cpuNs();
};

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

unsigned
poolThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, std::min(4u, hw == 0 ? 1u : hw));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::vector<CheckpointInfo>
loadCheckpoints(const std::string &path)
{
    std::vector<CheckpointInfo> out;
    std::ifstream in(path);
    CheckpointInfo info;
    while (in >> info.step >> info.saved_at >> info.bytes)
        out.push_back(info);
    return out;
}

const char *
algorithmKey(PhaseAlgorithm algorithm)
{
    switch (algorithm) {
      case PhaseAlgorithm::KMeans: return "kmeans";
      case PhaseAlgorithm::Dbscan: return "dbscan";
      case PhaseAlgorithm::OnlineLinearScan: return "ols";
    }
    return "unknown";
}

/** A registry histogram's sum of observations (0 if absent). */
std::uint64_t
histogramSum(const std::string &name)
{
    const auto snapshot = obs::MetricsRegistry::global().snapshot();
    const auto it = snapshot.histograms.find(name);
    return it == snapshot.histograms.end() ? 0 : it->second.sum;
}

// ---- Report ----------------------------------------------------------

/** The run's result: checks plus named metrics. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }

    /** Count one checked operation; print why when it failed. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "check failed: %s\n", what.c_str());
        }
    }

    void
    print() const
    {
        std::printf("{\"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %llu, \"metrics\": {",
                    failed == 0 && attempted > 0 ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            const auto &[name, value] = metrics[i];
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", name.c_str(),
                        std::isfinite(value.first) ? value.first : 0.0,
                        value.second.c_str());
        }
        std::printf("}}\n");
    }
};

/**
 * Per-layer metrics of a traced run. Every workload reports the full
 * set; a layer the workload never calls reads 0.
 */
struct LayerFigures
{
    std::map<std::string, double> values;

    void set(const std::string &name, double value)
    {
        values[name] = value;
    }

    /** Add every per-layer metric to @p report; peak RSS is read now. */
    void
    emit(Report &report)
    {
        static const std::vector<std::pair<const char *, const char *>>
            kLayerMetrics = {
                {"sim.self_ns_per_event", "ns/event"},
                {"sim.events", "count"},
                {"profiler.record_ns_per_event", "ns/event"},
                {"profiler.events_dropped", "count"},
                {"proto.encode_ns_per_event", "ns/event"},
                {"trace.append_ns_per_byte", "ns/B"},
                {"trace.write_ms", "ms"},
                {"trace.bytes", "B"},
                {"trace.spool_stalls", "count"},
                {"proto.decode_ns_per_event", "ns/event"},
                {"analyzer.fold_ns_per_event", "ns/event"},
                {"analyzer.features_ms", "ms"},
                {"analyzer.finalize_ms", "ms"},
                {"analyzer.detect_ms.kmeans", "ms"},
                {"analyzer.detect_ms.dbscan", "ms"},
                {"analyzer.detect_ms.ols", "ms"},
                {"analyzer.write_ms.trace", "ms"},
                {"analyzer.write_ms.csv", "ms"},
                {"analyzer.write_ms.summary", "ms"},
                {"analyzer.stream_ingest_ns_per_event", "ns/event"},
                {"analyzer.partial_result_us", "us"},
                {"core.pool_wait_ms", "ms"},
                {"core.pool_busy_ms", "ms"},
                {"serve.tick_ms_p99", "ms"},
                {"serve.lag_ms_p50", "ms"},
                {"serve.lag_ms_p90", "ms"},
                {"serve.lag_ms_p99", "ms"},
                {"serve.poll_ms_p50", "ms"},
                {"serve.poll_ms_p99", "ms"},
                {"serve.publish_status_ms_p50", "ms"},
                {"serve.publish_metrics_ms_p50", "ms"},
                {"serve.ingest_chunk_us_p99", "us"},
                {"serve.journal_bytes", "B"},
                {"serve.backlog_bytes_max", "B"},
                {"serve.generator_late_ms_max", "ms"},
                {"bench.job_wall_ms_p50", "ms"},
                {"bench.job_wall_ms_p90", "ms"},
                {"bench.calibration_ms_p50", "ms"},
                {"bench.trace_overhead_pct", "%"},
                {"bench.peak_rss_mb", "MB"},
            };
        values["bench.peak_rss_mb"] = peakRssMb();
        for (const auto &[name, unit] : kLayerMetrics) {
            const auto it = values.find(name);
            report.add(name, it == values.end() ? 0.0 : it->second,
                       unit);
        }
    }
};

/** A calibration kernel's size and its CPU time on the reference CPU. */
struct Calibration
{
    std::size_t keys;
    double reference_ms;
};

/**
 * Between batch jobs and set-ups: a working set of ~10 MB, which a
 * shared host's neighbours slow about as much as they slow the jobs.
 * Reference: a quiet 4-vCPU Intel Xeon VM (2.0 GHz nominal).
 */
constexpr Calibration kJobCalibration{200000, 95.0};

/** After each serve tick: small enough to fit the tick interval. */
constexpr Calibration kTickCalibration{20000, 5.8};

/**
 * Fixed benchmark-owned work (a hash map built and probed, a sort, a
 * heap drained) whose CPU time tracks the speed the host gives this
 * CPU right now. On a shared host that speed moves by half within
 * seconds, as neighbours contend for the core and its caches, and
 * every timing moves with it; run next to a timing, the kernel tells
 * how fast the CPU ran. Returns the calling thread's CPU milliseconds.
 */
double
calibrationKernelMs(std::size_t keys)
{
    const std::int64_t start = cpuNs(CLOCK_THREAD_CPUTIME_ID);
    Rng rng(0x43414c4942ULL); // "CALIB"
    std::vector<std::uint64_t> values(keys);
    for (std::uint64_t &value : values)
        value = rng.nextU64();
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (std::size_t i = 0; i < values.size(); ++i)
        map[values[i]] = i;
    std::uint64_t sum = 0;
    for (int round = 0; round < 3; ++round)
        for (const std::uint64_t value : values)
            sum += map[value];
    std::sort(values.begin(), values.end());
    std::priority_queue<std::uint64_t> heap(values.begin(), values.end());
    for (; !heap.empty(); heap.pop())
        sum += heap.top();
    volatile std::uint64_t sink = sum;
    (void)sink;
    return static_cast<double>(cpuNs(CLOCK_THREAD_CPUTIME_ID) - start) /
        1e6;
}

/**
 * @p cpu_ms scaled to the reference CPU's speed, judged by @p kernel's
 * mean time in the calibrations just before and just after it.
 */
double
atReferenceSpeed(double cpu_ms, double before, double after,
                 const Calibration &kernel)
{
    return cpu_ms * kernel.reference_ms * 2 / (before + after);
}

/**
 * Timings of one measured loop of batch jobs or serve ticks, in
 * milliseconds.
 */
struct JobTimes
{
    std::vector<double> ref_ms; ///< CPU time at reference speed.
    std::vector<double> wall_ms;
    std::vector<double> calibration_ms; ///< The kernel's own CPU time.

    /** Add @p sample, calibrated @p before and @p after. */
    void
    add(const Sample &sample, double before, double after,
        const Calibration &kernel)
    {
        ref_ms.push_back(
            atReferenceSpeed(sample.cpu_ms, before, after, kernel));
        wall_ms.push_back(sample.wall_ms);
        calibration_ms.push_back(after);
    }
    std::size_t jobs() const { return ref_ms.size(); }
    double medianRefMs() const { return median(ref_ms); }
};

/**
 * Pins the calling thread to one CPU for its lifetime, choosing the
 * CPUs the process may use round robin, and restores the full set on
 * destruction. On a shared host one CPU can run a third slower than
 * another for seconds at a time; spreading consecutive jobs over every
 * CPU keeps one contended CPU from setting a run's median.
 */
class RoundRobinPin
{
  public:
    explicit RoundRobinPin(std::uint32_t index)
    {
        if (sched_getaffinity(0, sizeof all, &all) != 0)
            return;
        const int count = CPU_COUNT(&all);
        int skip = count > 0 ? static_cast<int>(index % count) : 0;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (!CPU_ISSET(cpu, &all) || skip-- > 0)
                continue;
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            pinned = sched_setaffinity(0, sizeof one, &one) == 0;
            return;
        }
    }
    ~RoundRobinPin()
    {
        if (pinned)
            sched_setaffinity(0, sizeof all, &all);
    }

    RoundRobinPin(const RoundRobinPin &) = delete;
    RoundRobinPin &operator=(const RoundRobinPin &) = delete;

  private:
    cpu_set_t all{};
    bool pinned = false;
};

/**
 * The job calibration kernel on @p threads threads at once, pinned
 * round robin from CPU @p cpu; returns their mean time. A job whose
 * work fans out over the pool runs its threads on cores that share
 * the host's execution units and caches with each other, and slows
 * itself by how much they overlap; running the kernel as widely meets
 * the same sharing. Call it unpinned: threads inherit the caller's
 * CPU mask.
 */
double
calibrationMs(unsigned threads, std::uint32_t cpu)
{
    if (threads == 1) {
        // In the calling thread, whose heap is warm: a new thread
        // allocates from a fresh malloc arena and page-faults, work
        // the single-threaded jobs do not do.
        RoundRobinPin pin(cpu);
        return calibrationKernelMs(kJobCalibration.keys);
    }
    std::vector<double> ms(threads);
    std::vector<std::thread> workers;
    for (unsigned i = 0; i < threads; ++i)
        workers.emplace_back([&ms, i, cpu] {
            RoundRobinPin pin(cpu + i);
            ms[i] = calibrationKernelMs(kJobCalibration.keys);
        });
    for (std::thread &worker : workers)
        worker.join();
    double sum = 0;
    for (const double value : ms)
        sum += value;
    return sum / threads;
}

/**
 * Closed loop: run @p job back to back for @p seconds (at least
 * three jobs), each on the next CPU, with a calibration on
 * @p threads threads between jobs. @p job returns its own timed
 * Sample so that the output checks it runs afterwards stay out of the
 * measurement.
 */
JobTimes
closedLoop(double seconds, unsigned threads,
           const std::function<Sample(std::uint32_t)> &job)
{
    JobTimes times;
    double before = calibrationMs(threads, 0);
    const std::int64_t start = nowNs();
    std::uint32_t index = 0;
    while (times.jobs() < 3 || secondsSince(start) < seconds) {
        Sample sample;
        {
            RoundRobinPin pin(++index);
            sample = job(index);
        }
        const double after = calibrationMs(threads, index);
        times.add(sample, before, after, kJobCalibration);
        before = after;
    }
    return times;
}

/**
 * The end-to-end metrics, all in process CPU time at reference speed.
 * @p ref_ms holds one value per job (batch) or per tick (serve).
 */
void
addEndToEnd(Report &report, const std::vector<double> &ref_ms,
            double setup_s, double events_per_cpu_s, double mb_per_cpu_s)
{
    report.add("setup_s", setup_s, "s");
    report.add("job_cpu_ms_p50", median(ref_ms), "ms");
    report.add("job_cpu_ms_p75", percentile(ref_ms, 75), "ms");
    report.add("events_per_cpu_s", events_per_cpu_s, "1/s");
    report.add("mb_per_cpu_s", mb_per_cpu_s, "MB/s");
}

void
addBatchEndToEnd(Report &report, const JobTimes &times, double setup_s,
                 double events_per_job, double bytes_per_job)
{
    const double job_s = times.medianRefMs() / 1000.0;
    addEndToEnd(report, times.ref_ms, setup_s, events_per_job / job_s,
                bytes_per_job / job_s / 1e6);
}

/** Raw figures of the untraced loop, which no bound covers. */
void
setRawFigures(LayerFigures &figures, const JobTimes &untraced)
{
    figures.set("bench.job_wall_ms_p50", median(untraced.wall_ms));
    figures.set("bench.job_wall_ms_p90", percentile(untraced.wall_ms, 90));
    figures.set("bench.calibration_ms_p50",
                median(untraced.calibration_ms));
}

/**
 * Run @p setup kSetups times, calibrating on @p threads threads;
 * return the median CPU seconds at reference speed.
 */
double
timedSetups(unsigned threads, const std::function<void()> &setup)
{
    std::vector<double> seconds;
    double before = calibrationMs(threads, 0);
    for (std::uint32_t i = 0; i < kSetups; ++i) {
        double cpu_ms = 0;
        {
            RoundRobinPin pin(i);
            const Stopwatch watch;
            setup();
            cpu_ms = watch.elapsed().cpu_ms;
        }
        const double after = calibrationMs(threads, i);
        seconds.push_back(
            atReferenceSpeed(cpu_ms, before, after, kJobCalibration) /
            1000.0);
        before = after;
    }
    return median(seconds);
}

double
overheadPct(double traced, double untraced)
{
    return untraced > 0 ? 100.0 * (traced / untraced - 1.0) : 0.0;
}

// ---- Producer path: simulator + profiler ----------------------------

/** TraceSink that times the collector it wraps. */
class TimingSink : public TraceSink
{
  public:
    TimingSink(TraceSink *wrapped, Tracer &tracer)
        : inner(wrapped), owner(tracer),
          layer(tracer.layer("profiler.record"))
    {
    }

    void
    record(const TraceEvent &event) override
    {
        const std::int64_t start = nowNs();
        inner->record(event);
        owner.charge(layer, nowNs() - start, 1);
    }

  private:
    TraceSink *inner;
    Tracer &owner;
    Layer &layer;
};

/** File streambuf that times every write reaching it. */
class TimingFileBuf : public std::streambuf
{
  public:
    TimingFileBuf(const std::string &path, Tracer &tracer)
        : owner(tracer), layer(tracer.layer("trace.write"))
    {
        file.open(path, std::ios::out | std::ios::binary |
                            std::ios::trunc);
    }

    bool is_open() const { return file.is_open(); }

  protected:
    int
    overflow(int ch) override
    {
        const std::int64_t start = nowNs();
        const int result = file.sputc(static_cast<char>(ch));
        owner.charge(layer, nowNs() - start, 1);
        return result;
    }

    std::streamsize
    xsputn(const char *data, std::streamsize n) override
    {
        const std::int64_t start = nowNs();
        const std::streamsize result = file.sputn(data, n);
        owner.charge(layer, nowNs() - start,
                     static_cast<std::uint64_t>(n));
        return result;
    }

    int
    sync() override
    {
        const std::int64_t start = nowNs();
        const int result = file.pubsync();
        owner.charge(layer, nowNs() - start, 0);
        return result;
    }

  private:
    std::filebuf file;
    Tracer &owner;
    Layer &layer;
};

/** A sink that accepts and drops every byte. */
class NullBuf : public std::streambuf
{
  protected:
    int overflow(int ch) override { return ch; }
    std::streamsize xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

/** What one profiled training run produced. */
struct ProfileRun
{
    SessionResult result;
    std::uint64_t records = 0;          ///< recordsRecorded().
    std::uint64_t hub_events = 0;       ///< Through the TraceHub.
    std::uint64_t collector_events = 0; ///< Accepted + dropped.
    std::uint64_t dropped = 0;
    std::uint64_t stalls = 0;
    std::uint64_t bytes = 0; ///< Profile file size.
};

/**
 * Simulate and profile @p workload into @p path exactly as
 * `tpupoint-profile` does (v2, no faults, no preemption), writing the
 * checkpoint registry next to it. With the tracer on, the collector
 * and the file are wrapped in timing shims.
 */
ProfileRun
profileOnce(const RuntimeWorkload &workload, std::uint64_t seed,
            const std::string &path, Tracer &tracer)
{
    auto &registry = obs::MetricsRegistry::global();
    obs::Counter &accepted = registry.counter("profiler.events_accepted");
    obs::Counter &dropped = registry.counter("profiler.events_dropped");
    const std::uint64_t accepted_before = accepted.value();
    const std::uint64_t dropped_before = dropped.value();

    std::optional<std::ofstream> plain;
    std::optional<TimingFileBuf> timed;
    std::optional<std::ostream> timed_stream;
    std::ostream *out = nullptr;
    if (tracer.enabled()) {
        timed.emplace(path, tracer);
        timed_stream.emplace(&*timed);
        out = &*timed_stream;
        if (!timed->is_open())
            throw std::runtime_error("cannot write " + path);
    } else {
        plain.emplace(path, std::ios::binary);
        out = &*plain;
    }
    if (!*out)
        throw std::runtime_error("cannot write " + path);

    Simulator sim;
    SessionConfig config;
    config.seed = seed;
    TrainingSession session(sim, config, workload);
    ProfilerOptions profiler_options;
    profiler_options.retain_records = false;
    TpuPointProfiler profiler(sim, session, profiler_options);
    profiler.streamTo(*out);
    profiler.start(/*analyzer=*/true);
    std::optional<TimingSink> timing;
    if (tracer.enabled()) {
        timing.emplace(session.traceHub().attached(), tracer);
        session.traceHub().attach(&*timing);
    }
    session.start(nullptr);
    {
        Scoped span(tracer, "sim.run");
        sim.run();
    }
    {
        Scoped span(tracer, "profiler.stop");
        profiler.stop();
    }
    out->flush();
    if (!*out)
        throw std::runtime_error("failed writing " + path);

    {
        Scoped span(tracer, "profile.checkpoints");
        std::ofstream ckpt(path + ".checkpoints");
        for (const auto &info : session.checkpoints().checkpoints())
            ckpt << info.step << ' ' << info.saved_at << ' '
                 << info.bytes << '\n';
    }

    ProfileRun run;
    run.result = session.result();
    run.records = profiler.recordsRecorded();
    run.hub_events = session.traceHub().totalEvents();
    run.dropped = dropped.value() - dropped_before;
    run.collector_events =
        accepted.value() - accepted_before + run.dropped;
    run.stalls = profiler.spoolStalls();
    run.bytes = fs::file_size(path);
    return run;
}

bool
sameResult(const SessionResult &a, const SessionResult &b)
{
    return a.wall_time == b.wall_time &&
        a.train_window == b.train_window &&
        a.steps_completed == b.steps_completed &&
        a.tpu_idle_fraction == b.tpu_idle_fraction &&
        a.mxu_utilization == b.mxu_utilization &&
        a.preempted == b.preempted;
}

/**
 * The profile job's output checks: a strict decode yields every
 * record, records plus drops account for every event the collector
 * saw, and the bytes and simulated result repeat the reference job.
 * @p keep receives the decoded records when non-null.
 */
std::string
checkProfile(const std::string &path, const ProfileRun &run,
             const ProfileRun &reference, std::uint64_t reference_hash,
             std::uint64_t *hash_out,
             std::vector<ProfileRecord> *keep = nullptr)
{
    const std::string bytes = readFile(path);
    const std::uint64_t hash = fnv1a(bytes);
    if (hash_out)
        *hash_out = hash;
    std::uint64_t records = 0;
    std::uint64_t events = 0;
    std::uint64_t dropped = 0;
    const auto count = [&](const auto &record) {
        ++records;
        events += record.event_count;
        dropped += record.events_dropped;
    };
    try {
        std::istringstream in(bytes, std::ios::binary);
        ProfileReader reader(in);
        if (keep) {
            ProfileRecord record;
            while (reader.read(record)) {
                count(record);
                keep->push_back(record);
            }
        } else {
            ColumnarRecord record;
            while (reader.read(record))
                count(record);
        }
    } catch (const std::exception &error) {
        return std::string("strict decode: ") + error.what();
    }
    if (records != run.records)
        return "decoded " + std::to_string(records) + " records of " +
            std::to_string(run.records);
    if (events + dropped != run.collector_events)
        return "events " + std::to_string(events + dropped) +
            " != collector " + std::to_string(run.collector_events);
    if (reference_hash != 0 && hash != reference_hash)
        return "profile bytes differ from the reference job";
    if (!sameResult(run.result, reference.result))
        return "simulated SessionResult differs from the reference";
    return "";
}

RuntimeWorkload
scaledWorkload(WorkloadId id, double scale)
{
    WorkloadOptions options;
    options.step_scale = scale;
    return makeWorkload(id, options);
}

void
runProfile(std::uint64_t seed, double seconds, bool trace,
           const std::string &tmp, Tracer &tracer, Report &report)
{
    RuntimeWorkload workload;
    ProfileRun reference;
    std::uint64_t reference_hash = 0;
    const std::string path = tmp + "/job.profile";
    const double setup_s = timedSetups(1, [&] {
        workload = scaledWorkload(WorkloadId::ResnetImagenet,
                                  kProfileScale);
        // Warm-up job: page cache, interner and allocator state.
        reference = profileOnce(workload, seed, path, tracer);
        const std::string why = checkProfile(path, reference, reference,
                                             0, &reference_hash);
        if (!why.empty())
            throw std::runtime_error("warm-up profile: " + why);
    });

    // Traced-job totals for the per-layer figures.
    ProfileRun totals;
    const auto job = [&](std::uint32_t index) {
        tracer.setJob(index);
        const Stopwatch watch;
        ProfileRun run;
        {
            Scoped span(tracer, "bench.job");
            run = profileOnce(workload, seed, path, tracer);
        }
        const Sample sample = watch.elapsed();
        std::vector<ProfileRecord> records;
        const std::string why =
            checkProfile(path, run, reference, reference_hash, nullptr,
                         tracer.enabled() ? &records : nullptr);
        report.check(why.empty(), "profile job: " + why);
        if (tracer.enabled()) {
            // Replay the run's records through the encoder and the
            // stream framing; the profiler does both inside sim.run.
            Layer &encode = tracer.layer("proto.encode");
            Layer &append = tracer.layer("trace.append");
            std::vector<std::string> payloads;
            payloads.reserve(records.size());
            for (const ProfileRecord &record : records) {
                const std::int64_t t0 = nowNs();
                payloads.push_back(encodeProfileRecord(record));
                tracer.charge(encode, nowNs() - t0, record.event_count);
            }
            NullBuf discard;
            std::ostream null_stream(&discard);
            RecordStreamWriter writer(null_stream);
            for (const std::string &payload : payloads) {
                const std::int64_t t0 = nowNs();
                writer.append(payload);
                tracer.charge(append, nowNs() - t0, payload.size());
            }
            writer.finish();
            totals.hub_events += run.hub_events;
            totals.dropped += run.dropped;
            totals.stalls += run.stalls;
            totals.bytes += run.bytes;
        }
        return sample;
    };

    // A traced run splits its time between an untraced and a traced
    // loop, so it takes as long as an untraced one.
    const double loop_s = trace ? seconds / 2 : seconds;
    tracer.enable(false);
    const JobTimes untraced = closedLoop(loop_s, 1, job);
    if (!trace) {
        addBatchEndToEnd(report, untraced, setup_s,
                         static_cast<double>(reference.hub_events),
                         static_cast<double>(reference.bytes));
        return;
    }
    tracer.enable(true);
    const JobTimes traced = closedLoop(loop_s, 1, job);
    const auto jobs = static_cast<double>(traced.jobs());
    LayerFigures figures;
    setRawFigures(figures, untraced);
    const auto events = static_cast<double>(totals.hub_events);
    // Simulator self time: sim.run minus the collector and file
    // writes charged inside it.
    figures.set("sim.self_ns_per_event",
                static_cast<double>(tracer.selfNs("sim.run")) / events);
    figures.set("sim.events", events / jobs);
    figures.set("profiler.record_ns_per_event",
                tracer.layer("profiler.record").nsPerItem());
    figures.set("profiler.events_dropped",
                static_cast<double>(totals.dropped) / jobs);
    figures.set("proto.encode_ns_per_event",
                tracer.layer("proto.encode").nsPerItem());
    figures.set("trace.append_ns_per_byte",
                tracer.layer("trace.append").nsPerItem());
    figures.set("trace.write_ms",
                static_cast<double>(tracer.layer("trace.write").ns) /
                    1e6 / jobs);
    figures.set("trace.bytes", static_cast<double>(totals.bytes) / jobs);
    figures.set("trace.spool_stalls",
                static_cast<double>(totals.stalls) / jobs);
    figures.set("bench.trace_overhead_pct",
                overheadPct(traced.medianRefMs(), untraced.medianRefMs()));
    figures.emit(report);
}

// ---- Analyzer path: analyze and characterize -------------------------

/** One analysis job's outputs. */
struct AnalyzeRun
{
    std::uint64_t events = 0;
    AnalysisResult analysis;
};

/**
 * The tpupoint-analyze job: load checkpoints, stream the profile
 * through the pipeline (collecting trace-viewer windows), finalize on
 * the pipeline's pool, write the three artifacts. Traced, the same
 * work runs through the pipeline's public pieces one call at a time
 * so that each can be timed.
 */
AnalyzeRun
analyzeJob(const runtime::AnalysisPipeline &pipeline,
           const std::string &profile, const std::string &out_base,
           Tracer &tracer)
{
    const auto checkpoints = loadCheckpoints(profile + ".checkpoints");
    AnalyzeRun run;
    std::vector<ProfileWindowInfo> windows;
    const auto hook = [&](const ColumnarRecord &record) {
        run.events += record.event_count;
        if (!record.attempt_boundary)
            windows.emplace_back(record);
    };
    if (!tracer.enabled()) {
        const runtime::PipelineReport report = pipeline.analyzeProfile(
            profile, &run.analysis, checkpoints,
            runtime::AnalysisPipeline::ColumnarHook(hook));
        if (!report.ok())
            throw std::runtime_error(report.message);
    } else {
        Layer &decode = tracer.layer("proto.decode");
        Layer &fold = tracer.layer("analyzer.fold");
        const std::int64_t start = nowNs();
        std::ifstream in(profile, std::ios::binary);
        ProfileReader reader(in);
        ColumnarRecord record;
        AnalysisSession session(pipeline.options().analyzer);
        for (;;) {
            const std::int64_t t0 = nowNs();
            const bool more = reader.read(record);
            tracer.charge(decode, nowNs() - t0,
                          more ? record.event_count : 0);
            if (!more)
                break;
            hook(record);
            const std::int64_t t1 = nowNs();
            session.ingest(record);
            tracer.charge(fold, nowNs() - t1, record.event_count);
        }
        runtime::chargeIngestMetrics("", run.events, reader.bytesRead(),
                                     secondsSince(start));
        Scoped span(tracer, "analyzer.finalize");
        run.analysis = session.finalize(checkpoints, pipeline.pool());
    }

    const auto write = [&](const char *layer, const std::string &path,
                           const auto &writer) {
        Scoped span(tracer, layer);
        std::ofstream out(path, std::ios::binary);
        writer(out);
        if (!out)
            throw std::runtime_error("cannot write " + path);
    };
    write("analyzer.write.trace", out_base + ".trace.json",
          [&](std::ostream &out) {
              writeChromeTrace(run.analysis, windows, out);
          });
    write("analyzer.write.csv", out_base + ".phases.csv",
          [&](std::ostream &out) { writePhaseCsv(run.analysis, out); });
    write("analyzer.write.summary", out_base + ".summary.json",
          [&](std::ostream &out) {
              writeAnalysisJson(run.analysis, out);
          });
    return run;
}

std::string
summaryJson(const AnalysisResult &analysis)
{
    std::ostringstream out;
    writeAnalysisJson(analysis, out);
    return out.str();
}

/** Analyze @p profile with a streaming session, then finalize it. */
std::string
streamingSummary(const std::string &profile, AnalyzerOptions options,
                 ThreadPool &pool)
{
    options.streaming = true;
    std::ifstream in(profile, std::ios::binary);
    ProfileReader reader(in);
    ColumnarRecord record;
    AnalysisSession session(options);
    while (reader.read(record)) {
        session.ingest(record);
        session.partialResult();
    }
    return summaryJson(session.finalize(
        loadCheckpoints(profile + ".checkpoints"), pool));
}

/** Finalize one single-detector session per requested algorithm. */
void
detectorProbe(const std::string &profile, const AnalyzerOptions &options,
              ThreadPool &pool, Tracer &tracer)
{
    std::vector<PhaseAlgorithm> algorithms{options.algorithm};
    for (const PhaseAlgorithm extra : options.extra_algorithms)
        algorithms.push_back(extra);
    std::vector<AnalysisSession> sessions;
    for (const PhaseAlgorithm algorithm : algorithms) {
        AnalyzerOptions single = options;
        single.algorithm = algorithm;
        single.extra_algorithms.clear();
        sessions.emplace_back(single);
    }
    std::ifstream in(profile, std::ios::binary);
    ProfileReader reader(in);
    ColumnarRecord record;
    while (reader.read(record))
        for (AnalysisSession &session : sessions)
            session.ingest(record);
    const auto checkpoints = loadCheckpoints(profile + ".checkpoints");
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        Scoped span(tracer, std::string("analyzer.detect.") +
                                algorithmKey(algorithms[i]));
        sessions[i].finalize(checkpoints, pool);
    }
}

/** Which batch analysis workload to run. */
struct AnalysisWorkload
{
    WorkloadId model;
    double scale;
    AnalyzerOptions options;
    bool streaming_reference; ///< analyze; else a 1-thread reference.
};

void
runAnalysis(const AnalysisWorkload &spec, std::uint64_t seed,
            double seconds, bool trace, const std::string &tmp,
            Tracer &tracer, Report &report)
{
    const std::string profile = tmp + "/input.profile";
    const std::string out_base = tmp + "/job";
    runtime::PipelineOptions pipeline_options;
    pipeline_options.analyzer = spec.options;
    pipeline_options.threads = poolThreads();
    // Built before the pinned set-ups: pool workers inherit the CPU
    // mask of the thread that starts them.
    const runtime::AnalysisPipeline pipeline(pipeline_options);
    // Detector sweeps fan out over the pool; ingest and OLS do not.
    const unsigned threads =
        spec.options.extra_algorithms.empty() ? 1 : pipeline_options.threads;
    const double setup_s = timedSetups(threads, [&] {
        const RuntimeWorkload workload =
            scaledWorkload(spec.model, spec.scale);
        profileOnce(workload, seed, profile, tracer);
        analyzeJob(pipeline, profile, out_base, tracer); // Warm-up.
    });
    const double bytes = static_cast<double>(fs::file_size(profile));

    // The reference answer, computed outside any timed region.
    std::string reference;
    if (spec.streaming_reference) {
        reference =
            streamingSummary(profile, spec.options, pipeline.pool());
    } else {
        runtime::PipelineOptions serial = pipeline_options;
        serial.threads = 1;
        runtime::AnalysisPipeline one_thread(serial);
        AnalysisResult result;
        const auto status = one_thread.analyzeProfile(
            profile, &result, loadCheckpoints(profile + ".checkpoints"));
        if (!status.ok())
            throw std::runtime_error(status.message);
        reference = summaryJson(result);
    }

    std::uint64_t events = 0;
    std::uint64_t wait_us = 0; // Pool figures over traced jobs only.
    std::uint64_t busy_us = 0;
    const bool several = !spec.options.extra_algorithms.empty();
    // finalize() builds the feature matrix only for detectors that
    // cluster on it; the probe times exactly that build.
    bool needs_features =
        detectorFor(spec.options.algorithm).needsFeatures();
    for (const PhaseAlgorithm extra : spec.options.extra_algorithms)
        needs_features |= detectorFor(extra).needsFeatures();
    const auto job = [&](std::uint32_t index) {
        const std::uint64_t wait0 =
            histogramSum("pool.analysis.queue_wait_us");
        const std::uint64_t busy0 = histogramSum("pool.analysis.task_us");
        tracer.setJob(index);
        const Stopwatch watch;
        AnalyzeRun run;
        {
            Scoped span(tracer, "bench.job");
            run = analyzeJob(pipeline, profile, out_base, tracer);
        }
        const Sample sample = watch.elapsed();
        events = run.events;
        report.check(readFile(out_base + ".summary.json") == reference,
                     "summary JSON differs from the reference");
        if (tracer.enabled()) {
            wait_us += histogramSum("pool.analysis.queue_wait_us") - wait0;
            busy_us += histogramSum("pool.analysis.task_us") - busy0;
            if (needs_features) {
                Scoped span(tracer, "analyzer.features");
                FeatureMatrix::build(run.analysis.table,
                                     spec.options.features);
            }
            if (several)
                detectorProbe(profile, spec.options, pipeline.pool(),
                              tracer);
        }
        return sample;
    };

    // A traced run splits its time between an untraced and a traced
    // loop, so it takes as long as an untraced one.
    const double loop_s = trace ? seconds / 2 : seconds;
    tracer.enable(false);
    const JobTimes untraced = closedLoop(loop_s, threads, job);
    if (!trace) {
        addBatchEndToEnd(report, untraced, setup_s,
                         static_cast<double>(events), bytes);
        return;
    }
    tracer.enable(true);
    const JobTimes traced = closedLoop(loop_s, threads, job);

    const auto jobs = static_cast<double>(traced.jobs());
    const auto per_job_ms = [&](const std::string &span) {
        return static_cast<double>(tracer.totalNs(span)) / 1e6 / jobs;
    };
    LayerFigures figures;
    setRawFigures(figures, untraced);
    figures.set("proto.decode_ns_per_event",
                tracer.layer("proto.decode").nsPerItem());
    figures.set("analyzer.fold_ns_per_event",
                tracer.layer("analyzer.fold").nsPerItem());
    figures.set("analyzer.features_ms", per_job_ms("analyzer.features"));
    figures.set("analyzer.finalize_ms", per_job_ms("analyzer.finalize"));
    if (several) {
        for (const char *key : {"kmeans", "dbscan", "ols"})
            figures.set(std::string("analyzer.detect_ms.") + key,
                        per_job_ms(std::string("analyzer.detect.") + key));
    } else {
        // One detector: the finalize is that detector's run.
        figures.set(std::string("analyzer.detect_ms.") +
                        algorithmKey(spec.options.algorithm),
                    per_job_ms("analyzer.finalize"));
    }
    figures.set("analyzer.write_ms.trace",
                per_job_ms("analyzer.write.trace"));
    figures.set("analyzer.write_ms.csv", per_job_ms("analyzer.write.csv"));
    figures.set("analyzer.write_ms.summary",
                per_job_ms("analyzer.write.summary"));
    figures.set("core.pool_wait_ms",
                static_cast<double>(wait_us) / 1000.0 / jobs);
    figures.set("core.pool_busy_ms",
                static_cast<double>(busy_us) / 1000.0 / jobs);
    figures.set("bench.trace_overhead_pct",
                overheadPct(traced.medianRefMs(), untraced.medianRefMs()));
    figures.emit(report);
}

// ---- Serve path ------------------------------------------------------

/** One Table I stream the serve generator replays into the spool. */
struct Stream
{
    std::string path;                    ///< Its profile on disk.
    std::string bytes;                   ///< Full container bytes.
    std::vector<std::size_t> chunk_ends; ///< Offset past each chunk.
};

std::vector<std::size_t>
chunkEnds(const std::string &bytes)
{
    std::vector<std::size_t> ends;
    std::size_t offset = 8; // "TPPF" + version.
    const auto u32 = [&](std::size_t at) {
        std::uint32_t value = 0;
        std::memcpy(&value, bytes.data() + at, sizeof value);
        return value;
    };
    while (offset + 16 <= bytes.size() &&
           u32(offset) == wire::kChunkMarker) {
        offset += 16 + u32(offset + 8);
        ends.push_back(offset);
    }
    return ends;
}

/** One spooled session: which stream, when, and in which slices. */
struct ServeSession
{
    std::size_t stream = 0;
    std::string name;
    std::string path;
    std::int64_t first_tick = 0;
    std::vector<std::size_t> cuts; ///< cuts[k]: bytes after slice k.
    std::uint64_t chunks_seen = 0;
};

/** Everything one serve run measured. */
struct ServeRun
{
    JobTimes ticks;
    std::vector<double> poll_ms;
    std::vector<double> status_ms;
    std::vector<double> metrics_ms;
    std::vector<double> lag_ms;
    std::uint64_t events = 0;
    std::uint64_t bytes = 0;
    double backlog_max = 0;
    double late_max_ms = 0;
    std::uint64_t journal_bytes = 0;
    double chunk_us_p99 = 0;
};

void
appendBytes(const std::string &path, const std::string &bytes,
            std::size_t from, std::size_t to)
{
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(bytes.data() + from, static_cast<std::streamsize>(to - from));
}

std::vector<serve::PhaseSummary>
phaseSummaries(const AnalysisResult &result)
{
    std::vector<serve::PhaseSummary> phases;
    for (const Phase &phase : result.phases) {
        serve::PhaseSummary summary;
        summary.id = phase.id;
        summary.first_step = phase.first_step;
        summary.last_step = phase.last_step;
        summary.steps = phase.size();
        summary.duration_ms =
            static_cast<double>(phase.total_duration) / kMsec;
        summary.noise = phase.is_noise;
        phases.push_back(summary);
    }
    return phases;
}

bool
samePhases(const std::vector<serve::PhaseSummary> &a,
           const std::vector<serve::PhaseSummary> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].id != b[i].id || a[i].first_step != b[i].first_step ||
            a[i].last_step != b[i].last_step ||
            a[i].steps != b[i].steps ||
            a[i].duration_ms != b[i].duration_ms ||
            a[i].noise != b[i].noise)
            return false;
    }
    return true;
}

/**
 * The open-loop serve schedule. Ticks fall every kTickMs; at each
 * tick the generator thread first appends every active session's
 * next slice (due at the tick's grid time), then runs one daemon
 * tick: poll(), publishStatus(), publishMetrics(). Session starts
 * are staggered across the run, so discovery, finalize and eviction
 * happen throughout.
 */
ServeRun
serveOnce(const std::vector<Stream> &streams, std::uint64_t seed,
          double seconds, const std::string &dir, Tracer &tracer,
          Report &report)
{
    fs::remove_all(dir);
    const std::string spool = dir + "/spool";
    fs::create_directories(spool);
    obs::MetricsRegistry::global().reset();

    const std::int64_t total_ticks =
        std::max<std::int64_t>(20, static_cast<std::int64_t>(
                                       seconds * 1000.0 / kTickMs));
    const std::int64_t session_ticks =
        std::min<std::int64_t>(kSessionMs / kTickMs, total_ticks / 2);
    const auto count = static_cast<std::size_t>(std::max(
        4.0, std::round(kSessionsPerSecond * seconds)));

    Rng rng(seed ^ 0x5345525645ULL); // "SERVE"
    std::vector<ServeSession> sessions(count);
    for (std::size_t i = 0; i < count; ++i) {
        ServeSession &s = sessions[i];
        s.stream = i % streams.size();
        char name[24];
        std::snprintf(name, sizeof name, "s%03zu", i);
        s.name = name;
        s.path = spool + "/" + s.name + ".tpp";
        s.first_tick = static_cast<std::int64_t>(i) *
            (total_ticks - session_ticks) /
            static_cast<std::int64_t>(count - 1);
        // Even slices with seeded jitter; the cuts almost never land
        // on a chunk boundary.
        const std::size_t size = streams[s.stream].bytes.size();
        const std::size_t step =
            size / static_cast<std::size_t>(session_ticks);
        std::size_t previous = 0;
        for (std::int64_t k = 1; k < session_ticks; ++k) {
            const std::size_t even = size *
                static_cast<std::size_t>(k) /
                static_cast<std::size_t>(session_ticks);
            const std::size_t jitter =
                static_cast<std::size_t>(rng.nextBounded(step / 2 + 1));
            previous = std::max(previous, std::min(size, even + jitter));
            s.cuts.push_back(previous);
        }
        s.cuts.push_back(size);
    }

    serve::ServeOptions options;
    options.spool_dir = spool;
    options.threads = poolThreads();
    options.idle_ttl_ms = 60 * 1000; // Streams always finish.
    options.evict_ttl_ms = 500;
    options.journal_path = dir + "/serve.journal";
    const std::string status_path = dir + "/status.json";
    const std::string metrics_path = dir + "/metrics.prom";
    serve::SessionManager manager(options);

    ServeRun run;
    std::uint64_t bytes_written = 0;
    double before = calibrationKernelMs(kTickCalibration.keys);
    const std::int64_t origin = nowNs();
    const auto due_ns = [&](std::int64_t tick) {
        return origin + tick * kTickMs * 1000000;
    };
    const std::int64_t drain_limit = total_ticks + 1000;
    for (std::int64_t tick = 0; tick < drain_limit; ++tick) {
        // Pinned per tick: the pool is already running, so only the
        // generator thread moves.
        RoundRobinPin pin(static_cast<std::uint32_t>(tick));
        const std::int64_t due = due_ns(tick);
        while (nowNs() < due)
            std::this_thread::sleep_for(std::chrono::microseconds(
                std::max<std::int64_t>(1, (due - nowNs()) / 1000)));
        for (ServeSession &s : sessions) {
            const std::int64_t slice = tick - s.first_tick;
            if (slice < 0 || slice >= session_ticks)
                continue;
            run.late_max_ms = std::max(
                run.late_max_ms,
                static_cast<double>(nowNs() - due) / 1e6);
            const std::size_t from = slice == 0
                ? 0
                : s.cuts[static_cast<std::size_t>(slice - 1)];
            const std::size_t to = s.cuts[static_cast<std::size_t>(slice)];
            appendBytes(s.path, streams[s.stream].bytes, from, to);
            bytes_written += to - from;
        }

        tracer.setJob(static_cast<std::uint32_t>(tick));
        const Stopwatch watch;
        const std::int64_t t0 = nowNs();
        {
            Scoped span(tracer, "serve.tick");
            {
                Scoped poll(tracer, "serve.poll");
                manager.poll();
            }
            const std::int64_t t1 = nowNs();
            {
                Scoped publish(tracer, "serve.publish_status");
                serve::publishStatus(manager, status_path);
            }
            const std::int64_t t2 = nowNs();
            {
                Scoped publish(tracer, "serve.publish_metrics");
                serve::publishMetrics(metrics_path);
            }
            const std::int64_t t3 = nowNs();
            run.poll_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
            run.status_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
            run.metrics_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
        }
        const Sample sample = watch.elapsed();
        const std::int64_t tick_end = nowNs();

        // Lag: from the due time of the append that completed a
        // chunk to the end of the tick after which it was consumed.
        std::uint64_t consumed = 0;
        std::map<std::string, const serve::SessionStatus *> by_name;
        const std::vector<serve::SessionStatus> statuses =
            manager.sessions();
        for (const serve::SessionStatus &status : statuses) {
            by_name[status.name] = &status;
            consumed += status.bytes;
        }
        for (ServeSession &s : sessions) {
            const auto it = by_name.find(s.name);
            if (it == by_name.end())
                continue;
            const Stream &stream = streams[s.stream];
            for (; s.chunks_seen < it->second->chunks &&
                   s.chunks_seen < stream.chunk_ends.size();
                 ++s.chunks_seen) {
                const std::size_t end = stream.chunk_ends[s.chunks_seen];
                const auto slice = static_cast<std::int64_t>(
                    std::lower_bound(s.cuts.begin(), s.cuts.end(), end) -
                    s.cuts.begin());
                run.lag_ms.push_back(
                    static_cast<double>(tick_end -
                                        due_ns(s.first_tick + slice)) /
                    1e6);
            }
        }
        run.backlog_max = std::max(
            run.backlog_max, static_cast<double>(bytes_written) -
                static_cast<double>(consumed));
        // In the idle rest of the tick interval.
        const double after = calibrationKernelMs(kTickCalibration.keys);
        run.ticks.add(sample, before, after, kTickCalibration);
        before = after;
        if (tick >= total_ticks && manager.stats().drained())
            break;
    }

    // Checks: every session finished with the batch answer for its
    // bytes; the last status document is valid JSON.
    std::vector<std::optional<AnalysisResult>> batch(streams.size());
    runtime::PipelineOptions batch_options;
    batch_options.threads = 1;
    runtime::AnalysisPipeline pipeline(batch_options);
    const std::vector<serve::SessionStatus> statuses = manager.sessions();
    for (const ServeSession &s : sessions) {
        auto &reference = batch[s.stream];
        if (!reference) {
            reference.emplace();
            const auto status = pipeline.analyzeProfile(
                streams[s.stream].path, &*reference);
            if (!status.ok())
                throw std::runtime_error(status.message);
        }
        const auto it = std::find_if(
            statuses.begin(), statuses.end(),
            [&](const serve::SessionStatus &st) {
                return st.name == s.name;
            });
        std::string why;
        if (it == statuses.end()) {
            why = "never discovered";
        } else if (it->state != serve::SessionState::Finalized &&
                   it->state != serve::SessionState::Evicted) {
            why = std::string("ended ") +
                serve::sessionStateName(it->state);
        } else if (!it->error.empty()) {
            why = it->error;
        } else if (it->top3_coverage != reference->top3_coverage ||
                   !samePhases(it->phases, phaseSummaries(*reference))) {
            why = "phases or coverage differ from batch analyzeProfile";
        } else {
            run.events += it->events;
            run.bytes += it->bytes;
        }
        report.check(why.empty(), "serve session " + s.name + ": " + why);
    }
    std::string json_error;
    report.check(validateJson(readFile(status_path), &json_error),
                 "status document: " + json_error);

    std::error_code ec;
    run.journal_bytes = fs::file_size(options.journal_path, ec);
    const auto snapshot = obs::MetricsRegistry::global().snapshot();
    const auto chunk = snapshot.histograms.find("serve.ingest_chunk_us");
    if (chunk != snapshot.histograms.end())
        run.chunk_us_p99 = obs::histogramQuantile(chunk->second, 0.99);
    return run;
}

/** Streams for serve: six Table I workloads at small scales. */
std::vector<Stream>
makeStreams(std::uint64_t seed, const std::string &dir, Tracer &tracer)
{
    static const std::vector<std::pair<WorkloadId, double>> kStreams = {
        {WorkloadId::BertSquad, 0.05},  {WorkloadId::DcganCifar10, 0.05},
        {WorkloadId::QanetSquad, 0.01}, {WorkloadId::RetinanetCoco, 0.01},
        {WorkloadId::ResnetImagenet, 0.005},
        {WorkloadId::BertMnli, 0.01},
    };
    fs::create_directories(dir);
    std::vector<Stream> streams;
    for (std::size_t i = 0; i < kStreams.size(); ++i) {
        Stream stream;
        stream.path = dir + "/stream" + std::to_string(i) + ".profile";
        profileOnce(scaledWorkload(kStreams[i].first, kStreams[i].second),
                    seed + i, stream.path, tracer);
        stream.bytes = readFile(stream.path);
        stream.chunk_ends = chunkEnds(stream.bytes);
        streams.push_back(std::move(stream));
    }
    return streams;
}

/**
 * Replay the serve streams through the layers serve runs per record:
 * decode and batch fold, then a streaming session's ingest plus
 * partialResult().
 */
void
replayStreams(const std::vector<Stream> &streams, Tracer &tracer)
{
    Layer &decode = tracer.layer("proto.decode");
    Layer &fold = tracer.layer("analyzer.fold");
    Layer &stream_ingest = tracer.layer("analyzer.stream_ingest");
    Layer &partial = tracer.layer("analyzer.partial_result");
    for (const Stream &stream : streams) {
        AnalyzerOptions live;
        live.streaming = true;
        AnalysisSession batch;
        AnalysisSession streaming(live);
        std::istringstream in(stream.bytes, std::ios::binary);
        ProfileReader reader(in);
        ColumnarRecord record;
        for (;;) {
            std::int64_t t0 = nowNs();
            const bool more = reader.read(record);
            tracer.charge(decode, nowNs() - t0,
                          more ? record.event_count : 0);
            if (!more)
                break;
            t0 = nowNs();
            batch.ingest(record);
            tracer.charge(fold, nowNs() - t0, record.event_count);
            t0 = nowNs();
            streaming.ingest(record);
            tracer.charge(stream_ingest, nowNs() - t0,
                          record.event_count);
            t0 = nowNs();
            streaming.partialResult();
            tracer.charge(partial, nowNs() - t0, 1);
        }
    }
}

void
runServe(std::uint64_t seed, double seconds, bool trace,
         const std::string &tmp, Tracer &tracer, Report &report)
{
    std::vector<Stream> streams;
    const double setup_s = timedSetups(
        1, [&] { streams = makeStreams(seed, tmp + "/streams", tracer); });

    const double loop_s = trace ? seconds / 2 : seconds;
    tracer.enable(false);
    const ServeRun untraced =
        serveOnce(streams, seed, loop_s, tmp + "/run", tracer, report);
    if (!trace) {
        double busy_s = 0;
        for (const double ms : untraced.ticks.ref_ms)
            busy_s += ms / 1000.0;
        addEndToEnd(report, untraced.ticks.ref_ms, setup_s,
                    static_cast<double>(untraced.events) / busy_s,
                    static_cast<double>(untraced.bytes) / busy_s / 1e6);
        return;
    }
    tracer.enable(true);
    const ServeRun traced =
        serveOnce(streams, seed, loop_s, tmp + "/run", tracer, report);
    replayStreams(streams, tracer);

    LayerFigures figures;
    figures.set("proto.decode_ns_per_event",
                tracer.layer("proto.decode").nsPerItem());
    figures.set("analyzer.fold_ns_per_event",
                tracer.layer("analyzer.fold").nsPerItem());
    figures.set("analyzer.stream_ingest_ns_per_event",
                tracer.layer("analyzer.stream_ingest").nsPerItem());
    figures.set("analyzer.partial_result_us",
                tracer.layer("analyzer.partial_result").nsPerItem() /
                    1000.0);
    // Wall-time figures come from the untraced half.
    setRawFigures(figures, untraced.ticks);
    figures.set("serve.tick_ms_p99",
                percentile(untraced.ticks.wall_ms, 99));
    figures.set("serve.lag_ms_p50", median(untraced.lag_ms));
    figures.set("serve.lag_ms_p90", percentile(untraced.lag_ms, 90));
    figures.set("serve.lag_ms_p99", percentile(untraced.lag_ms, 99));
    figures.set("serve.poll_ms_p50", median(traced.poll_ms));
    figures.set("serve.poll_ms_p99", percentile(traced.poll_ms, 99));
    figures.set("serve.publish_status_ms_p50", median(traced.status_ms));
    figures.set("serve.publish_metrics_ms_p50",
                median(traced.metrics_ms));
    figures.set("serve.ingest_chunk_us_p99", traced.chunk_us_p99);
    figures.set("serve.journal_bytes",
                static_cast<double>(traced.journal_bytes));
    figures.set("serve.backlog_bytes_max", traced.backlog_max);
    figures.set("serve.generator_late_ms_max", traced.late_max_ms);
    figures.set("bench.trace_overhead_pct",
                overheadPct(traced.ticks.medianRefMs(),
                            untraced.ticks.medianRefMs()));
    figures.emit(report);
}

// ---- Entry point -----------------------------------------------------

const char *
sanitizerName()
{
#if defined(__SANITIZE_ADDRESS__)
    return "address";
#elif defined(__SANITIZE_THREAD__)
    return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    return "clang";
#else
    return "none";
#endif
#else
    return "none";
#endif
}

bool
optimizedBuild()
{
#if defined(__OPTIMIZE__)
    return true;
#else
    return false;
#endif
}

/** The run's temporary directory; removed on every exit path. */
class TempRoot
{
  public:
    explicit TempRoot(std::string dir) : path(std::move(dir))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempRoot()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    const std::string &dir() const { return path; }

  private:
    std::string path;
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: tpupoint_perfbench --workload "
                 "profile|analyze|characterize|serve --seed N "
                 "--seconds S --trace 0|1 --root DIR\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string root = ".";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::atof(value);
        else if (flag == "--trace")
            trace = std::strcmp(value, "0") != 0;
        else if (flag == "--root")
            root = value;
        else
            return usage();
    }
    if (argc % 2 == 0 || seconds <= 0 ||
        (workload != "profile" && workload != "analyze" &&
         workload != "characterize" && workload != "serve"))
        return usage();

    std::printf("# tpupoint perfbench: workload=%s seed=%llu "
                "seconds=%g trace=%d\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                seconds, trace ? 1 : 0);
    std::printf("# build=%s optimized=%s sanitizer=%s nproc=%u "
                "pool_threads=%u\n",
                PERFBENCH_BUILD_TYPE, optimizedBuild() ? "yes" : "no",
                sanitizerName(), std::thread::hardware_concurrency(),
                poolThreads());
    if (!optimizedBuild() || std::strcmp(sanitizerName(), "none") != 0) {
        std::fprintf(stderr, "refusing to time an unoptimised or "
                             "sanitizer build\n");
        return 3;
    }
    // Keep serve's per-session info lines out of the report.
    LogConfig::setThreshold(LogLevel::Warn);

    Report report;
    Tracer tracer;
    try {
        TempRoot tmp(root + "/.bench_tmp/" + workload + "-" +
                     std::to_string(getpid()));
        if (workload == "profile") {
            runProfile(seed, seconds, trace, tmp.dir(), tracer, report);
        } else if (workload == "analyze") {
            runAnalysis({WorkloadId::ResnetImagenet, kAnalyzeScale,
                         AnalyzerOptions{}, true},
                        seed, seconds, trace, tmp.dir(), tracer, report);
        } else if (workload == "characterize") {
            AnalyzerOptions options;
            options.algorithm = PhaseAlgorithm::KMeans;
            options.extra_algorithms = {PhaseAlgorithm::Dbscan,
                                        PhaseAlgorithm::OnlineLinearScan};
            runAnalysis({WorkloadId::QanetSquad, kCharacterizeScale,
                         options, false},
                        seed, seconds, trace, tmp.dir(), tracer, report);
        } else {
            runServe(seed, seconds, trace, tmp.dir(), tracer, report);
        }
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }

    if (trace) {
        const std::string out_dir = root + "/.bench_out";
        fs::create_directories(out_dir);
        const std::string path = out_dir + "/trace-" + workload + "-seed" +
            std::to_string(seed) + ".json";
        std::ofstream out(path);
        tracer.write(out);
        std::printf("# spans: %zu written to %s\n",
                    tracer.recorded().size(), path.c_str());
        tracer.printBreakdown(workload == "serve" ? "serve.tick"
                                                  : "bench.job");
    }
    report.print();
    return 0;
}
