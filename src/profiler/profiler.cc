#include "profiler/profiler.hh"

#include "core/logging.hh"
#include "obs/metrics.hh"

namespace tpupoint {

namespace {

/**
 * Per-op instrumentation cost while profiling is active (the source
 * of the <10 % overhead Section VII-C reports).
 */
constexpr SimTime kTraceOverheadPerOp = 120;

} // namespace

TpuPointProfiler::TpuPointProfiler(Simulator &simulator,
                                   TrainingSession &session_ref,
                                   const ProfilerOptions &options)
    : sim(simulator), session(session_ref), opts(options),
      collector(simulator.now())
{
    if (opts.profile_interval <= 0)
        fatal("TpuPointProfiler: profile interval must be positive");
}

TpuPointProfiler::~TpuPointProfiler()
{
    if (active) {
        // The window is abandoned unharvested; its accepted events
        // still count.
        collector.flushMetrics();
        // Detach cleanly; the session may outlive the profiler.
        session.traceHub().attach(nullptr);
        session.tpu().setTraceOverhead(0);
        if (pending_request)
            sim.cancel(pending_request);
    }
}

void
TpuPointProfiler::streamTo(std::ostream &out)
{
    if (active)
        fatal("TpuPointProfiler::streamTo: profiler is running");
    if (spool || external_spool)
        fatal("TpuPointProfiler::streamTo: stream already open");
    sink = &out;
}

void
TpuPointProfiler::streamTo(RecordSpool &shared)
{
    if (active)
        fatal("TpuPointProfiler::streamTo: profiler is running");
    if (spool || external_spool || sink)
        fatal("TpuPointProfiler::streamTo: stream already open");
    external_spool = &shared;
}

void
TpuPointProfiler::start(bool analyzer)
{
    if (active)
        panic("TpuPointProfiler::start called while running");
    active = true;
    analyzer_enabled = analyzer;
    collector = StatsCollector(sim.now());
    run_span = std::make_unique<obs::TraceSpan>("profiler.run");
    run_span->arg("attempt",
                  static_cast<std::uint64_t>(opts.attempt));
    if (analyzer_enabled && !spool && !external_spool) {
        // The recording thread's bounded spool; without a
        // streamTo() sink it only accounts for the traffic.
        spool = std::make_unique<RecordSpool>(sink, opts.spool);
    }
    session.traceHub().attach(&collector);
    session.tpu().setTraceOverhead(kTraceOverheadPerOp);
    scheduleNextRequest();
}

void
TpuPointProfiler::scheduleNextRequest()
{
    pending_request =
        sim.schedule(opts.profile_interval, [this]() {
            pending_request = 0;
            handleResponse();
            if (!active)
                return;
            if (session.finished()) {
                // The TensorFlow application completed; issue the
                // final request and terminate the threads.
                stop();
                return;
            }
            scheduleNextRequest();
        });
}

void
TpuPointProfiler::handleResponse()
{
    ++requests;
    if (collector.harvest(sim.now(), payload, opts.attempt) == 0)
        return; // nothing happened in this window
    ++records_recorded;
    RecordSpool *out_spool =
        external_spool ? external_spool : spool.get();
    if (analyzer_enabled && out_spool) {
        // The recording thread frames the statistical record
        // through the spool and streams it toward cloud storage
        // while profiling continues.
        const std::uint64_t before = out_spool->bytesSpooled();
        out_spool->push(payload);
        const std::uint64_t bytes =
            out_spool->bytesSpooled() - before;
        recorded_bytes += bytes;
        session.storageBucket().write(bytes, nullptr);
    }
    // A copy, not the buffer: harvest reuses its capacity.
    if (opts.retain_records)
        retained.push_back(payload);
}

const std::vector<std::string> &
TpuPointProfiler::payloads() const
{
    if (!opts.retain_records && records_recorded > 0)
        fatal("TpuPointProfiler::payloads: retention is disabled "
              "(streaming-only profile)");
    return retained;
}

void
TpuPointProfiler::writeRecords(std::ostream &out) const
{
    if (!opts.retain_records && records_recorded > 0)
        fatal("TpuPointProfiler::writeRecords: retention is "
              "disabled; use streamTo() before start()");
    RecordStreamWriter writer(out);
    for (const std::string &retained_payload : retained)
        writer.append(retained_payload);
    writer.finish();
}

void
TpuPointProfiler::stop()
{
    if (!active)
        return;
    handleResponse(); // the last profile request
    session.traceHub().attach(nullptr);
    session.tpu().setTraceOverhead(0);
    if (pending_request) {
        sim.cancel(pending_request);
        pending_request = 0;
    }
    // An owned spool seals its container here; a shared external
    // spool stays open — its owner seals after the final attempt.
    if (spool)
        spool->finish();
    active = false;

    // Fold this run's transport totals into the process metrics.
    // Only the owned spool is charged here: a shared spool's totals
    // belong to its owner, or attempts would double count.
    auto &registry = obs::MetricsRegistry::global();
    registry.counter("profiler.requests").add(requests);
    registry.counter("profiler.windows_recorded")
        .add(records_recorded);
    registry.counter("spool.bytes").add(recorded_bytes);
    if (spool) {
        registry.counter("spool.chunks").add(spool->chunksSpooled());
        registry.counter("spool.stalls").add(spool->stalls());
    }
    if (run_span) {
        run_span->arg("requests", requests);
        run_span->arg("windows", records_recorded);
        run_span->arg("bytes", recorded_bytes);
        run_span->finish();
        run_span.reset();
    }
}

} // namespace tpupoint
