#include "runtime/sweep.hh"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "core/logging.hh"
#include "core/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/pool_metrics.hh"
#include "obs/span.hh"
#include "proto/serialize.hh"
#include "runtime/pool_map.hh"

namespace tpupoint {

namespace {

/** Checkpoint-restart path: the job's config schedules device
 * interruptions, so a ResilientRunner orchestrates the attempts and
 * a fresh attempt-stamped profiler covers each one, with
 * attempt-boundary records interleaved for the analyzer. */
SweepOutcome
runResilientJob(const SweepJob &job, std::size_t index)
{
    SweepOutcome outcome;
    outcome.job_index = index;

    Simulator sim;
    ResilientRunner runner(sim, job.config, job.workload,
                           job.resilience);
    std::unique_ptr<TpuPointProfiler> profiler;

    auto harvest = [&outcome, &profiler]() {
        if (!profiler)
            return;
        const auto &payloads = profiler->payloads();
        outcome.payloads.insert(outcome.payloads.end(),
                                payloads.begin(), payloads.end());
        outcome.profiler_bytes += profiler->bytesRecorded();
        outcome.profile_requests += profiler->requestsIssued();
        profiler.reset();
    };

    if (job.profile) {
        runner.setAttemptHook(
            [&sim, &job, &profiler](TrainingSession &session,
                                    std::uint32_t attempt) {
            ProfilerOptions popts = job.profiler;
            popts.attempt = attempt;
            popts.retain_records = true;
            profiler = std::make_unique<TpuPointProfiler>(
                sim, session, popts);
            profiler->start(/*analyzer=*/true);
        });
        runner.setBoundaryHook(
            [&outcome, &harvest](const AttemptOutcome &failed,
                                 StepId resume) {
            // The preempted attempt's records, then its boundary
            // marker, then (next iteration) the restarted
            // attempt's records.
            harvest();
            outcome.payloads.push_back(encodeAttemptBoundary(
                failed.index + 1, failed.reached_step, resume,
                failed.ended_at));
        });
    }

    const ResilientResult res = runner.run();
    harvest();

    outcome.status = res.completed ? JobStatus::Ok
                                   : JobStatus::Preempted;
    outcome.attempts = res.attempts;
    outcome.replayed_steps = res.replayed_steps;
    outcome.result = res.final_result;
    // The per-attempt result only counts its own steps; callers of
    // a sweep want the run's total useful progress.
    outcome.result.steps_completed = res.useful_steps;
    outcome.checkpoints = res.checkpoints;
    return outcome;
}

/** One complete, self-contained session: build, run, harvest. */
SweepOutcome
runJob(const SweepJob &job, std::size_t index)
{
    if (job.config.preemption.enabled())
        return runResilientJob(job, index);

    Simulator sim;
    TrainingSession session(sim, job.config, job.workload);
    std::unique_ptr<TpuPointProfiler> profiler;
    if (job.profile) {
        profiler = std::make_unique<TpuPointProfiler>(
            sim, session, job.profiler);
        profiler->start(/*analyzer=*/true);
    }
    session.start(nullptr);
    sim.run();
    if (profiler)
        profiler->stop();

    SweepOutcome outcome;
    outcome.job_index = index;
    outcome.result = session.result();
    outcome.checkpoints = session.checkpoints().checkpoints();
    if (profiler) {
        outcome.payloads = profiler->payloads();
        outcome.profiler_bytes = profiler->bytesRecorded();
        outcome.profile_requests = profiler->requestsIssued();
    }
    return outcome;
}

SweepOutcome
failedOutcome(std::size_t index, std::string error)
{
    SweepOutcome failed;
    failed.job_index = index;
    failed.status = JobStatus::Failed;
    failed.error = std::move(error);
    return failed;
}

/**
 * Owns the sweep's running totals and serializes ProgressSink
 * invocations, so worker threads emit progress without coordinating
 * and sinks never observe torn counts.
 */
class ProgressBroker
{
  public:
    ProgressBroker(const obs::ProgressSink &sink_fn,
                   std::size_t total_jobs)
        : sink(sink_fn), total(total_jobs)
    {
    }

    void
    jobStarted(std::size_t index)
    {
        if (!sink)
            return;
        std::lock_guard<std::mutex> lock(guard);
        ++started;
        emit(obs::ProgressEvent::Kind::Start, index, "", 0);
    }

    void
    jobFinished(std::size_t index, JobStatus status,
                double wall_seconds)
    {
        if (!sink)
            return;
        std::lock_guard<std::mutex> lock(guard);
        switch (status) {
          case JobStatus::Ok: ++succeeded; break;
          case JobStatus::Preempted: ++preempted; break;
          case JobStatus::Failed: ++failed; break;
        }
        emit(obs::ProgressEvent::Kind::Finish, index,
             jobStatusName(status), wall_seconds);
    }

  private:
    void
    emit(obs::ProgressEvent::Kind kind, std::size_t index,
         const char *status, double wall_seconds)
    {
        obs::ProgressEvent event;
        event.kind = kind;
        event.item = index;
        event.total = total;
        event.status = status;
        event.wall_seconds = wall_seconds;
        event.started = started;
        event.succeeded = succeeded;
        event.preempted = preempted;
        event.failed = failed;
        sink(event);
    }

    const obs::ProgressSink &sink;
    std::mutex guard;
    std::size_t total;
    std::size_t started = 0;
    std::size_t succeeded = 0;
    std::size_t preempted = 0;
    std::size_t failed = 0;
};

} // namespace

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok: return "ok";
      case JobStatus::Preempted: return "preempted";
      case JobStatus::Failed: return "failed";
    }
    panic("jobStatusName: unknown status");
}

SweepRunner::SweepRunner(const SweepOptions &options)
    : opts(options),
      thread_count(obs::resolveThreadCount(options.threads))
{
}

std::vector<SweepOutcome>
SweepRunner::run(const std::vector<SweepJob> &jobs) const
{
    std::vector<SweepOutcome> outcomes(jobs.size());
    if (jobs.empty())
        return outcomes;

    ProgressBroker progress(opts.progress, jobs.size());
    auto &registry = obs::MetricsRegistry::global();

    auto run_index = [&](std::size_t index) {
        progress.jobStarted(index);
        const auto job_begin = std::chrono::steady_clock::now();
        obs::TraceSpan job_span("sweep.job");
        job_span.arg("job", static_cast<std::uint64_t>(index));
        try {
            outcomes[index] = runJob(jobs[index], index);
        } catch (const std::exception &e) {
            // Failure isolation: the job's outcome carries its own
            // status and message; the rest of the sweep is
            // unaffected.
            outcomes[index] = failedOutcome(index, e.what());
        } catch (...) {
            outcomes[index] = failedOutcome(index, "unknown error");
        }
        const JobStatus status = outcomes[index].status;
        switch (status) {
          case JobStatus::Ok:
            registry.counter("sweep.jobs_completed").add(1);
            break;
          case JobStatus::Preempted:
            registry.counter("sweep.jobs_preempted").add(1);
            break;
          case JobStatus::Failed:
            registry.counter("sweep.jobs_failed").add(1);
            break;
        }
        const double wall_seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - job_begin)
                .count();
        job_span.arg("status", jobStatusName(status));
        job_span.finish();
        progress.jobFinished(index, status, wall_seconds);
    };

    // Jobs never throw out of run_index (failure isolation above),
    // so the pool's rethrow path stays cold. Each job already opens
    // its own "sweep.job" span, so the fan-out itself is unlabeled
    // to keep traces single-spanned per job.
    if (opts.pool != nullptr) {
        runtime::poolMap(opts.pool, jobs.size(), run_index);
    } else {
        // A runner-created pool sized to the work: a 1-thread (or
        // 1-job) sweep runs inline on this thread — same code
        // path, no pool threads, convenient under a debugger.
        ThreadPoolOptions pool_opts;
        pool_opts.workers = static_cast<unsigned>(
            std::min<std::size_t>(thread_count, jobs.size()));
        pool_opts.hooks = obs::instrumentedPoolHooks("sweep");
        ThreadPool job_pool(pool_opts);
        runtime::poolMap(&job_pool, jobs.size(), run_index);
    }
    return outcomes;
}

} // namespace tpupoint
