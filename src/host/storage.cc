#include "host/storage.hh"

#include <algorithm>

#include "core/logging.hh"
#include "host/host_ops.hh"
#include "obs/metrics.hh"

namespace tpupoint {

StorageBucket::StorageBucket(Simulator &simulator,
                             const StorageSpec &spec)
    : sim(simulator), config(spec),
      streams(simulator,
              static_cast<std::size_t>(std::max(spec.max_streams, 1)))
{
}

void
StorageBucket::injectFaults(FaultPlan *plan,
                            const RetryPolicy &policy)
{
    if (policy.max_attempts < 1)
        fatal("StorageBucket: retry policy needs >= 1 attempt");
    checkBackoff("StorageBucket", policy.backoff_multiplier,
                 policy.jitter);
    faults = plan;
    retry_policy = policy;
}

SimTime
StorageBucket::transferTime(std::uint64_t bytes) const
{
    const double seconds =
        static_cast<double>(bytes) / config.stream_bandwidth;
    return config.request_latency +
        static_cast<SimTime>(seconds * 1e9 + 0.5);
}

std::uint64_t
StorageBucket::shareOf(std::uint64_t bytes, int streams, int index)
{
    const auto count = static_cast<std::uint64_t>(streams);
    const std::uint64_t base = bytes / count;
    // The last stream carries the remainder so the shares sum to
    // exactly `bytes` (no rounded-up over-charge).
    return index + 1 < streams ? base : bytes - base * (count - 1);
}

std::vector<std::uint64_t>
StorageBucket::splitShares(std::uint64_t bytes, int streams)
{
    if (streams < 1)
        fatal("StorageBucket::splitShares: need >= 1 stream");
    std::vector<std::uint64_t> shares;
    for (int i = 0; i < streams; ++i)
        shares.push_back(shareOf(bytes, streams, i));
    return shares;
}

void
StorageBucket::emitRetry(SimTime start, SimTime duration,
                         StepId step)
{
    if (!sink)
        return;
    TraceEvent event;
    event.type = hostop::kStorageRetry;
    event.start = start;
    event.duration = duration;
    event.step = step;
    event.device = EventDevice::Host;
    sink->record(event);
}

std::uint32_t
StorageBucket::open(Done done, int stream_count)
{
    std::uint32_t index = free_operation;
    if (index == UINT32_MAX) {
        index = static_cast<std::uint32_t>(operations.size());
        operations.emplace_back();
    } else {
        free_operation = operations[index].next_free;
    }
    operations[index].done = std::move(done);
    operations[index].streams_left = stream_count;
    return index;
}

void
StorageBucket::transfer(Attempt attempt)
{
    FaultDecision fault;
    if (faults)
        fault = faults->sample(sim.now());

    const SimTime clean = transferTime(attempt.bytes);
    attempt.held = clean;
    attempt.fault = fault.kind;
    switch (fault.kind) {
      case FaultKind::None:
        break;
      case FaultKind::LatencySpike:
        attempt.held = clean + fault.extra_latency;
        break;
      case FaultKind::TransientError:
        // The service answered the request with a retryable error:
        // only the round trip was paid.
        attempt.held = config.request_latency;
        break;
      case FaultKind::StreamReset:
        // The connection died partway through the payload.
        attempt.held = config.request_latency + static_cast<SimTime>(
            fault.completed_fraction *
            static_cast<double>(clean - config.request_latency));
        break;
    }

    // Acquiring and releasing the stream by hand keeps both
    // closures inline: neither captures a continuation.
    streams.acquire([this, attempt]() {
        sim.schedule(attempt.held, [this, attempt]() {
            streams.release();
            finishAttempt(attempt);
        });
    });
}

void
StorageBucket::finishAttempt(Attempt attempt)
{
    if (!FaultDecision{attempt.fault}.failed()) {
        finishStreams(attempt.operation, 1);
        return;
    }
    const SimTime attempt_start = sim.now() - attempt.held;
    if (attempt.attempt >= retry_policy.max_attempts) {
        fatal("StorageBucket: transfer of ", attempt.bytes,
              " bytes failed (", faultKindName(attempt.fault),
              ") after ", attempt.attempt,
              " attempts; retry budget exhausted");
    }
    const SimTime backoff = jitteredBackoff(
        retry_policy.initial_backoff, retry_policy.backoff_multiplier,
        retry_policy.max_backoff, retry_policy.jitter,
        attempt.attempt - 1, faults);
    if (retry_policy.op_timeout > 0 &&
        sim.now() + backoff - attempt.op_start >
            retry_policy.op_timeout) {
        fatal("StorageBucket: transfer of ", attempt.bytes,
              " bytes exceeded its ",
              toSeconds(retry_policy.op_timeout),
              " s timeout after ", attempt.attempt, " attempts");
    }
    ++retries;
    retry_time += attempt.held + backoff;
    obs::MetricsRegistry::global()
        .counter("storage.retries")
        .add(1);
    // The retry event spans the failed attempt plus the
    // backoff — the time the fault actually cost this stream.
    emitRetry(attempt_start, attempt.held + backoff, attempt.step);
    ++attempt.attempt;
    sim.schedule(backoff, [this, attempt]() { transfer(attempt); });
}

void
StorageBucket::finishStreams(std::uint32_t operation, int count)
{
    Operation &entry = operations[operation];
    entry.streams_left -= count;
    if (entry.streams_left > 0)
        return;
    Done done = std::move(entry.done);
    entry.next_free = free_operation;
    free_operation = operation;
    if (done)
        done();
}

void
StorageBucket::releaseAndFinish(std::uint32_t operation, int count)
{
    for (int i = 0; i < count; ++i)
        streams.release();
    finishStreams(operation, count);
}

void
StorageBucket::start(std::uint64_t bytes, int stream_count, Done done,
                     StepId step)
{
    const std::uint32_t operation = open(std::move(done), stream_count);
    if (faults || !streams.tryAcquire(
                      static_cast<std::size_t>(stream_count))) {
        // Streams contend for the bounded pool, sample the plan and
        // retry independently.
        for (int i = 0; i < stream_count; ++i) {
            transfer(Attempt{shareOf(bytes, stream_count, i), sim.now(),
                             step, 0, operation});
        }
        return;
    }
    // Fault-free and uncontended: one grant hop in the slot of the
    // per-stream grants, then one finish event per distinct share
    // time (DESIGN §16). Only the last share differs.
    const SimTime equal = transferTime(shareOf(bytes, stream_count, 0));
    const SimTime last =
        transferTime(shareOf(bytes, stream_count, stream_count - 1));
    sim.schedule(0, [this, operation, stream_count, equal, last]() {
        if (equal == last) {
            sim.schedule(equal, [this, operation, stream_count]() {
                releaseAndFinish(operation, stream_count);
            });
            return;
        }
        sim.schedule(equal, [this, operation, stream_count]() {
            releaseAndFinish(operation, stream_count - 1);
        });
        sim.schedule(last, [this, operation]() {
            releaseAndFinish(operation, 1);
        });
    });
}

void
StorageBucket::read(std::uint64_t bytes, int parallel_streams,
                    Done done, StepId step)
{
    if (parallel_streams < 1)
        fatal("StorageBucket::read: need at least one stream");
    bytes_read += bytes;
    // The pool has at least one stream, so a read always finishes.
    const int pool = static_cast<int>(streams.totalUnits());
    start(bytes, std::min(parallel_streams, pool), std::move(done), step);
}

void
StorageBucket::write(std::uint64_t bytes, Done done, StepId step)
{
    bytes_written += bytes;
    start(bytes, 1, std::move(done), step);
}

} // namespace tpupoint
