/**
 * @file
 * Cloud storage-bucket model. Cloud TPU training streams datasets
 * and writes checkpoints through Google Cloud Storage; this models
 * per-stream bandwidth, request latency and a bounded number of
 * concurrent streams.
 *
 * A FaultPlan can be injected to model the transient behaviour of a
 * real bucket (request errors, tail-latency spikes, mid-transfer
 * stream resets). Failed attempts are retried transparently under a
 * RetryPolicy — capped exponential backoff with deterministic
 * jitter — and all retry time is charged to the simulation, so
 * faults surface exactly where TPUPoint looks: longer Recv/SaveV2
 * durations, TPU infeed stalls, and StorageRetry trace events the
 * profiler folds into the phase tables.
 */

#ifndef TPUPOINT_HOST_STORAGE_HH
#define TPUPOINT_HOST_STORAGE_HH

#include <cstdint>
#include <vector>

#include "core/types.hh"
#include "proto/event.hh"
#include "sim/fault.hh"
#include "sim/resource.hh"
#include "sim/simulator.hh"

namespace tpupoint {

/** Storage service parameters. */
struct StorageSpec
{
    double stream_bandwidth = 160e6; ///< Bytes/s per stream.
    SimTime request_latency = 6 * kMsec;
    int max_streams = 64;            ///< Concurrent connections.
};

/**
 * How the bucket retries a faulted transfer attempt. Backoff grows
 * geometrically from @p initial_backoff, is capped at
 * @p max_backoff, and is jittered by up to +/- @p jitter of itself
 * (drawn deterministically from the fault plan's stream).
 */
struct RetryPolicy
{
    /** Attempts per transfer, the first included. Exhausting the
     * budget is a hard failure (fatal): the training job would have
     * crashed on the storage exception. */
    int max_attempts = 6;

    SimTime initial_backoff = 10 * kMsec;
    double backoff_multiplier = 2.0;
    SimTime max_backoff = 2 * kSec;

    /** Jitter fraction in [0, 1]: backoff *= 1 +/- jitter. */
    double jitter = 0.25;

    /**
     * Cap on one transfer's total time across attempts and
     * backoffs, checked whenever an attempt fails; 0 disables. A
     * transfer that would retry past the cap fails hard instead of
     * wedging the run.
     */
    SimTime op_timeout = 60 * kSec;
};

/**
 * A persistent object-store bucket. Reads and writes acquire one of
 * a bounded pool of streams per share; each share costs latency plus
 * size/bandwidth. With a fault plan injected, each per-stream
 * attempt samples the plan and may error, spike or reset; failures
 * release the stream, back off per the retry policy, and reacquire.
 *
 * With no plan injected and every stream of a transfer free, the
 * transfer takes its streams at once and retires in one finish
 * event per distinct share time (at most two: the equal shares and
 * the remainder share) instead of a grant and a finish per stream.
 * Each callback keeps its timestamp and its order against every
 * other event (DESIGN §16); a contended pool takes the per-stream
 * path.
 */
class StorageBucket
{
  public:
    /** Continuation of a read or write. */
    using Done = InlineFunction<void()>;

    StorageBucket(Simulator &simulator, const StorageSpec &spec);

    /**
     * Inject transient faults. @p plan must outlive the bucket; a
     * null plan (or a quiet one) restores steady-state behaviour.
     */
    void injectFaults(FaultPlan *plan,
                      const RetryPolicy &policy = {});

    /** Emit StorageRetry events here (nullptr disables). */
    void setTraceSink(TraceSink *trace_sink) { sink = trace_sink; }

    /**
     * Read @p bytes using up to @p parallel_streams concurrent
     * streams; @p done fires when the last stream completes. The
     * shares are as equal as possible with the last stream carrying
     * the remainder, so the shares always sum to exactly @p bytes.
     * @p step attributes retry events to a training step.
     */
    void read(std::uint64_t bytes, int parallel_streams, Done done,
              StepId step = kNoStep);

    /**
     * Write @p bytes (checkpoints) on one stream. A zero-byte
     * write still pays the request latency: an empty PUT is still
     * a storage round trip, and callers rely on @p done firing
     * strictly later than the call.
     */
    void write(std::uint64_t bytes, Done done, StepId step = kNoStep);

    /**
     * The per-stream byte shares read() uses: as equal as possible,
     * remainder on the last stream. Exposed so tests can pin
     * sum(shares) == bytes.
     */
    static std::vector<std::uint64_t>
    splitShares(std::uint64_t bytes, int streams);

    /** Total bytes served. */
    std::uint64_t bytesRead() const { return bytes_read; }

    /** Total bytes written. */
    std::uint64_t bytesWritten() const { return bytes_written; }

    /** Failed attempts that were retried. */
    std::uint64_t retriesPerformed() const { return retries; }

    /** Time lost to failed attempts plus backoff. */
    SimTime retryTime() const { return retry_time; }

    /** Streams not held by a transfer. */
    std::size_t freeStreams() const { return streams.freeUnits(); }

    /** The injected plan, or nullptr. */
    FaultPlan *faultPlan() const { return faults; }

  private:
    /** A read or write in flight: its continuation fires when the
     * last of its streams completes. Pooled, so closures carry an
     * index instead of the continuation. */
    struct Operation
    {
        Done done;
        int streams_left = 0;
        std::uint32_t next_free = 0;
    };

    /** One per-stream transfer attempt. */
    struct Attempt
    {
        std::uint64_t bytes;
        SimTime op_start; ///< When the transfer (attempt 1) began.
        StepId step;
        SimTime held = 0; ///< Stream time this attempt costs.
        std::uint32_t operation;
        int attempt = 1;  ///< 1-based attempt number.
        FaultKind fault = FaultKind::None;
    };

    SimTime transferTime(std::uint64_t bytes) const;

    /** Share @p index of splitShares(@p bytes, @p streams). */
    static std::uint64_t shareOf(std::uint64_t bytes, int streams,
                                 int index);

    /** Pool an operation of @p stream_count transfers; returns its
     * index. */
    std::uint32_t open(Done done, int stream_count);

    /**
     * Move @p bytes on @p stream_count streams for operation
     * continuation @p done: folded when fault-free and uncontended,
     * per stream otherwise.
     */
    void start(std::uint64_t bytes, int stream_count, Done done,
               StepId step);

    /** @p count streams of @p operation are done; the last one
     * recycles the operation and runs its continuation. */
    void finishStreams(std::uint32_t operation, int count);

    /** A folded group of @p count streams ends: release them in
     * stream order, then finish them. */
    void releaseAndFinish(std::uint32_t operation, int count);

    /**
     * One per-stream transfer: sample the fault plan, hold a
     * stream for the attempt, and either complete or back off and
     * try again.
     */
    void transfer(Attempt attempt);

    /** The attempt's stream time is over: complete or retry. */
    void finishAttempt(Attempt attempt);

    void emitRetry(SimTime start, SimTime duration, StepId step);

    Simulator &sim;
    StorageSpec config;
    Resource streams;
    FaultPlan *faults = nullptr;
    RetryPolicy retry_policy;
    TraceSink *sink = nullptr;
    std::vector<Operation> operations;
    std::uint32_t free_operation = UINT32_MAX; ///< Free-list head.
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t retries = 0;
    SimTime retry_time = 0;
};

} // namespace tpupoint

#endif // TPUPOINT_HOST_STORAGE_HH
