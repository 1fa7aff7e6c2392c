/**
 * @file
 * Differential test of the storage bucket's fault-free fold: a
 * transfer whose streams are all free retires in one finish event
 * per distinct share time instead of a grant and a finish per
 * stream (DESIGN §16). The per-stream bucket the fold replaced is
 * kept below as the oracle; seeded request mixes must give the same
 * completion times and order, the same byte counters and the same
 * free-stream counts at every observed instant, faults or not.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/logging.hh"
#include "core/rng.hh"
#include "host/storage.hh"
#include "sim/fault.hh"
#include "sim/resource.hh"
#include "sim/simulator.hh"

namespace tpupoint {
namespace {

/**
 * The per-stream bucket: every share acquires a stream through its
 * own grant event, samples the fault plan per attempt, and finishes
 * in its own event. Retry events and metrics are left out; timing,
 * retries and stream accounting are as before the fold.
 */
class PerStreamBucket
{
  public:
    using Done = StorageBucket::Done;

    PerStreamBucket(Simulator &simulator, const StorageSpec &spec)
        : sim(simulator), config(spec),
          streams(simulator,
                  static_cast<std::size_t>(std::max(spec.max_streams, 1)))
    {
    }

    /** @pre @p policy has no op timeout. */
    void
    injectFaults(FaultPlan *plan, const RetryPolicy &policy)
    {
        faults = plan;
        retry_policy = policy;
    }

    void
    read(std::uint64_t bytes, int parallel_streams, Done done)
    {
        const int actual = std::min(parallel_streams, config.max_streams);
        bytes_read += bytes;
        const std::uint32_t operation = open(std::move(done), actual);
        for (int i = 0; i < actual; ++i) {
            transfer(Attempt{StorageBucket::splitShares(bytes, actual)
                                 [static_cast<std::size_t>(i)],
                             0, operation});
        }
    }

    void
    write(std::uint64_t bytes, Done done)
    {
        bytes_written += bytes;
        transfer(Attempt{bytes, 0, open(std::move(done), 1)});
    }

    std::uint64_t bytesRead() const { return bytes_read; }
    std::uint64_t bytesWritten() const { return bytes_written; }
    std::uint64_t retriesPerformed() const { return retries; }
    std::size_t freeStreams() const { return streams.freeUnits(); }

  private:
    struct Operation
    {
        Done done;
        int streams_left = 0;
    };

    struct Attempt
    {
        std::uint64_t bytes;
        SimTime held;
        std::uint32_t operation;
        int attempt = 1;
        FaultKind fault = FaultKind::None;
    };

    std::uint32_t
    open(Done done, int stream_count)
    {
        operations.push_back(Operation{std::move(done), stream_count});
        return static_cast<std::uint32_t>(operations.size() - 1);
    }

    SimTime
    transferTime(std::uint64_t bytes) const
    {
        const double seconds =
            static_cast<double>(bytes) / config.stream_bandwidth;
        return config.request_latency +
            static_cast<SimTime>(seconds * 1e9 + 0.5);
    }

    void
    transfer(Attempt attempt)
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
            attempt.held = config.request_latency;
            break;
          case FaultKind::StreamReset:
            attempt.held = config.request_latency +
                static_cast<SimTime>(
                    fault.completed_fraction *
                    static_cast<double>(clean - config.request_latency));
            break;
        }
        streams.acquire([this, attempt]() {
            sim.schedule(attempt.held, [this, attempt]() {
                streams.release();
                finishAttempt(attempt);
            });
        });
    }

    void
    finishAttempt(Attempt attempt)
    {
        if (!FaultDecision{attempt.fault}.failed()) {
            Operation &operation = operations[attempt.operation];
            if (--operation.streams_left == 0) {
                Done done = std::move(operation.done);
                if (done)
                    done();
            }
            return;
        }
        if (attempt.attempt >= retry_policy.max_attempts)
            fatal("PerStreamBucket: retry budget exhausted");
        double delay = static_cast<double>(retry_policy.initial_backoff);
        for (int i = 1; i < attempt.attempt; ++i)
            delay *= retry_policy.backoff_multiplier;
        delay = std::min(delay,
                         static_cast<double>(retry_policy.max_backoff));
        if (retry_policy.jitter > 0)
            delay *= 1.0 + retry_policy.jitter *
                (2.0 * faults->jitter() - 1.0);
        const auto backoff = static_cast<SimTime>(delay);
        ++retries;
        ++attempt.attempt;
        sim.schedule(backoff, [this, attempt]() { transfer(attempt); });
    }

    Simulator &sim;
    StorageSpec config;
    Resource streams;
    FaultPlan *faults = nullptr;
    RetryPolicy retry_policy;
    std::vector<Operation> operations;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t retries = 0;
};

/** A read or write submitted at a fixed time, or by another request's
 * continuation or a probe (`at` unused). */
struct Request
{
    SimTime at = 0;
    bool write = false;
    std::uint64_t bytes = 0;
    int streams = 1;
    /** Index into Scenario::follow_ups submitted by the continuation,
     * or -1. */
    int then = -1;
    /** Index into Scenario::follow_ups submitted by the probe stamped
     * at this request's predicted last finish, or -1. */
    int at_finish = -1;
};

struct Scenario
{
    StorageSpec spec;
    std::vector<Request> requests;
    std::vector<Request> follow_ups;
    bool faulted = false;
    std::uint64_t fault_seed = 0;
};

/** One observed instant. */
struct Note
{
    enum Kind { Submit, Done, Probe } kind;
    int id;
    SimTime time;
    std::size_t free;
    std::uint64_t read;
    std::uint64_t written;

    bool
    operator==(const Note &other) const = default;
};

struct Observed
{
    std::vector<Note> notes;
    std::uint64_t retries = 0;
    std::uint64_t events = 0;
    std::size_t folds_possible = 0; ///< Submitted with every stream free.
    std::size_t contended = 0;      ///< Submitted with too few free.
};

/** The fault-free time of the first share of @p request, or of its
 * last (remainder) share when @p last. */
SimTime
shareTime(const StorageSpec &spec, const Request &request, bool last)
{
    const int streams = request.write
        ? 1 : std::min(request.streams, spec.max_streams);
    const std::uint64_t share = StorageBucket::splitShares(
        request.bytes, streams)[last ? streams - 1 : 0];
    const double seconds =
        static_cast<double>(share) / spec.stream_bandwidth;
    return spec.request_latency +
        static_cast<SimTime>(seconds * 1e9 + 0.5);
}

template <typename Bucket>
Observed
drive(const Scenario &scenario)
{
    Simulator sim;
    Bucket bucket(sim, scenario.spec);
    FaultPlan plan(FaultSpec::uniform(0.05, 0.05, 0.05),
                   scenario.fault_seed);
    RetryPolicy policy;
    // Contended transfers queue for seconds; a timeout would end
    // the run, not test the fold.
    policy.op_timeout = 0;
    policy.max_attempts = 12;
    if (scenario.faulted)
        bucket.injectFaults(&plan, policy);
    Observed observed;
    const auto note = [&](Note::Kind kind, int id) {
        observed.notes.push_back(Note{kind, id, sim.now(),
                                      bucket.freeStreams(),
                                      bucket.bytesRead(),
                                      bucket.bytesWritten()});
    };

    // Submit a request now: probes at its predicted finish times go
    // in before and after it, so they sit on both sides of its
    // events at those instants.
    std::function<void(const Request &, int)> submit =
        [&](const Request &request, int id) {
        const SimTime equal = shareTime(scenario.spec, request, false);
        const SimTime last = shareTime(scenario.spec, request, true);
        const auto probe = [&](SimTime delay, int follow_up) {
            sim.schedule(delay, [&, id, follow_up] {
                note(Note::Probe, id);
                if (follow_up >= 0) {
                    submit(scenario.follow_ups[static_cast<std::size_t>(
                               follow_up)],
                           1000 + follow_up);
                }
            });
        };
        probe(equal, -1);
        probe(last, -1);
        note(Note::Submit, id);
        const auto needed = static_cast<std::size_t>(
            request.write ? 1
                          : std::min(request.streams,
                                     scenario.spec.max_streams));
        if (bucket.freeStreams() >= needed)
            ++observed.folds_possible;
        else
            ++observed.contended;
        auto done = [&, id, then = request.then] {
            note(Note::Done, id);
            if (then >= 0) {
                submit(scenario.follow_ups[static_cast<std::size_t>(then)],
                       2000 + then);
            }
        };
        if (request.write)
            bucket.write(request.bytes, done);
        else
            bucket.read(request.bytes, request.streams, done);
        probe(0, -1);
        probe(equal, -1);
        probe(last, request.at_finish);
    };
    for (std::size_t i = 0; i < scenario.requests.size(); ++i) {
        const Request &request = scenario.requests[i];
        sim.scheduleAt(request.at, [&, i] {
            submit(scenario.requests[i], static_cast<int>(i));
        });
    }
    sim.run();
    observed.retries = bucket.retriesPerformed();
    observed.events = sim.eventsExecuted();
    return observed;
}

Request
randomRequest(Rng &rng, bool checkpoint_heavy)
{
    Request request;
    request.write = rng.bernoulli(checkpoint_heavy ? 0.4 : 0.15);
    request.streams = 1 + static_cast<int>(rng.nextBounded(70));
    switch (rng.nextBounded(5)) {
      case 0: // empty: a zero-byte write still pays the round trip
        request.bytes = 0;
        break;
      case 1: // fewer bytes than streams
        request.bytes = rng.nextBounded(80);
        break;
      case 2: // divisible: every share equal
        request.bytes = static_cast<std::uint64_t>(request.streams) *
            (1 + rng.nextBounded(1'000'000));
        break;
      case 3: // checkpoint-sized
        request.bytes = 50'000'000 + rng.nextBounded(200'000'000);
        break;
      default: // indivisible: the last share carries a remainder
        request.bytes = 1 + rng.nextBounded(64'000'000);
        break;
    }
    return request;
}

Scenario
makeScenario(std::uint64_t seed, bool faulted)
{
    Rng rng(seed);
    Scenario scenario;
    const int pools[] = {2, 3, 8, 64};
    scenario.spec.max_streams = pools[rng.nextBounded(4)];
    scenario.spec.stream_bandwidth =
        rng.bernoulli(0.5) ? 160e6 : 123'456'789.0;
    const SimTime latencies[] = {0, 6 * kMsec, 1'234'567};
    scenario.spec.request_latency = latencies[rng.nextBounded(3)];
    scenario.faulted = faulted;
    scenario.fault_seed = seed + 1;
    const bool checkpoint_heavy = rng.bernoulli(0.5);
    for (int i = 0; i < 40; ++i)
        scenario.follow_ups.push_back(
            randomRequest(rng, checkpoint_heavy));
    double bytes = 0;
    for (int i = 0; i < 160; ++i) {
        Request request = randomRequest(rng, checkpoint_heavy);
        if (rng.bernoulli(0.25))
            request.then = static_cast<int>(rng.nextBounded(40));
        if (rng.bernoulli(0.2))
            request.at_finish = static_cast<int>(rng.nextBounded(40));
        bytes += static_cast<double>(request.bytes);
        scenario.requests.push_back(request);
    }
    // Spread the requests over about the time the pool needs to
    // move their bytes, so the pool is sometimes idle and sometimes
    // oversubscribed. Bursts share a timestamp.
    const double pool_seconds = bytes /
        (scenario.spec.stream_bandwidth * scenario.spec.max_streams);
    const auto horizon = static_cast<std::uint64_t>(
        pool_seconds * rng.uniform(1.0, 5.0) * 1e9) + kSec;
    for (Request &request : scenario.requests) {
        request.at = static_cast<SimTime>(rng.nextBounded(horizon));
        if (rng.bernoulli(0.3))
            request.at -= request.at % (50 * kMsec);
    }
    return scenario;
}

TEST(StorageDifferential, FaultFreeFoldMatchesPerStreamOracle)
{
    std::size_t folds_possible = 0;
    std::size_t contended = 0;
    std::uint64_t retries = 0;
    std::uint64_t events_saved = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        for (const bool faulted : {false, true}) {
            const Scenario scenario = makeScenario(seed, faulted);
            const std::string label = "seed " + std::to_string(seed) +
                (faulted ? " faulted" : "") + ", max_streams " +
                std::to_string(scenario.spec.max_streams);
            const Observed bucket = drive<StorageBucket>(scenario);
            const Observed oracle = drive<PerStreamBucket>(scenario);
            ASSERT_EQ(bucket.notes.size(), oracle.notes.size()) << label;
            for (std::size_t i = 0; i < bucket.notes.size(); ++i) {
                const Note &a = bucket.notes[i];
                const Note &b = oracle.notes[i];
                ASSERT_TRUE(a == b)
                    << label << " note " << i << ": kind " << a.kind
                    << "/" << b.kind << " id " << a.id << "/" << b.id
                    << " time " << a.time << "/" << b.time << " free "
                    << a.free << "/" << b.free << " read " << a.read
                    << "/" << b.read << " written " << a.written << "/"
                    << b.written;
            }
            EXPECT_EQ(bucket.retries, oracle.retries) << label;
            // With a plan armed every attempt still samples it.
            if (faulted)
                EXPECT_EQ(bucket.events, oracle.events) << label;
            else
                EXPECT_LE(bucket.events, oracle.events) << label;
            folds_possible += faulted ? 0 : bucket.folds_possible;
            contended += bucket.contended;
            retries += bucket.retries;
            events_saved += oracle.events - bucket.events;
        }
    }
    // The mixes reach the fold, its fallback under contention, and
    // the retry path.
    EXPECT_GT(folds_possible, 0u);
    EXPECT_GT(contended, 0u);
    EXPECT_GT(retries, 0u);
    EXPECT_GT(events_saved, 0u);
    RecordProperty("folds_possible", std::to_string(folds_possible));
    RecordProperty("contended", std::to_string(contended));
    RecordProperty("events_saved", std::to_string(events_saved));
}

} // namespace
} // namespace tpupoint
