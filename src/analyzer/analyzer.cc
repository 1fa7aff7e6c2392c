#include "analyzer/analyzer.hh"

#include <algorithm>
#include <chrono>
#include <memory>

#include "analyzer/detector.hh"
#include "core/logging.hh"
#include "core/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/pool_metrics.hh"
#include "obs/span.hh"

namespace tpupoint {

namespace {

/** Primary algorithm first, then deduplicated extras in order. */
std::vector<PhaseAlgorithm>
requestedAlgorithms(const AnalyzerOptions &opts)
{
    std::vector<PhaseAlgorithm> algorithms{opts.algorithm};
    for (const PhaseAlgorithm extra : opts.extra_algorithms) {
        if (std::find(algorithms.begin(), algorithms.end(),
                      extra) == algorithms.end())
            algorithms.push_back(extra);
    }
    return algorithms;
}

} // namespace

const char *
phaseAlgorithmName(PhaseAlgorithm algorithm)
{
    switch (algorithm) {
      case PhaseAlgorithm::KMeans: return "k-means";
      case PhaseAlgorithm::Dbscan: return "DBSCAN";
      case PhaseAlgorithm::OnlineLinearScan: return "OLS";
    }
    panic("phaseAlgorithmName: unknown algorithm");
}

TpuPointAnalyzer::TpuPointAnalyzer(const AnalyzerOptions &options)
    : opts(options)
{
}

AnalysisSession::AnalysisSession(const AnalyzerOptions &options)
    : opts(options)
{
}

// Out of line: DetectorSlot holds a unique_ptr to the incomplete
// PhaseDetector at the point of declaration.
AnalysisSession::~AnalysisSession() = default;
AnalysisSession::AnalysisSession(AnalysisSession &&) noexcept =
    default;
AnalysisSession &
AnalysisSession::operator=(AnalysisSession &&) noexcept = default;

void
AnalysisSession::makeDetectors()
{
    if (!detectors.empty())
        return;
    for (const PhaseAlgorithm algorithm :
         requestedAlgorithms(opts)) {
        DetectorSlot slot;
        slot.detector = detectorFor(algorithm).make(opts);
        if (opts.streaming) {
            slot.step_us =
                &obs::MetricsRegistry::global().histogram(
                    std::string("analyzer.stream_step_us{"
                                "detector=") +
                    slot.detector->name() + "}");
        }
        detectors.push_back(std::move(slot));
    }
}

void
AnalysisSession::feedStreams(bool settle_all)
{
    if (!opts.streaming)
        return;
    makeDetectors();

    // History rewritten below what the detectors already saw (an
    // out-of-order window, an attempt stitch, or a window overlap
    // deeper than the current margin): start over. The detectors
    // are pure functions of the settled prefix, so the re-feed
    // reconverges to the state a clean arrival would have
    // produced. Widening the margin to the observed depth makes
    // the next same-depth overlap land above the watermark, so
    // resets stop once the stream's overlap depth has been seen —
    // without that, overlapping profiler windows would trigger a
    // full re-feed per record and per-step cost would grow with
    // trace length.
    const std::size_t rows = builder.stepsAggregated();
    if (builder.touchedFloor() < observed_rows) {
        settle_margin = std::max(settle_margin,
                                 rows - builder.touchedFloor());
        for (DetectorSlot &slot : detectors)
            slot.detector->reset();
        observed_rows = 0;
    }
    builder.clearTouchedFloor();

    // A row is settled once no later window is expected to fold
    // into it; hold back the trailing margin until finalize
    // (settle_all) flushes it.
    const std::size_t settled = settle_all
        ? rows
        : (rows > settle_margin ? rows - settle_margin : 0);
    if (settled <= observed_rows)
        return;

    const StepTable &table = builder.rows();
    std::vector<StepDelta> deltas;
    deltas.reserve(settled - observed_rows);
    for (std::size_t i = observed_rows; i < settled; ++i) {
        deltas.push_back(StepDelta{table.stepId(i), table.span(i),
                                   table.hostOps(i),
                                   table.tpuOps(i)});
    }
    for (DetectorSlot &slot : detectors) {
        const auto begin = std::chrono::steady_clock::now();
        slot.detector->observeSteps(deltas);
        const auto micros =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - begin)
                .count();
        // Amortized per-step cost of this feed.
        slot.step_us->observe(static_cast<std::uint64_t>(
            micros / static_cast<long long>(deltas.size())));
    }
    observed_rows = settled;
}

PartialResult
AnalysisSession::partialResult() const
{
    PartialResult out;
    // The builder is consumed by finalize(); the detectors keep
    // the authoritative count from then on.
    out.steps_aggregated = finalized
        ? observed_rows
        : builder.stepsAggregated();
    out.steps_observed = observed_rows;
    out.steps_behind = out.steps_aggregated > out.steps_observed
        ? out.steps_aggregated - out.steps_observed
        : 0;
    if (!opts.streaming)
        return out;
    out.snapshots.reserve(detectors.size());
    for (const DetectorSlot &slot : detectors)
        out.snapshots.push_back(slot.detector->snapshot());
    return out;
}

void
AnalysisSession::ingest(const ColumnarRecord &record)
{
    if (finalized)
        panic("AnalysisSession::ingest after finalize");
    if (record.attempt + 1 > attempts_seen)
        attempts_seen = record.attempt + 1;
    dropped_events += record.events_dropped;
    if (record.attempt_boundary) {
        // Stitch: the dead attempt's windows may extend past the
        // restart point — completed steps the new attempt re-runs
        // (they come back marked replayed, counted once) and
        // prefetch activity on steps that never finished. Drop
        // them and register the replay range.
        SimTime span = 0;
        discarded_steps +=
            builder.dropAfter(record.resume_step, &span);
        discarded_time += span;
        builder.markReplayed(record.resume_step,
                             record.preempted_at_step);
        // The drop lowered the touch floor; re-sync the streaming
        // detectors now so partialResult() never reports phases
        // over discarded steps.
        feedStreams(/*settle_all=*/false);
        return; // boundary markers carry no step data
    }
    builder.ingest(record);
    feedStreams(/*settle_all=*/false);
}

AnalysisResult
AnalysisSession::finalize(
    const std::vector<CheckpointInfo> &checkpoints)
{
    ThreadPoolOptions pool_opts; // One worker: inline.
    pool_opts.hooks = obs::instrumentedPoolHooks("analysis");
    ThreadPool pool(pool_opts);
    return finalize(checkpoints, pool);
}

AnalysisResult
AnalysisSession::finalize(
    const std::vector<CheckpointInfo> &checkpoints,
    ThreadPool &pool)
{
    if (finalized)
        panic("AnalysisSession::finalize called twice");
    // Flush the held-back newest row into the streaming detectors
    // before the builder is consumed; no-op for batch sessions.
    feedStreams(/*settle_all=*/true);
    finalized = true;

    AnalysisResult result;
    result.algorithm = opts.algorithm;
    result.table = std::move(builder).build();
    result.attempts = attempts_seen;
    result.discarded_steps = discarded_steps;
    result.discarded_time = discarded_time;
    result.dropped_events = dropped_events;
    for (std::size_t i = 0; i < result.table.size(); ++i) {
        if (result.table.replayed(i))
            ++result.replayed_steps;
    }
    if (result.table.size() == 0)
        return result;

    // A batch session observed nothing: its detectors are made
    // here and do all of their work in finalize().
    makeDetectors();

    // One shared feature pass: build the matrix once iff any
    // requested detector reads it, instead of each algorithm
    // re-deriving its own copy.
    std::unique_ptr<FeatureMatrix> features;
    bool need_features = false;
    for (const DetectorSlot &slot : detectors)
        need_features |= slot.detector->needsFeatures();
    if (need_features) {
        obs::TraceSpan feature_span("analyze.features");
        feature_span.arg("steps",
                         static_cast<std::uint64_t>(
                             result.table.size()));
        features = std::make_unique<FeatureMatrix>(
            FeatureMatrix::build(result.table, opts.features));
    }

    // Detectors only read the table/features and write their own
    // state and detections entry, so they run concurrently when
    // the pool has workers; each also receives the pool for its
    // internal sweeps (nested fan-out is safe — waiters help).
    result.detections.resize(detectors.size());
    auto run_detector = [&](std::size_t i) {
        PhaseDetector &detector = *detectors[i].detector;
        obs::TraceSpan detect_span(std::string("analyze.") +
                                   detector.name());
        detect_span.arg("steps",
                        static_cast<std::uint64_t>(
                            result.table.size()));
        result.detections[i] = detector.finalize(
            result.table, features.get(), opts, &pool);
        detect_span.arg("phases",
                        static_cast<std::uint64_t>(
                            result.detections[i].phases.size()));
    };
    if (detectors.size() == 1)
        run_detector(0);
    else
        pool.forEach(detectors.size(), run_detector,
                     "analyze.detector");

    // The flat fields mirror the primary detector.
    const DetectorResult &primary = result.detections.front();
    result.phases = primary.phases;
    result.top3_coverage = primary.top3_coverage;

    // Section IV-C: find the checkpoint with the smallest distance
    // to each phase's steps.
    if (!checkpoints.empty()) {
        for (const auto &phase : result.phases) {
            PhaseCheckpoint assoc;
            assoc.phase_id = phase.id;
            StepId best_distance = kNoStep;
            for (const auto &info : checkpoints) {
                // Distance from the checkpoint to the phase's step
                // interval.
                StepId distance = 0;
                if (info.step < phase.first_step)
                    distance = phase.first_step - info.step;
                else if (info.step > phase.last_step)
                    distance = info.step - phase.last_step;
                if (distance < best_distance) {
                    best_distance = distance;
                    assoc.checkpoint_step = info.step;
                    assoc.saved_at = info.saved_at;
                    assoc.distance = distance;
                }
            }
            result.checkpoints.push_back(assoc);
        }
    }
    return result;
}

namespace {

AnalysisSession
ingestAll(const AnalyzerOptions &opts,
          const std::vector<std::string> &payloads)
{
    AnalysisSession session(opts);
    obs::TraceSpan ingest_span("analyze.ingest");
    ingest_span.arg("records",
                    static_cast<std::uint64_t>(payloads.size()));
    std::uint64_t events = 0;
    ColumnarDecoder decoder;
    ColumnarRecord record;
    for (const std::string &payload : payloads) {
        if (!decoder.decode(payload, record,
                            StringInterner::global()))
            fatal("TpuPointAnalyzer: malformed record payload");
        session.ingest(record);
        events += record.event_count;
    }
    ingest_span.arg("events", events);
    return session;
}

} // namespace

AnalysisResult
TpuPointAnalyzer::analyze(
    const std::vector<std::string> &payloads,
    const std::vector<CheckpointInfo> &checkpoints) const
{
    AnalysisSession session = ingestAll(opts, payloads);
    return session.finalize(checkpoints);
}

AnalysisResult
TpuPointAnalyzer::analyze(
    const std::vector<std::string> &payloads,
    const std::vector<CheckpointInfo> &checkpoints,
    ThreadPool &pool) const
{
    AnalysisSession session = ingestAll(opts, payloads);
    return session.finalize(checkpoints, pool);
}

} // namespace tpupoint
