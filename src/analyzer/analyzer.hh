/**
 * @file
 * TPUPoint-Analyzer (Section IV): the post-execution analysis
 * facade. Walks the statistical profiles, summarizes them into
 * program phases with one of the three algorithms (k-means, DBSCAN,
 * OLS), measures coverage, ranks operators, and associates each
 * phase with the nearest model checkpoint for fast-forwarding.
 */

#ifndef TPUPOINT_ANALYZER_ANALYZER_HH
#define TPUPOINT_ANALYZER_ANALYZER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analyzer/dbscan.hh"
#include "analyzer/features.hh"
#include "analyzer/kmeans.hh"
#include "analyzer/ols.hh"
#include "analyzer/phases.hh"
#include "analyzer/step_table.hh"
#include "host/checkpoint.hh"

namespace tpupoint {

class ThreadPool;
class PhaseDetector;

namespace obs {
class Histogram;
} // namespace obs

/** Phase-detection algorithms offered by TPUPoint-Analyzer. */
enum class PhaseAlgorithm { KMeans, Dbscan, OnlineLinearScan };

/** Printable algorithm name. */
const char *phaseAlgorithmName(PhaseAlgorithm algorithm);

/** Analyzer configuration. */
struct AnalyzerOptions
{
    PhaseAlgorithm algorithm = PhaseAlgorithm::OnlineLinearScan;

    /**
     * Detectors to run in addition to `algorithm` over the same
     * aggregated table and shared feature pass. Each produces one
     * AnalysisResult::detections entry; the flat phases and
     * top3_coverage always mirror the primary `algorithm`.
     * Duplicates of the primary (or of each other) are ignored.
     */
    std::vector<PhaseAlgorithm> extra_algorithms;

    /** OLS similarity threshold (Equation 1; default 70%). */
    double ols_threshold = 0.70;

    /** Fixed k (0 = pick with the elbow method). */
    int kmeans_fixed_k = 0;

    /** Fixed min-samples (0 = sweep 5..180 step 25 + elbow). */
    std::size_t dbscan_fixed_min_samples = 0;

    FeatureOptions features;
    std::uint64_t seed = 0x414e4c5aULL; // "ANLZ"

    /**
     * Feed the detectors settled rows during ingest so
     * partialResult() answers phase queries mid-stream at bounded
     * per-step cost. Off (the default), ingest is aggregation only
     * and the detectors see the whole table at finalize(); either
     * way finalize() is bit-identical (k-means/DBSCAN cluster the
     * full table, OLS finishes the same fold).
     */
    bool streaming = false;

    /**
     * Capacity of the streaming mini-batch k-means reservoir: the
     * deterministic sample of feature rows mid-stream snapshots
     * cluster. Bounds snapshot cost regardless of trace length.
     */
    std::size_t streaming_reservoir = 256;
};

/** Compact phase summary a streaming snapshot reports. */
struct StreamingPhase
{
    int id = 0;
    StepId first_step = 0;
    StepId last_step = 0;
    std::uint64_t steps = 0;  ///< Sampled steps when `sampled`.
    SimTime duration = 0;     ///< Sum of (sampled) member spans.
    bool noise = false;
};

/**
 * One incremental detector's answer mid-stream: the phases over
 * every step observed so far, without finalizing anything.
 */
struct StreamingSnapshot
{
    PhaseAlgorithm algorithm = PhaseAlgorithm::OnlineLinearScan;
    std::vector<StreamingPhase> phases;
    double top3_coverage = 0.0;

    /** Steps the detector has consumed. */
    std::uint64_t steps_observed = 0;

    /**
     * The snapshot equals what the batch detector would produce
     * over the observed steps (true for OLS; false for sampled
     * k-means estimates and DBSCAN's empty snapshots).
     */
    bool exact = false;

    /** Phases are estimated from a reservoir sample. */
    bool sampled = false;
};

/**
 * AnalysisSession::partialResult(): the streaming detectors'
 * answers plus how far they trail the aggregation. Available any
 * number of times without consuming the session.
 */
struct PartialResult
{
    /** Step rows aggregated so far. */
    std::uint64_t steps_aggregated = 0;

    /**
     * Settled rows the streaming detectors consumed. The newest
     * row stays unsettled (a later window may still fold into it),
     * so this trails steps_aggregated by at least one mid-stream.
     */
    std::uint64_t steps_observed = 0;

    /** steps_aggregated - steps_observed: the staleness figure. */
    std::uint64_t steps_behind = 0;

    /** One snapshot per requested algorithm, primary first. */
    std::vector<StreamingSnapshot> snapshots;
};

/**
 * One phase detector's complete output. finalize() produces one
 * DetectorResult per requested algorithm; only the fields relevant
 * to that algorithm are populated (kmeans for k-means, dbscan for
 * DBSCAN, ols_* for OLS — phases and top3_coverage always).
 */
struct DetectorResult
{
    PhaseAlgorithm algorithm = PhaseAlgorithm::OnlineLinearScan;
    std::vector<Phase> phases;
    double top3_coverage = 0.0;
    KMeansSweep kmeans;
    DbscanSweep dbscan;
    std::vector<OnlineLinearScan::Span> ols_spans;
    std::vector<OnlineLinearScan::Group> ols_groups;
};

/** A phase's associated restart checkpoint (Section IV-C). */
struct PhaseCheckpoint
{
    int phase_id = 0;
    StepId checkpoint_step = 0;
    SimTime saved_at = 0;
    StepId distance = 0; ///< |checkpoint - nearest phase step|.
};

/** Everything TPUPoint-Analyzer derives from a profiled run. */
struct AnalysisResult
{
    PhaseAlgorithm algorithm = PhaseAlgorithm::OnlineLinearScan;
    StepTable table;
    std::vector<Phase> phases;

    /** Coverage of execution by the 3 longest phases. */
    double top3_coverage = 0.0;

    /**
     * Every requested detector's output, primary algorithm first,
     * then extra_algorithms in request order; the algorithm's
     * sweep curves and OLS spans/groups live here. The flat
     * phases and top3_coverage above mirror detections.front().
     */
    std::vector<DetectorResult> detections;

    /** Nearest checkpoint per phase, when checkpoints were given. */
    std::vector<PhaseCheckpoint> checkpoints;

    /**
     * Attempt continuity (container v4). A single-attempt profile
     * reports attempts = 1 and zero replay/discard; a stitched
     * multi-attempt profile counts each preemption boundary, the
     * steps the restarts re-ran (marked in the table, counted once
     * in aggregates), and the work discarded at each boundary.
     */
    std::uint32_t attempts = 1;
    std::uint64_t replayed_steps = 0;  ///< Table rows marked replayed.
    std::uint64_t discarded_steps = 0; ///< Rows dropped at boundaries.
    SimTime discarded_time = 0;        ///< Span of dropped rows.

    /**
     * Events the profiler rejected at transport caps, summed over
     * every ingested record (container v5; 0 for older profiles).
     * Non-zero means the phase statistics undercount the capped
     * windows.
     */
    std::uint64_t dropped_events = 0;

    /** The longest phase, or nullptr when no phases. */
    const Phase *longest() const { return longestPhase(phases); }
};

/**
 * One incremental analysis: records are ingested as they arrive
 * from the streaming profile reader (or straight off the live
 * profiler), so step aggregation overlaps record arrival and the
 * record list never has to be materialized. finalize() runs the
 * phase detector over the aggregated table.
 */
class AnalysisSession
{
  public:
    explicit AnalysisSession(const AnalyzerOptions &options = {});
    ~AnalysisSession();

    AnalysisSession(AnalysisSession &&) noexcept;
    AnalysisSession &operator=(AnalysisSession &&) noexcept;

    /**
     * Fold one decoded record (see ProfileReader::read(
     * ColumnarRecord&) and ColumnarDecoder). Attempt-boundary
     * records (container v4) stitch instead of aggregate: steps
     * the dead attempt ran past the restart's resume point are
     * dropped, and the replayed range is marked so re-ingested
     * steps count once with a replay flag.
     */
    void ingest(const ColumnarRecord &record);

    /** Records ingested so far. */
    std::uint64_t recordsIngested() const
    {
        return builder.recordsIngested();
    }

    /**
     * Run phase detection over everything ingested, inline on the
     * calling thread. The session is consumed; a fresh one is
     * needed for another analysis.
     * @param checkpoints The run's checkpoint registry, used for
     *     phase/checkpoint association (may be empty).
     */
    AnalysisResult finalize(
        const std::vector<CheckpointInfo> &checkpoints = {});

    /**
     * finalize() on a caller-provided pool: detectors run
     * concurrently and the k-means / DBSCAN sweeps fan out per
     * setting. Lets a process share a single pool (and a single
     * --threads knob) across sessions, sweeps, and jobs. The pool
     * only schedules; it never feeds randomness or simulated time
     * into detection, so results are bit-identical for any worker
     * count (see DESIGN.md section 10).
     */
    AnalysisResult finalize(
        const std::vector<CheckpointInfo> &checkpoints,
        ThreadPool &pool);

    /**
     * Streaming read-out (options().streaming only; otherwise the
     * snapshot list is empty and only the aggregation counters are
     * filled). Does not consume or mutate the session beyond the
     * detectors' own incremental state; callable any number of
     * times, including after finalize() — where steps_behind is 0
     * and each snapshot reflects every step (exact detectors
     * report their final phases, sampled ones their last
     * estimate).
     */
    PartialResult partialResult() const;

    const AnalyzerOptions &options() const { return opts; }

  private:
    /** Create one detector per requested algorithm, once. */
    void makeDetectors();

    /**
     * Feed the streaming detectors every settled row the builder
     * has beyond what they observed. A row is settled once a
     * higher step id exists (windows of one step arrive before the
     * next step starts), so the newest row is withheld until
     * either a later step lands or finalize(). When the builder's
     * touch floor dips below the observed count — an out-of-order
     * window or attempt stitch rewrote history — the detectors
     * reset and re-observe from row 0.
     */
    void feedStreams(bool settle_all);

    AnalyzerOptions opts;
    StepTableBuilder builder;
    bool finalized = false;

    std::uint32_t attempts_seen = 1;
    std::uint64_t discarded_steps = 0;
    SimTime discarded_time = 0;
    std::uint64_t dropped_events = 0;

    /** One detector per requested algorithm (primary first), plus
     * its per-step latency histogram when opts.streaming — created
     * on first ingest when streaming, else at finalize(). */
    struct DetectorSlot
    {
        std::unique_ptr<PhaseDetector> detector;
        obs::Histogram *step_us = nullptr;
    };
    std::vector<DetectorSlot> detectors;

    /** Builder rows the streaming detectors have consumed. */
    std::size_t observed_rows = 0;

    /**
     * How far the settle watermark trails the newest row. Profiler
     * windows overlap, so trailing rows keep accumulating after
     * they first appear; the margin grows to the deepest re-touch
     * seen so far, after which resets stop and per-step cost is
     * O(1) amortized.
     */
    std::size_t settle_margin = 1;
};

/**
 * The analyzer. Stateless across runs; analyze() is const apart
 * from seeding.
 */
class TpuPointAnalyzer
{
  public:
    explicit TpuPointAnalyzer(const AnalyzerOptions &options = {});

    /**
     * Full post-execution analysis of an in-memory profile, its
     * record @p payloads in stream order (see
     * TpuPointProfiler::payloads()): one ColumnarDecoder decodes
     * each into one reused record for an AnalysisSession, which is
     * then finalized — the path tpupoint-analyze takes on the
     * written file. A malformed payload is fatal.
     * @param checkpoints The run's checkpoint registry, used for
     *     phase/checkpoint association (may be empty).
     */
    AnalysisResult analyze(
        const std::vector<std::string> &payloads,
        const std::vector<CheckpointInfo> &checkpoints = {}) const;

    /** analyze() on a caller-provided pool (see AnalysisSession). */
    AnalysisResult analyze(
        const std::vector<std::string> &payloads,
        const std::vector<CheckpointInfo> &checkpoints,
        ThreadPool &pool) const;

    const AnalyzerOptions &options() const { return opts; }

  private:
    AnalyzerOptions opts;
};

} // namespace tpupoint

#endif // TPUPOINT_ANALYZER_ANALYZER_HH
