/**
 * @file
 * The one phase-detector contract behind AnalysisSession. Each of
 * TPUPoint-Analyzer's algorithms (k-means, DBSCAN, OLS — Section
 * IV-A) is one PhaseDetector with a streaming shape: it may consume
 * settled step rows as they are aggregated (observeSteps), answer a
 * provisional snapshot() at any moment, and produce its final
 * result with finalize(). A batch session is a session that
 * observed nothing: finalize() receives the whole table and does
 * all of the work. finalize() builds the step table and feature
 * matrix once and hands the shared, read-only views to every
 * requested detector, instead of each algorithm re-deriving its
 * own inputs.
 *
 * Determinism contract: a snapshot must be a pure function of
 * (options, the settled row prefix observed) — never of how that
 * prefix was chunked across observeSteps() calls or of wall-clock
 * time. Any sampling draws per-row randomness from
 * SplitMix64(seed ^ row-index) so arrival pattern cannot leak in.
 * finalize() must be a pure function of (options, table, features)
 * whatever was observed first: OLS's scan folds the rows it has not
 * yet seen, so a streamed and a batch session run the same fold
 * sequence; k-means and DBSCAN recluster the full table. The
 * optional ThreadPool only schedules — output is bit-identical
 * whether a detector runs serially, on an inline pool, or fanned
 * out across workers.
 *
 * reset() returns a detector to its freshly-constructed state;
 * AnalysisSession invokes it when the builder's touch floor shows
 * history was rewritten (out-of-order window, attempt stitch) and
 * then re-feeds from row 0.
 */

#ifndef TPUPOINT_ANALYZER_DETECTOR_HH
#define TPUPOINT_ANALYZER_DETECTOR_HH

#include <functional>
#include <memory>
#include <vector>

#include "analyzer/analyzer.hh"

namespace tpupoint {

class ThreadPool;

/**
 * One settled step row, in ascending row order. The op spans
 * borrow the builder's storage and are valid only for the duration
 * of the observeSteps() call — a detector that samples rows must
 * copy the entries it keeps.
 */
struct StepDelta
{
    StepId step = 0;
    SimTime span = 0;      ///< Wall span of the step's events.
    OpStatsSpan host;      ///< Host op entries, id-sorted.
    OpStatsSpan tpu;       ///< TPU op entries, id-sorted.
};

/** One phase-detection algorithm, pluggable into AnalysisSession. */
class PhaseDetector
{
  public:
    virtual ~PhaseDetector() = default;

    /** The algorithm this detector implements. */
    virtual PhaseAlgorithm algorithm() const = 0;

    /** Printable name (matches phaseAlgorithmName()). */
    virtual const char *name() const = 0;

    /**
     * True when finalize() reads the step-feature matrix. The
     * session builds the matrix once iff any requested detector
     * needs it.
     */
    virtual bool needsFeatures() const = 0;

    /**
     * Consume the next batch of settled rows. Rows arrive in
     * ascending row order with no gaps or repeats between calls;
     * the batch boundary carries no meaning (see the determinism
     * contract above).
     */
    virtual void observeSteps(
        const std::vector<StepDelta> &deltas) = 0;

    /** Discard all observed state (history was rewritten). */
    virtual void reset() = 0;

    /**
     * The phases over every row observed so far. Non-destructive
     * and repeatable; cost must be bounded by detector state (OLS:
     * O(groups); sampled k-means: O(reservoir)), never by the
     * number of observed steps.
     */
    virtual StreamingSnapshot snapshot() const = 0;

    /**
     * Run phase detection over the aggregated table. Called once
     * per session, after any rows were observed (a streaming
     * session observes every row first; a batch session observes
     * none).
     *
     * @param table Aggregated per-step statistics (read-only,
     *     shared across concurrently running detectors).
     * @param features The shared feature matrix; non-null whenever
     *     needsFeatures() is true, may be null otherwise.
     * @param options Analyzer configuration (thresholds, sweep
     *     ranges, seed).
     * @param pool Optional pool for fanning out internal sweeps;
     *     never required for correctness and must not change the
     *     result.
     */
    virtual DetectorResult finalize(const StepTable &table,
                                    const FeatureMatrix *features,
                                    const AnalyzerOptions &options,
                                    ThreadPool *pool) = 0;
};

/** Factory for a fresh detector bound to @p options. */
using DetectorFactory = std::function<std::unique_ptr<PhaseDetector>(
    const AnalyzerOptions &)>;

/**
 * One registry slot: the factory every session calls for a fresh
 * detector, and a prototype it made from default options that
 * answers the per-algorithm questions (name, feature needs)
 * without a session.
 */
struct DetectorEntry
{
    DetectorFactory factory;
    std::unique_ptr<PhaseDetector> prototype;

    PhaseAlgorithm algorithm() const
    {
        return prototype->algorithm();
    }
    const char *name() const { return prototype->name(); }
    bool needsFeatures() const { return prototype->needsFeatures(); }

    /** A fresh detector for one session. */
    std::unique_ptr<PhaseDetector>
    make(const AnalyzerOptions &options) const
    {
        return factory(options);
    }
};

/**
 * The registry entry for @p algorithm. The three builtins are
 * always registered: truly-online OLS, reservoir-sampled mini-batch
 * k-means, and DBSCAN, which counts steps and snapshots empty
 * (its neighbourhood queries resist incrementalization). The
 * returned reference stays valid for the process; its contents
 * change when a replacement is registered for the same algorithm.
 */
const DetectorEntry &detectorFor(PhaseAlgorithm algorithm);

/**
 * Replace the detector for @p algorithm (tests use this to
 * interpose instrumented detectors); a null factory restores the
 * builtin. Sessions created afterwards use the replacement for
 * both streaming snapshots and finalize. Registration is
 * mutex-guarded, but replacing a detector while a session that
 * looks it up is in flight is the caller's race.
 */
void registerDetector(PhaseAlgorithm algorithm,
                      DetectorFactory factory);

} // namespace tpupoint

#endif // TPUPOINT_ANALYZER_DETECTOR_HH
