/**
 * @file Incremental phase detection (analyzer/detector): the
 * determinism contract (snapshots are a pure function of the
 * settled prefix, never of how it was chunked across ingests), the
 * seeded reservoir, rewind handling across attempt stitches,
 * streaming-vs-batch finalize agreement, DBSCAN's empty snapshots,
 * the registry override hook, and partialResult()'s staleness
 * accounting.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analyzer/analyzer.hh"
#include "analyzer/detector.hh"
#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "obs/metrics.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace {

AnalyzerOptions
streamingOptions(PhaseAlgorithm algorithm =
                     PhaseAlgorithm::OnlineLinearScan)
{
    AnalyzerOptions opts;
    opts.algorithm = algorithm;
    opts.streaming = true;
    return opts;
}

/** Ingest @p steps into a fresh session, @p chunk steps/record. */
AnalysisSession
ingestChunked(const AnalyzerOptions &opts,
              const std::vector<StepStats> &steps,
              std::size_t chunk)
{
    AnalysisSession session(opts);
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < steps.size(); i += chunk) {
        const std::size_t end =
            std::min(steps.size(), i + chunk);
        session.ingest(testutil::columnar(testutil::makeRecord(
            {steps.begin() + static_cast<std::ptrdiff_t>(i),
             steps.begin() + static_cast<std::ptrdiff_t>(end)},
            seq++)));
    }
    return session;
}

void
expectSameSnapshot(const StreamingSnapshot &a,
                   const StreamingSnapshot &b)
{
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_EQ(a.steps_observed, b.steps_observed);
    EXPECT_EQ(a.exact, b.exact);
    EXPECT_EQ(a.sampled, b.sampled);
    EXPECT_DOUBLE_EQ(a.top3_coverage, b.top3_coverage);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].id, b.phases[i].id);
        EXPECT_EQ(a.phases[i].first_step, b.phases[i].first_step);
        EXPECT_EQ(a.phases[i].last_step, b.phases[i].last_step);
        EXPECT_EQ(a.phases[i].steps, b.phases[i].steps);
        EXPECT_EQ(a.phases[i].duration, b.phases[i].duration);
        EXPECT_EQ(a.phases[i].noise, b.phases[i].noise);
    }
}

void
expectSameDetection(const DetectorResult &a,
                    const DetectorResult &b)
{
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_DOUBLE_EQ(a.top3_coverage, b.top3_coverage);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].id, b.phases[i].id);
        EXPECT_EQ(a.phases[i].members, b.phases[i].members);
        EXPECT_EQ(a.phases[i].first_step, b.phases[i].first_step);
        EXPECT_EQ(a.phases[i].last_step, b.phases[i].last_step);
        EXPECT_EQ(a.phases[i].total_duration,
                  b.phases[i].total_duration);
        EXPECT_EQ(a.phases[i].is_noise, b.phases[i].is_noise);
    }
    ASSERT_EQ(a.ols_spans.size(), b.ols_spans.size());
    for (std::size_t i = 0; i < a.ols_spans.size(); ++i) {
        EXPECT_EQ(a.ols_spans[i].first_step,
                  b.ols_spans[i].first_step);
        EXPECT_EQ(a.ols_spans[i].last_step,
                  b.ols_spans[i].last_step);
        EXPECT_EQ(a.ols_spans[i].steps, b.ols_spans[i].steps);
        EXPECT_EQ(a.ols_spans[i].duration,
                  b.ols_spans[i].duration);
    }
    ASSERT_EQ(a.ols_groups.size(), b.ols_groups.size());
    for (std::size_t i = 0; i < a.ols_groups.size(); ++i) {
        EXPECT_EQ(a.ols_groups[i].signature,
                  b.ols_groups[i].signature);
        EXPECT_EQ(a.ols_groups[i].steps, b.ols_groups[i].steps);
        EXPECT_EQ(a.ols_groups[i].duration,
                  b.ols_groups[i].duration);
    }
}

// The determinism contract: the snapshot depends on the settled
// prefix, not on how records chunked it. One step per record, the
// whole run in one record, and a ragged chunking must all land on
// identical snapshots — for the exact OLS stream and the sampled
// k-means reservoir alike.
TEST(StreamingTest, SnapshotsAreArrivalPatternIndependent)
{
    AnalyzerOptions opts = streamingOptions();
    opts.extra_algorithms.push_back(PhaseAlgorithm::KMeans);
    const auto steps = testutil::threePhaseRun();

    const AnalysisSession fine = ingestChunked(opts, steps, 1);
    const AnalysisSession ragged = ingestChunked(opts, steps, 7);
    const AnalysisSession whole =
        ingestChunked(opts, steps, steps.size());

    const PartialResult a = fine.partialResult();
    const PartialResult b = ragged.partialResult();
    const PartialResult c = whole.partialResult();
    EXPECT_EQ(a.steps_aggregated, steps.size());
    EXPECT_EQ(a.steps_aggregated, b.steps_aggregated);
    EXPECT_EQ(a.steps_observed, b.steps_observed);
    EXPECT_EQ(a.steps_observed, c.steps_observed);
    ASSERT_EQ(a.snapshots.size(), 2u);
    ASSERT_EQ(b.snapshots.size(), 2u);
    ASSERT_EQ(c.snapshots.size(), 2u);
    for (std::size_t i = 0; i < a.snapshots.size(); ++i) {
        expectSameSnapshot(a.snapshots[i], b.snapshots[i]);
        expectSameSnapshot(a.snapshots[i], c.snapshots[i]);
    }
    // The primary OLS snapshot is exact and found the structure.
    EXPECT_TRUE(a.snapshots[0].exact);
    EXPECT_FALSE(a.snapshots[0].phases.empty());
    EXPECT_TRUE(a.snapshots[1].sampled);
    EXPECT_FALSE(a.snapshots[1].phases.empty());
}

// The newest row is withheld until a later step settles it, so
// mid-stream the detectors trail aggregation by exactly the open
// row; finalize() flushes it and the staleness reaches zero.
TEST(StreamingTest, PartialResultReportsStaleness)
{
    const auto steps = testutil::threePhaseRun();
    AnalysisSession session(streamingOptions());
    for (std::size_t i = 0; i < steps.size(); ++i) {
        session.ingest(
            testutil::columnar(testutil::makeRecord({steps[i]}, i)));
        const PartialResult partial = session.partialResult();
        EXPECT_EQ(partial.steps_aggregated, i + 1);
        EXPECT_EQ(partial.steps_observed, i);
        EXPECT_EQ(partial.steps_behind, 1u);
    }
    const AnalysisResult result = session.finalize();
    EXPECT_FALSE(result.phases.empty());
    const PartialResult final_partial = session.partialResult();
    EXPECT_EQ(final_partial.steps_aggregated, steps.size());
    EXPECT_EQ(final_partial.steps_observed, steps.size());
    EXPECT_EQ(final_partial.steps_behind, 0u);
    ASSERT_EQ(final_partial.snapshots.size(), 1u);
    // Post-finalize the exact stream reports the batch phases.
    EXPECT_EQ(final_partial.snapshots[0].phases.size(),
              result.phases.size());
}

// Without opts.streaming, ingest stays aggregation-only: no
// snapshots, counters still filled, finalize unchanged.
TEST(StreamingTest, NonStreamingSessionsHaveNoSnapshots)
{
    AnalysisSession session{AnalyzerOptions{}};
    const auto steps = testutil::threePhaseRun();
    session.ingest(testutil::columnar(testutil::makeRecord(steps)));
    const PartialResult partial = session.partialResult();
    EXPECT_EQ(partial.steps_aggregated, steps.size());
    EXPECT_EQ(partial.steps_observed, 0u);
    EXPECT_TRUE(partial.snapshots.empty());
}

// Streaming mode must not change what finalize() returns — for
// OLS the completed stream *is* the batch scan; k-means and DBSCAN
// delegate to their batch detectors.
TEST(StreamingTest, StreamingFinalizeMatchesBatch)
{
    const auto steps = testutil::threePhaseRun();
    for (const PhaseAlgorithm algorithm :
         {PhaseAlgorithm::OnlineLinearScan, PhaseAlgorithm::KMeans,
          PhaseAlgorithm::Dbscan}) {
        AnalyzerOptions batch_opts;
        batch_opts.algorithm = algorithm;
        AnalyzerOptions stream_opts = batch_opts;
        stream_opts.streaming = true;

        AnalysisSession batch =
            ingestChunked(batch_opts, steps, 5);
        AnalysisSession streamed =
            ingestChunked(stream_opts, steps, 5);
        const AnalysisResult expected = batch.finalize();
        const AnalysisResult actual = streamed.finalize();
        ASSERT_EQ(actual.detections.size(),
                  expected.detections.size());
        expectSameDetection(actual.detections[0],
                            expected.detections[0]);
        EXPECT_DOUBLE_EQ(actual.top3_coverage,
                         expected.top3_coverage);
    }
}

// An attempt stitch rewrites history: the restart's records fold
// into rows the detectors already consumed, so the streams reset
// and re-observe — and the finished analysis still matches the
// batch answer over the same stitched record sequence.
TEST(StreamingTest, AttemptStitchRewindsAndStillMatchesBatch)
{
    const auto steps = testutil::threePhaseRun();
    ASSERT_GT(steps.size(), 30u);
    std::vector<ProfileRecord> records;
    std::uint64_t seq = 0;
    // Attempt 0 reaches step 29...
    for (std::size_t i = 0; i < 30; ++i)
        records.push_back(
            testutil::makeRecord({steps[i]}, seq++));
    // ...dies, and the restart resumes from its checkpoint at
    // step 20: steps 20..29 are replayed.
    ProfileRecord boundary;
    boundary.attempt = 1;
    boundary.attempt_boundary = true;
    boundary.preempted_at_step = 29;
    boundary.resume_step = 20;
    boundary.window_begin = steps[29].end;
    boundary.window_end = steps[29].end;
    records.push_back(boundary);
    for (std::size_t i = 20; i < steps.size(); ++i) {
        ProfileRecord record =
            testutil::makeRecord({steps[i]}, seq++);
        record.attempt = 1;
        records.push_back(record);
    }

    const std::vector<ColumnarRecord> stream =
        testutil::columnar(records);
    AnalyzerOptions stream_opts = streamingOptions();
    AnalysisSession streamed(stream_opts);
    for (const ColumnarRecord &record : stream) {
        streamed.ingest(record);
        // Staleness never underflows across the rewind.
        const PartialResult partial = streamed.partialResult();
        EXPECT_GE(partial.steps_aggregated,
                  partial.steps_observed);
    }

    AnalysisSession batch{AnalyzerOptions{}};
    for (const ColumnarRecord &record : stream)
        batch.ingest(record);

    const AnalysisResult actual = streamed.finalize();
    const AnalysisResult expected = batch.finalize();
    EXPECT_EQ(actual.attempts, 2u);
    expectSameDetection(actual.detections[0],
                        expected.detections[0]);
}

// DBSCAN's streaming stand-in: quiet snapshots (never a wrong
// answer), full batch fidelity at finalize.
TEST(StreamingTest, DbscanFallbackAdapterSnapshotsEmpty)
{
    const auto steps = testutil::threePhaseRun();
    AnalysisSession session = ingestChunked(
        streamingOptions(PhaseAlgorithm::Dbscan), steps, 4);
    const PartialResult partial = session.partialResult();
    ASSERT_EQ(partial.snapshots.size(), 1u);
    EXPECT_EQ(partial.snapshots[0].algorithm,
              PhaseAlgorithm::Dbscan);
    EXPECT_TRUE(partial.snapshots[0].phases.empty());
    EXPECT_FALSE(partial.snapshots[0].exact);
    EXPECT_EQ(partial.snapshots[0].steps_observed,
              steps.size() - 1);
    const AnalysisResult result = session.finalize();
    EXPECT_FALSE(result.phases.empty());
}

// The reservoir is a pure function of (seed, prefix): a different
// seed is allowed to sample differently, but the same seed must
// reproduce the same snapshot even when the reservoir is far
// smaller than the trace.
TEST(StreamingTest, ReservoirSamplingIsSeedDeterministic)
{
    AnalyzerOptions opts = streamingOptions(PhaseAlgorithm::KMeans);
    opts.streaming_reservoir = 16; // Much smaller than the run.
    const auto steps = testutil::threePhaseRun();

    const AnalysisSession one = ingestChunked(opts, steps, 3);
    const AnalysisSession two = ingestChunked(opts, steps, 11);
    const PartialResult a = one.partialResult();
    const PartialResult b = two.partialResult();
    ASSERT_EQ(a.snapshots.size(), 1u);
    ASSERT_EQ(b.snapshots.size(), 1u);
    EXPECT_TRUE(a.snapshots[0].sampled);
    EXPECT_FALSE(a.snapshots[0].phases.empty());
    expectSameSnapshot(a.snapshots[0], b.snapshots[0]);
}

// Ingest in streaming mode charges the per-detector step-cost
// histogram observability hooks.
TEST(StreamingTest, StreamStepHistogramRecordsFeeds)
{
    obs::MetricsRegistry::global().reset();
    const auto steps = testutil::threePhaseRun();
    AnalysisSession session =
        ingestChunked(streamingOptions(), steps, 1);
    session.finalize();
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::global().snapshot();
    const auto it = snapshot.histograms.find(
        "analyzer.stream_step_us{detector=OLS}");
    ASSERT_NE(it, snapshot.histograms.end());
    EXPECT_GT(it->second.count, 0u);
}

/** A registry-override detector that stamps a marker phase. */
class MarkerDetector final : public PhaseDetector
{
  public:
    PhaseAlgorithm
    algorithm() const override
    {
        return PhaseAlgorithm::KMeans;
    }

    const char *name() const override { return "marker"; }

    bool needsFeatures() const override { return false; }

    void
    observeSteps(const std::vector<StepDelta> &deltas) override
    {
        observed += deltas.size();
    }

    void reset() override { observed = 0; }

    StreamingSnapshot
    snapshot() const override
    {
        StreamingSnapshot out;
        out.algorithm = PhaseAlgorithm::KMeans;
        out.steps_observed = observed;
        StreamingPhase marker;
        marker.id = 424242;
        marker.steps = observed;
        out.phases.push_back(marker);
        return out;
    }

    DetectorResult
    finalize(const StepTable &, const FeatureMatrix *,
             const AnalyzerOptions &, ThreadPool *) override
    {
        DetectorResult out;
        out.algorithm = PhaseAlgorithm::KMeans;
        Phase marker;
        marker.id = 424242;
        out.phases.push_back(marker);
        return out;
    }

  private:
    std::uint64_t observed = 0;
};

// registerDetector interposes on sessions created while the
// override is live — one registration serves both the streaming
// snapshot and finalize, batch sessions included; a null factory
// restores the builtin.
TEST(StreamingTest, RegistryOverrideInterposesAndRestores)
{
    registerDetector(
        PhaseAlgorithm::KMeans, [](const AnalyzerOptions &) {
            return std::make_unique<MarkerDetector>();
        });
    const auto steps = testutil::threePhaseRun();
    {
        AnalysisSession session = ingestChunked(
            streamingOptions(PhaseAlgorithm::KMeans), steps, 8);
        const PartialResult partial = session.partialResult();
        ASSERT_EQ(partial.snapshots.size(), 1u);
        ASSERT_EQ(partial.snapshots[0].phases.size(), 1u);
        EXPECT_EQ(partial.snapshots[0].phases[0].id, 424242);
        const AnalysisResult result = session.finalize();
        ASSERT_EQ(result.phases.size(), 1u);
        EXPECT_EQ(result.phases[0].id, 424242);

        AnalyzerOptions batch_opts;
        batch_opts.algorithm = PhaseAlgorithm::KMeans;
        AnalysisSession batch = ingestChunked(batch_opts, steps, 8);
        const AnalysisResult batch_result = batch.finalize();
        ASSERT_EQ(batch_result.phases.size(), 1u);
        EXPECT_EQ(batch_result.phases[0].id, 424242);
    }
    registerDetector(PhaseAlgorithm::KMeans, nullptr);
    AnalysisSession session = ingestChunked(
        streamingOptions(PhaseAlgorithm::KMeans), steps, 8);
    const PartialResult partial = session.partialResult();
    ASSERT_EQ(partial.snapshots.size(), 1u);
    EXPECT_TRUE(partial.snapshots[0].sampled);
}

/**
 * A seeded random run: segments of 3..14 steps, each drawn from
 * one of four random op-set templates, with jittered spans — so
 * the detectors see recurring phases of uneven length.
 */
std::vector<StepStats>
randomRun(Rng &rng)
{
    const std::vector<std::string> op_pool{
        "fusion", "MatMul", "Reshape", "all-reduce", "Conv2D",
        "InfeedDequeueTuple", "OutfeedEnqueueTuple", "Softmax",
        "BiasAdd", "Transpose"};
    std::vector<std::vector<std::string>> templates(4);
    for (auto &ops : templates) {
        for (const std::string &op : op_pool) {
            if (rng.bernoulli(0.4))
                ops.push_back(op);
        }
    }
    const std::size_t length = 40 + rng.nextBounded(50);
    std::vector<StepStats> steps;
    while (steps.size() < length) {
        const auto &ops = templates[rng.nextBounded(4)];
        const std::size_t run = 3 + rng.nextBounded(12);
        for (std::size_t i = 0; i < run && steps.size() < length;
             ++i) {
            steps.push_back(testutil::makeStep(
                steps.size(), ops, {"RunGraph"},
                (80 + rng.nextBounded(40)) * kUsec));
        }
    }
    return steps;
}

/** @p steps as records of 1..9 steps each, in attempt @p attempt. */
void
appendChunked(Rng &rng, const std::vector<StepStats> &steps,
              std::size_t begin, std::size_t end,
              std::uint32_t attempt, std::vector<ProfileRecord> *out)
{
    while (begin < end) {
        const std::size_t stop =
            std::min(end, begin + 1 + rng.nextBounded(9));
        ProfileRecord record = testutil::makeRecord(
            {steps.begin() + static_cast<std::ptrdiff_t>(begin),
             steps.begin() + static_cast<std::ptrdiff_t>(stop)},
            out->size());
        record.attempt = attempt;
        out->push_back(std::move(record));
        begin = stop;
    }
}

/**
 * Random chunking of @p steps, and in half the cases an attempt
 * stitch: attempt 0 dies at a random step, attempt 1 resumes up to
 * ten steps earlier and replays to the end.
 */
std::vector<ColumnarRecord>
randomRecords(Rng &rng, const std::vector<StepStats> &steps)
{
    std::vector<ProfileRecord> records;
    if (!rng.bernoulli(0.5)) {
        appendChunked(rng, steps, 0, steps.size(), 0, &records);
        return testutil::columnar(records);
    }
    const std::size_t died =
        10 + rng.nextBounded(steps.size() - 15);
    const std::size_t resume = died - rng.nextBounded(11);
    appendChunked(rng, steps, 0, died + 1, 0, &records);
    ProfileRecord boundary;
    boundary.sequence = records.size();
    boundary.attempt = 1;
    boundary.attempt_boundary = true;
    boundary.preempted_at_step = died;
    boundary.resume_step = resume;
    boundary.window_begin = steps[died].end;
    boundary.window_end = steps[died].end;
    records.push_back(boundary);
    appendChunked(rng, steps, resume, steps.size(), 1, &records);
    return testutil::columnar(records);
}

/** Every field of two detector results, doubles bit for bit. */
void
expectIdenticalDetection(const DetectorResult &a,
                         const DetectorResult &b)
{
    expectSameDetection(a, b);
    EXPECT_EQ(a.top3_coverage, b.top3_coverage);
    for (std::size_t i = 0;
         i < std::min(a.phases.size(), b.phases.size()); ++i) {
        EXPECT_EQ(a.phases[i].host_ops.size(),
                  b.phases[i].host_ops.size());
        EXPECT_EQ(a.phases[i].tpu_ops.size(),
                  b.phases[i].tpu_ops.size());
    }
    EXPECT_EQ(a.kmeans.k_values, b.kmeans.k_values);
    EXPECT_EQ(a.kmeans.ssd_curve, b.kmeans.ssd_curve);
    EXPECT_EQ(a.kmeans.elbow_k, b.kmeans.elbow_k);
    EXPECT_EQ(a.kmeans.best.k, b.kmeans.best.k);
    EXPECT_EQ(a.kmeans.best.labels, b.kmeans.best.labels);
    EXPECT_EQ(a.kmeans.best.centroids, b.kmeans.best.centroids);
    EXPECT_EQ(a.kmeans.best.ssd, b.kmeans.best.ssd);
    EXPECT_EQ(a.kmeans.best.iterations, b.kmeans.best.iterations);
    EXPECT_EQ(a.dbscan.min_samples_values,
              b.dbscan.min_samples_values);
    EXPECT_EQ(a.dbscan.noise_curve, b.dbscan.noise_curve);
    EXPECT_EQ(a.dbscan.cluster_counts, b.dbscan.cluster_counts);
    EXPECT_EQ(a.dbscan.elbow_min_samples, b.dbscan.elbow_min_samples);
    EXPECT_EQ(a.dbscan.best.labels, b.dbscan.best.labels);
    EXPECT_EQ(a.dbscan.best.clusters, b.dbscan.best.clusters);
    EXPECT_EQ(a.dbscan.best.noise_points, b.dbscan.best.noise_points);
    EXPECT_EQ(a.dbscan.best.noise_ratio, b.dbscan.best.noise_ratio);
    EXPECT_EQ(a.dbscan.best.eps, b.dbscan.best.eps);
    EXPECT_EQ(a.dbscan.best.min_samples, b.dbscan.best.min_samples);
    for (std::size_t i = 0;
         i < std::min(a.ols_groups.size(), b.ols_groups.size());
         ++i) {
        ASSERT_EQ(a.ols_groups[i].spans.size(),
                  b.ols_groups[i].spans.size());
        for (std::size_t j = 0; j < a.ols_groups[i].spans.size();
             ++j) {
            EXPECT_EQ(a.ols_groups[i].spans[j].first_step,
                      b.ols_groups[i].spans[j].first_step);
            EXPECT_EQ(a.ols_groups[i].spans[j].steps,
                      b.ols_groups[i].spans[j].steps);
        }
    }
}

// Property: over seeded random runs, chunkings and attempt
// stitches, a streamed-then-finalized session, a batch session
// (nothing observed) and a fresh detector finalized with no pool
// all produce the same DetectorResult, for every algorithm and on
// pools of 2 and 8 workers.
TEST(StreamingTest, StreamedFinalizeEqualsBatchProperty)
{
    ThreadPool pool2(2);
    ThreadPool pool8(8);
    Rng rng(0x5354524dULL); // "STRM"
    for (int trial = 0; trial < 10; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        const std::vector<StepStats> steps = randomRun(rng);
        const std::vector<ColumnarRecord> records =
            randomRecords(rng, steps);
        for (const PhaseAlgorithm algorithm :
             {PhaseAlgorithm::OnlineLinearScan,
              PhaseAlgorithm::KMeans, PhaseAlgorithm::Dbscan}) {
            SCOPED_TRACE(phaseAlgorithmName(algorithm));
            AnalyzerOptions batch_opts;
            batch_opts.algorithm = algorithm;
            AnalyzerOptions stream_opts = batch_opts;
            stream_opts.streaming = true;

            // The reference: the batch table, finalized by a
            // fresh detector on no pool at all.
            AnalysisSession reference_session(batch_opts);
            for (const ColumnarRecord &record : records)
                reference_session.ingest(record);
            const AnalysisResult reference_result =
                reference_session.finalize();
            const StepTable &table = reference_result.table;
            ASSERT_GT(table.size(), 0u);
            const FeatureMatrix features =
                FeatureMatrix::build(table, batch_opts.features);
            const DetectorResult reference =
                detectorFor(algorithm)
                    .make(batch_opts)
                    ->finalize(table, &features, batch_opts,
                               nullptr);
            expectIdenticalDetection(
                reference_result.detections[0], reference);

            for (ThreadPool *pool : {&pool2, &pool8}) {
                SCOPED_TRACE("workers " +
                             std::to_string(pool->workers()));
                AnalysisSession batch(batch_opts);
                AnalysisSession streamed(stream_opts);
                for (const ColumnarRecord &record : records) {
                    batch.ingest(record);
                    streamed.ingest(record);
                }
                expectIdenticalDetection(
                    batch.finalize({}, *pool).detections[0],
                    reference);
                expectIdenticalDetection(
                    streamed.finalize({}, *pool).detections[0],
                    reference);
            }
        }
    }
}

} // namespace
} // namespace tpupoint
