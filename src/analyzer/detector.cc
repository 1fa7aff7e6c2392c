#include "analyzer/detector.hh"

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <utility>

#include "core/logging.hh"
#include "core/rng.hh"

namespace tpupoint {

namespace {

/** The k-means sweep range (Section IV-A: k = 1..15). */
constexpr int kKMin = 1;
constexpr int kKMax = 15;

/** Top-3 coverage over snapshot phases: 3 largest durations /
 * total duration (the streaming analogue of topPhaseCoverage). */
double
snapshotCoverage(const std::vector<StreamingPhase> &phases)
{
    SimTime total = 0;
    std::vector<SimTime> durations;
    durations.reserve(phases.size());
    for (const StreamingPhase &phase : phases) {
        total += phase.duration;
        durations.push_back(phase.duration);
    }
    if (total == 0)
        return 0.0;
    std::sort(durations.begin(), durations.end(),
              std::greater<SimTime>());
    SimTime top = 0;
    for (std::size_t i = 0; i < durations.size() && i < 3; ++i)
        top += durations[i];
    return static_cast<double>(top) / static_cast<double>(total);
}

/**
 * Online linear scan over the step stream (Equation 1). The scan
 * folds one step at a time and stays alive between observeSteps()
 * calls: O(1) amortized per step (one Equation 1 merge against the
 * previous signature, one group match per boundary). finalize()
 * folds whatever rows it has not observed — every row for a batch
 * session — and finishes the scan, so streamed and batch sessions
 * run the identical fold sequence: same spans, groups and phases,
 * bit for bit. OLS is inherently sequential, so there is nothing
 * to fan out.
 */
class LinearScanDetector final : public PhaseDetector
{
  public:
    explicit LinearScanDetector(const AnalyzerOptions &options)
        : threshold(options.ols_threshold),
          ols(OlsOptions{options.ols_threshold})
    {
    }

    PhaseAlgorithm algorithm() const override
    {
        return PhaseAlgorithm::OnlineLinearScan;
    }

    const char *name() const override
    {
        return phaseAlgorithmName(
            PhaseAlgorithm::OnlineLinearScan);
    }

    bool needsFeatures() const override { return false; }

    void
    observeSteps(const std::vector<StepDelta> &deltas) override
    {
        for (const StepDelta &delta : deltas) {
            ols.addStep(delta.step, delta.span, delta.host,
                        delta.tpu);
            ++observed;
        }
    }

    void
    reset() override
    {
        ols = OnlineLinearScan(OlsOptions{threshold});
        observed = 0;
    }

    StreamingSnapshot
    snapshot() const override
    {
        StreamingSnapshot out;
        out.algorithm = PhaseAlgorithm::OnlineLinearScan;
        out.steps_observed = observed;
        out.exact = true;
        out.sampled = false;
        const auto peeks = ols.peekPhases();
        out.phases.reserve(peeks.size());
        int id = 0;
        for (const auto &peek : peeks) {
            StreamingPhase phase;
            phase.id = id++;
            phase.first_step = peek.first_step;
            phase.last_step = peek.last_step;
            phase.steps = peek.steps;
            phase.duration = peek.duration;
            out.phases.push_back(phase);
        }
        out.top3_coverage = snapshotCoverage(out.phases);
        return out;
    }

    DetectorResult
    finalize(const StepTable &table, const FeatureMatrix *,
             const AnalyzerOptions &, ThreadPool *) override
    {
        // A streaming session fed every row (settle_all) before
        // building the table, so this loop is empty there; a
        // batch session folds the whole table here, straight off
        // its interned operator keys.
        for (std::size_t i = observed; i < table.size(); ++i) {
            ols.addStep(table.stepId(i), table.span(i),
                        table.hostOps(i), table.tpuOps(i));
            ++observed;
        }
        ols.finish();
        DetectorResult out;
        out.algorithm = PhaseAlgorithm::OnlineLinearScan;
        out.ols_spans = ols.spans();
        out.ols_groups = ols.phases();
        out.phases = phasesFromGroups(table, out.ols_groups);
        out.top3_coverage = topPhaseCoverage(out.phases, 3);
        return out;
    }

  private:
    double threshold;
    OnlineLinearScan ols;
    std::uint64_t observed = 0;
};

/**
 * Mini-batch k-means over a deterministic reservoir sample.
 * observeSteps() maintains Algorithm R with the per-index decision
 * drawn from SplitMix64(seed ^ index), so the reservoir is a pure
 * function of (seed, settled prefix length) — any chunking of the
 * same prefix lands on the same sample. snapshot() clusters the
 * sample (dense matrix over the ops present in it, normalized by
 * the per-dimension maxima over *all* observed steps, no PCA) with
 * the sweep machinery, so its cost is bounded by the reservoir
 * capacity, never the trace. finalize() is Section IV-A stages 2-3
 * over the full table: k-means over the shared features + elbow,
 * independent of the reservoir.
 */
class KMeansDetector final : public PhaseDetector
{
  public:
    explicit KMeansDetector(const AnalyzerOptions &options)
        : opts(options),
          capacity(std::max<std::size_t>(
              1, options.streaming_reservoir))
    {
    }

    PhaseAlgorithm algorithm() const override
    {
        return PhaseAlgorithm::KMeans;
    }

    const char *name() const override
    {
        return phaseAlgorithmName(PhaseAlgorithm::KMeans);
    }

    bool needsFeatures() const override { return true; }

    void
    observeSteps(const std::vector<StepDelta> &deltas) override
    {
        for (const StepDelta &delta : deltas) {
            foldMaxima(delta.host, /*side=*/0);
            foldMaxima(delta.tpu, /*side=*/1);

            const std::uint64_t index = items_seen++;
            if (sample.size() < capacity) {
                sample.push_back(copyRow(delta));
                continue;
            }
            // Algorithm R: replace a random slot with probability
            // capacity / (index + 1). The draw depends only on
            // (seed, index), never on arrival pattern.
            SplitMix64 mixer(opts.seed ^ (index + 1));
            const std::uint64_t j = mixer.next() % (index + 1);
            if (j < capacity)
                sample[static_cast<std::size_t>(j)] =
                    copyRow(delta);
        }
    }

    void
    reset() override
    {
        sample.clear();
        maxima.clear();
        items_seen = 0;
    }

    StreamingSnapshot
    snapshot() const override
    {
        StreamingSnapshot out;
        out.algorithm = PhaseAlgorithm::KMeans;
        out.steps_observed = items_seen;
        out.exact = false;
        out.sampled = true;
        if (sample.empty())
            return out;

        // Canonical row order: the reservoir holds slots in
        // replacement order; sort by step so the matrix (and the
        // labels it yields) depend only on the sample *contents*.
        std::vector<const SampleRow *> rows;
        rows.reserve(sample.size());
        for (const SampleRow &row : sample)
            rows.push_back(&row);
        std::sort(rows.begin(), rows.end(),
                  [](const SampleRow *a, const SampleRow *b) {
                      return a->step < b->step;
                  });

        const std::vector<int> labels = clusterSample(rows);

        // Aggregate the labelled sample rows into phases, cluster
        // ids ascending (empty clusters skipped).
        std::map<int, StreamingPhase> by_label;
        for (std::size_t r = 0; r < rows.size(); ++r) {
            const int label = labels[r];
            auto [it, fresh] =
                by_label.try_emplace(label, StreamingPhase{});
            StreamingPhase &phase = it->second;
            if (fresh) {
                phase.id = label;
                phase.first_step = rows[r]->step;
            }
            phase.last_step = rows[r]->step;
            ++phase.steps;
            phase.duration += rows[r]->span;
        }
        out.phases.reserve(by_label.size());
        for (auto &[label, phase] : by_label)
            out.phases.push_back(phase);
        out.top3_coverage = snapshotCoverage(out.phases);
        return out;
    }

    DetectorResult
    finalize(const StepTable &table, const FeatureMatrix *features,
             const AnalyzerOptions &options,
             ThreadPool *pool) override
    {
        if (features == nullptr)
            panic("k-means detector invoked without features");
        DetectorResult out;
        out.algorithm = PhaseAlgorithm::KMeans;
        if (options.kmeans_fixed_k > 0) {
            Rng rng(options.seed);
            out.kmeans.best = kMeansCluster(
                features->matrix(), options.kmeans_fixed_k, rng);
            out.kmeans.elbow_k = options.kmeans_fixed_k;
            out.kmeans.k_values = {options.kmeans_fixed_k};
            out.kmeans.ssd_curve = {out.kmeans.best.ssd};
        } else {
            out.kmeans = kMeansSweep(features->matrix(), kKMin, kKMax,
                                     options.seed, pool);
        }
        out.phases =
            phasesFromLabels(table, out.kmeans.best.labels);
        out.top3_coverage = topPhaseCoverage(out.phases, 3);
        return out;
    }

  private:
    /** One sampled step, op entries copied out of the delta. */
    struct SampleRow
    {
        StepId step = 0;
        SimTime span = 0;
        std::vector<ColumnarOpStats> host, tpu;
    };

    /** Per-dimension normalization state, over all observed rows. */
    struct MaxVals
    {
        std::uint64_t count = 0;
        SimTime duration = 0;
    };

    static SampleRow
    copyRow(const StepDelta &delta)
    {
        SampleRow row;
        row.step = delta.step;
        row.span = delta.span;
        row.host.assign(delta.host.begin(), delta.host.end());
        row.tpu.assign(delta.tpu.begin(), delta.tpu.end());
        return row;
    }

    void
    foldMaxima(OpStatsSpan entries, std::uint64_t side)
    {
        for (const ColumnarOpStats &entry : entries) {
            const std::uint64_t key =
                (static_cast<std::uint64_t>(entry.op) << 1) | side;
            MaxVals &vals = maxima[key];
            vals.count = std::max(vals.count, entry.count);
            vals.duration =
                std::max(vals.duration, entry.total_duration);
        }
    }

    /** Cluster the sorted sample; one label per row. */
    std::vector<int>
    clusterSample(const std::vector<const SampleRow *> &rows) const
    {
        // Feature dimensions: the ops present in the sample, key
        // order (global maxima normalize them so snapshots don't
        // jump when an op's biggest step leaves the reservoir).
        std::vector<std::uint64_t> keys;
        for (const SampleRow *row : rows) {
            for (const ColumnarOpStats &entry : row->host)
                keys.push_back(
                    static_cast<std::uint64_t>(entry.op) << 1);
            for (const ColumnarOpStats &entry : row->tpu)
                keys.push_back(
                    (static_cast<std::uint64_t>(entry.op) << 1) |
                    1);
        }
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()),
                   keys.end());

        if (keys.empty())
            return std::vector<int>(rows.size(), 0);

        // Two dims per op, as FeatureMatrix: count, then duration.
        Matrix matrix(rows.size(), keys.size() * 2);
        for (std::size_t r = 0; r < rows.size(); ++r)
            fillRow(matrix, r, *rows[r], keys);

        if (opts.kmeans_fixed_k > 0) {
            Rng rng(opts.seed);
            return kMeansCluster(matrix, opts.kmeans_fixed_k, rng)
                .labels;
        }
        // Snapshots run inline (pool nullptr): bounded work, and
        // the serve poll loop must not stall its ingest pool.
        return kMeansSweep(matrix, kKMin, kKMax, opts.seed, nullptr)
            .best.labels;
    }

    void
    fillRow(Matrix &matrix, std::size_t r, const SampleRow &row,
            const std::vector<std::uint64_t> &keys) const
    {
        const auto fold = [&](OpStatsSpan entries,
                              std::uint64_t side) {
            for (const ColumnarOpStats &entry : entries) {
                const std::uint64_t key =
                    (static_cast<std::uint64_t>(entry.op) << 1) |
                    side;
                const auto it = std::lower_bound(keys.begin(),
                                                 keys.end(), key);
                const std::size_t col =
                    static_cast<std::size_t>(it - keys.begin()) * 2;
                const auto max_it = maxima.find(key);
                const MaxVals vals = max_it == maxima.end()
                    ? MaxVals{}
                    : max_it->second;
                double count = static_cast<double>(entry.count);
                if (vals.count > 0)
                    count /= static_cast<double>(vals.count);
                double duration =
                    static_cast<double>(entry.total_duration);
                if (vals.duration > 0)
                    duration /= static_cast<double>(vals.duration);
                matrix.at(r, col) = count;
                matrix.at(r, col + 1) = duration;
            }
        };
        fold(row.host, 0);
        fold(row.tpu, 1);
    }

    AnalyzerOptions opts;
    std::size_t capacity;
    std::vector<SampleRow> sample;
    std::map<std::uint64_t, MaxVals> maxima;
    std::uint64_t items_seen = 0;
};

/**
 * DBSCAN with the min-samples sweep (Figure 5). Its neighbourhood
 * queries want the whole matrix, so mid-stream it only counts the
 * steps it was shown and reports empty, inexact snapshots (never a
 * wrong answer); finalize() clusters the full table.
 */
class DbscanDetector final : public PhaseDetector
{
  public:
    PhaseAlgorithm algorithm() const override
    {
        return PhaseAlgorithm::Dbscan;
    }

    const char *name() const override
    {
        return phaseAlgorithmName(PhaseAlgorithm::Dbscan);
    }

    bool needsFeatures() const override { return true; }

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
        out.algorithm = PhaseAlgorithm::Dbscan;
        out.steps_observed = observed;
        out.exact = false;
        out.sampled = false;
        return out;
    }

    DetectorResult
    finalize(const StepTable &table, const FeatureMatrix *features,
             const AnalyzerOptions &options,
             ThreadPool *pool) override
    {
        if (features == nullptr)
            panic("DBSCAN detector invoked without features");
        DetectorResult out;
        out.algorithm = PhaseAlgorithm::Dbscan;
        if (options.dbscan_fixed_min_samples > 0) {
            const double eps = suggestEps(features->matrix(), pool);
            out.dbscan.best = dbscanCluster(
                features->matrix(), eps,
                options.dbscan_fixed_min_samples, pool);
            out.dbscan.elbow_min_samples =
                options.dbscan_fixed_min_samples;
            out.dbscan.min_samples_values = {
                options.dbscan_fixed_min_samples};
            out.dbscan.noise_curve = {
                out.dbscan.best.noise_ratio};
            out.dbscan.cluster_counts = {
                out.dbscan.best.clusters};
        } else {
            // eps 0: derived from the data (Section IV-A).
            out.dbscan = dbscanSweep(features->matrix(), 0.0, 5, 180,
                                     25, pool);
        }
        out.phases =
            phasesFromLabels(table, out.dbscan.best.labels);
        out.top3_coverage = topPhaseCoverage(out.phases, 3);
        return out;
    }

  private:
    std::uint64_t observed = 0;
};

/** What the registry starts with for @p algorithm. */
DetectorFactory
builtinFactory(PhaseAlgorithm algorithm)
{
    switch (algorithm) {
      case PhaseAlgorithm::KMeans:
        return [](const AnalyzerOptions &options) {
            return std::make_unique<KMeansDetector>(options);
        };
      case PhaseAlgorithm::Dbscan:
        return [](const AnalyzerOptions &) {
            return std::make_unique<DbscanDetector>();
        };
      case PhaseAlgorithm::OnlineLinearScan:
        return [](const AnalyzerOptions &options) {
            return std::make_unique<LinearScanDetector>(options);
        };
    }
    panic("builtinFactory: unknown algorithm");
}

DetectorEntry
makeEntry(PhaseAlgorithm algorithm, DetectorFactory factory)
{
    DetectorEntry entry;
    entry.factory =
        factory ? std::move(factory) : builtinFactory(algorithm);
    entry.prototype = entry.factory(AnalyzerOptions{});
    if (!entry.prototype || entry.prototype->algorithm() != algorithm)
        panic("registerDetector: factory for ",
              phaseAlgorithmName(algorithm),
              " made a detector for another algorithm");
    return entry;
}

struct DetectorRegistry
{
    std::mutex guard;
    /** Indexed by PhaseAlgorithm. */
    std::array<DetectorEntry, 3> entries;
};

DetectorRegistry &
registry()
{
    // Function-local static: thread-safe one-time construction
    // with the builtins pre-registered; leaked deliberately so
    // detectors outlive any static destructor ordering.
    static DetectorRegistry *instance = [] {
        auto *reg = new DetectorRegistry;
        for (const PhaseAlgorithm algorithm :
             {PhaseAlgorithm::KMeans, PhaseAlgorithm::Dbscan,
              PhaseAlgorithm::OnlineLinearScan})
            reg->entries[static_cast<std::size_t>(algorithm)] =
                makeEntry(algorithm, nullptr);
        return reg;
    }();
    return *instance;
}

} // namespace

const DetectorEntry &
detectorFor(PhaseAlgorithm algorithm)
{
    DetectorRegistry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.guard);
    return reg.entries.at(static_cast<std::size_t>(algorithm));
}

void
registerDetector(PhaseAlgorithm algorithm, DetectorFactory factory)
{
    // Build outside the lock: the prototype is a user detector.
    DetectorEntry entry = makeEntry(algorithm, std::move(factory));
    DetectorRegistry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.guard);
    reg.entries.at(static_cast<std::size_t>(algorithm)) =
        std::move(entry);
}

} // namespace tpupoint
