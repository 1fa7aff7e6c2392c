/**
 * @file
 * Figure 4: k-means clustering results — the sum of squared
 * distances of step samples to their centroids for k = 1..15, per
 * workload. The paper finds the SSD stops improving significantly
 * at k = 4..6.
 *
 * The per-k clusterings fan out on a shared ThreadPool (sized by
 * `--threads N`, TPUPOINT_THREADS, or hardware concurrency); the
 * sweep is bit-identical to the serial path for any thread count.
 * The bench also times the ResNet-scale elbow sweep serial vs
 * parallel and reports the speedup as JSON figures.
 */

#include <chrono>
#include <cstdio>

#include "analyzer/features.hh"
#include "analyzer/kmeans.hh"
#include "analyzer/step_table.hh"
#include "bench/common.hh"
#include "core/strings.hh"
#include "core/thread_pool.hh"
#include "obs/pool_metrics.hh"

using namespace tpupoint;

namespace {

/** Exact (bitwise-value) equality of two sweep results. */
bool
sweepsIdentical(const KMeansSweep &a, const KMeansSweep &b)
{
    if (a.k_values != b.k_values || a.ssd_curve != b.ssd_curve ||
        a.elbow_k != b.elbow_k ||
        a.best.labels != b.best.labels ||
        a.best.iterations != b.best.iterations ||
        a.best.ssd != b.best.ssd ||
        a.best.centroids.size() != b.best.centroids.size())
        return false;
    for (std::size_t i = 0; i < a.best.centroids.size(); ++i)
        if (a.best.centroids[i] != b.best.centroids[i])
            return false;
    return true;
}

double
timedSweep(const Matrix &points, ThreadPool *pool, KMeansSweep *out)
{
    const auto begin = std::chrono::steady_clock::now();
    *out = kMeansSweep(points, 1, 15,
                       /*seed=*/0x6b6d65616e73ULL, pool);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - begin)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::BenchReport report("fig04_kmeans_elbow", argc,
                                  argv);
    benchutil::banner("Figure 4: k-means SSD vs k (1..15)",
                      "Figure 4 + Section VI-A");

    const unsigned workers =
        obs::resolveThreadCount(benchutil::sweepThreads());
    ThreadPoolOptions pool_options;
    pool_options.workers = workers;
    ThreadPool pool(pool_options);

    std::printf("%-16s", "k =");
    for (int k = 1; k <= 15; ++k)
        std::printf(" %7d", k);
    std::printf("   elbow\n");

    // The ResNet-scale feature matrix is kept for the timing
    // section below — it is the largest step table in the sweep.
    Matrix resnet_points;
    for (const WorkloadId id : allWorkloads()) {
        const RuntimeWorkload w = benchutil::buildScaled(id);
        const auto run =
            benchutil::profiledRun(w, TpuGeneration::V2);
        const StepTable table =
            benchutil::stepTable(run.payloads);
        const FeatureMatrix features = FeatureMatrix::build(table);
        const KMeansSweep sweep = kMeansSweep(
            features.matrix(), 1, 15,
            /*seed=*/0x6b6d65616e73ULL, &pool);
        if (id == WorkloadId::ResnetImagenet)
            resnet_points = features.matrix();

        // Normalize to k=1 so the curves are comparable.
        const double base = sweep.ssd_curve.front() > 0
            ? sweep.ssd_curve.front() : 1.0;
        std::printf("%-16s", workloadName(id));
        for (const double ssd : sweep.ssd_curve)
            std::printf(" %7.4f", ssd / base);
        std::printf("   k=%d\n", sweep.elbow_k);
        report.figure(std::string(workloadName(id)) + "_elbow_k",
                      sweep.elbow_k);
    }
    std::printf("\nPaper: the SSD elbow lands at k = 4..6 for the "
                "studied workloads.\n");

    // Serial vs parallel elbow sweep on the ResNet-scale trace:
    // same seed, same slots, so the results must match bit for
    // bit whatever the thread count.
    KMeansSweep serial_sweep, parallel_sweep;
    const double serial_ms =
        timedSweep(resnet_points, nullptr, &serial_sweep);
    const double parallel_ms =
        timedSweep(resnet_points, &pool, &parallel_sweep);
    const bool identical =
        sweepsIdentical(serial_sweep, parallel_sweep);
    const double speedup =
        parallel_ms > 0 ? serial_ms / parallel_ms : 0.0;
    std::printf("\nresnet elbow sweep (%zu steps): serial "
                "%.1fms, %u threads %.1fms (%.2fx), results "
                "%s\n",
                resnet_points.rows(), serial_ms, workers,
                parallel_ms, speedup,
                identical ? "bit-identical" : "DIFFER");
    report.figure("elbow_serial_ms", serial_ms);
    report.figure("elbow_parallel_ms", parallel_ms);
    report.figure("elbow_speedup", speedup);
    report.figure("elbow_identical", identical ? 1 : 0);
    return report.write() && identical ? 0 : 1;
}
