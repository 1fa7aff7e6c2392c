/**
 * @file
 * Ablation: analysis-algorithm cost. Section VI-B notes that
 * k-means and DBSCAN "reach memory limitations for larger
 * workloads such as RetinaNet and ResNet", while OLS competes with
 * SimPoint-style clustering at a fraction of the cost. This
 * google-benchmark binary measures wall time of the three
 * algorithms against growing step counts and reports the resident
 * working set each needs (every step's feature vector for
 * k-means/DBSCAN, plus DBSCAN's steps^2/8-byte eps-neighbourhood
 * graph, versus three step records for OLS).
 */

#include <benchmark/benchmark.h>

#include <cstdint>

#include "analyzer/dbscan.hh"
#include "analyzer/features.hh"
#include "analyzer/kmeans.hh"
#include "analyzer/ols.hh"
#include "analyzer/step_table.hh"
#include "bench/common.hh"

using namespace tpupoint;

namespace {

/** Profile DCGAN once and reuse the records for every benchmark. */
const std::vector<std::string> &
cachedPayloads()
{
    static const std::vector<std::string> payloads = [] {
        const RuntimeWorkload w =
            benchutil::buildScaled(WorkloadId::DcganCifar10);
        return benchutil::profiledRun(w, TpuGeneration::V2)
            .payloads;
    }();
    return payloads;
}

/** A step table truncated to the first @p steps steps. */
StepTable
truncatedTable(std::size_t steps)
{
    StepTableBuilder builder;
    benchutil::ingestPayloads(builder, cachedPayloads());
    if (steps > 0 && steps < builder.stepsAggregated())
        builder.dropAfter(builder.rows().stepId(steps - 1));
    return std::move(builder).build();
}

void
BM_KMeansSweep(benchmark::State &state)
{
    const StepTable table =
        truncatedTable(static_cast<std::size_t>(state.range(0)));
    const FeatureMatrix features = FeatureMatrix::build(table);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            kMeansSweep(features.matrix(), 1, 15));
    }
    state.counters["working_set_bytes"] = static_cast<double>(
        features.matrix().rows() * features.dimensions() *
        sizeof(double));
}

void
BM_DbscanSweep(benchmark::State &state)
{
    const StepTable table =
        truncatedTable(static_cast<std::size_t>(state.range(0)));
    const FeatureMatrix features = FeatureMatrix::build(table);
    for (auto _ : state) {
        benchmark::DoNotOptimize(dbscanSweep(features.matrix()));
    }
    // Feature vectors plus the sweep's shared eps-neighbourhood
    // graph: one bit per pair of steps, rows padded to 64-bit words.
    const std::size_t steps = features.matrix().rows();
    state.counters["working_set_bytes"] = static_cast<double>(
        steps * features.dimensions() * sizeof(double) +
        steps * ((steps + 63) / 64) * sizeof(std::uint64_t));
}

void
BM_OnlineLinearScan(benchmark::State &state)
{
    const StepTable table =
        truncatedTable(static_cast<std::size_t>(state.range(0)));
    std::size_t peak = 0;
    for (auto _ : state) {
        OnlineLinearScan ols;
        for (std::size_t i = 0; i < table.size(); ++i)
            ols.addStep(table.stepId(i), table.span(i),
                        table.hostOps(i), table.tpuOps(i));
        ols.finish();
        peak = ols.peakStepsHeld();
        benchmark::DoNotOptimize(ols.phases().size());
    }
    // OLS holds three step records regardless of run length.
    state.counters["working_set_steps"] =
        static_cast<double>(peak);
}

} // namespace

BENCHMARK(BM_KMeansSweep)->Arg(64)->Arg(128)->Arg(256)->Arg(512);
BENCHMARK(BM_DbscanSweep)->Arg(64)->Arg(128)->Arg(256)->Arg(512);
BENCHMARK(BM_OnlineLinearScan)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512);

BENCHMARK_MAIN();
