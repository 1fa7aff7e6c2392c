/**
 * @file
 * The adjustable parameters TPUPoint-Optimizer discovers and tunes
 * (Section VII-A): "buffer size, the number of threads dedicated to
 * an operation, and the order of operations that can be rearranged
 * while maintaining correctness". In the TensorFlow input pipeline
 * these map onto parallel reads, parallel map calls, prefetch
 * depth, the shuffle buffer, and map/batch fusion.
 */

#ifndef TPUPOINT_OPTIMIZER_PARAMETERS_HH
#define TPUPOINT_OPTIMIZER_PARAMETERS_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "host/dataset.hh"
#include "host/pipeline.hh"
#include "host/spec.hh"

namespace tpupoint {

/** Identity of one tunable pipeline parameter. */
enum class TunableParam
{
    ParallelReads,    ///< Storage streams (thread count).
    ParallelCalls,    ///< Decode/preprocess workers (threads).
    PrefetchDepth,    ///< Prefetch buffer size.
    ShuffleBuffer,    ///< Shuffle buffer size.
    MapAndBatchFusion ///< Operation-order rearrangement.
};

/** All candidate parameters, in tuning priority order. */
std::vector<TunableParam> allTunableParams();

/** Printable parameter name. */
const char *tunableParamName(TunableParam param);

/** Read a parameter's value out of a configuration. */
std::int64_t getParam(const PipelineConfig &config,
                      TunableParam param);

/** Write a parameter's value into a configuration. */
void setParam(PipelineConfig &config, TunableParam param,
              std::int64_t value);

/**
 * The next candidate value in @p direction (+1 up the ladder, -1
 * down), or nullopt at the boundary. Integer parameters move on a
 * power-of-two ladder; the fusion flag toggles (up = fused).
 */
std::optional<std::int64_t>
neighborValue(const PipelineConfig &config, TunableParam param,
              int direction);

/**
 * Whether @p config is executable on this host/dataset. Candidate
 * values that would error (too many threads, shuffle buffer beyond
 * the dataset) are rejected — per the paper, parameters whose
 * alteration causes errors are not treated as adjustable.
 */
bool isValidConfig(const PipelineConfig &config,
                   const DatasetSpec &dataset,
                   const HostSpec &host);

/**
 * Relative improvement a trial must show to be kept (Section VII-B's
 * accept/revert rule, shared by the online tuner and the checkpoint
 * search).
 */
inline constexpr double kMinImprovement = 0.03;

} // namespace tpupoint

#endif // TPUPOINT_OPTIMIZER_PARAMETERS_HH
