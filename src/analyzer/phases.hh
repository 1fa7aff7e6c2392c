/**
 * @file
 * Program phases: the unit TPUPoint-Analyzer summarizes runs into.
 * Construction from cluster labels (k-means / DBSCAN) or from OLS
 * spans, plus the metrics the paper reports per phase: execution
 * coverage of the top phases (Figures 7-9) and the top-5 most
 * time-consuming operators of the longest phase (Table II).
 */

#ifndef TPUPOINT_ANALYZER_PHASES_HH
#define TPUPOINT_ANALYZER_PHASES_HH

#include <string>
#include <vector>

#include "analyzer/ols.hh"
#include "analyzer/step_table.hh"
#include "proto/record.hh"

namespace tpupoint {

/** One program phase. */
struct Phase
{
    int id = 0;
    std::vector<std::size_t> members; ///< Step-table indices.
    StepId first_step = 0;
    StepId last_step = 0;
    SimTime total_duration = 0;       ///< Sum of member spans.
    OpStatsMap host_ops;              ///< Aggregated over members.
    OpStatsMap tpu_ops;
    bool is_noise = false; ///< DBSCAN's unlabeled pseudo-cluster.

    /** Steps in the phase. */
    std::size_t size() const { return members.size(); }
};

/**
 * Build phases from per-step cluster labels. Noise points (label
 * < 0) form one pseudo-phase — the paper treats DBSCAN's unlabeled
 * samples "to be a cluster as well".
 */
std::vector<Phase> phasesFromLabels(const StepTable &table,
                                    const std::vector<int> &labels);

/** Build phases from OLS phase groups (recurring spans merged). */
std::vector<Phase> phasesFromGroups(
    const StepTable &table,
    const std::vector<OnlineLinearScan::Group> &groups);

/** Pointers to phases sorted by descending total duration. */
std::vector<const Phase *>
phasesByDuration(const std::vector<Phase> &phases);

/**
 * Fraction of total execution time covered by the @p top_n longest
 * phases (Observation 2: the 3 longest cover most of it).
 */
double topPhaseCoverage(const std::vector<Phase> &phases,
                        std::size_t top_n);

/** The longest phase, or nullptr when empty. */
const Phase *longestPhase(const std::vector<Phase> &phases);

/** One operator in a top-N ranking. */
struct RankedOp
{
    std::string name;
    SimTime total_duration = 0;
    std::uint64_t count = 0;
    double share = 0.0; ///< Fraction of the map's total duration.
};

/** The @p n most time-consuming operators of @p ops. */
std::vector<RankedOp> topOps(const OpStatsMap &ops, std::size_t n);

} // namespace tpupoint

#endif // TPUPOINT_ANALYZER_PHASES_HH
