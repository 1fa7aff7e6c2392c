/**
 * @file
 * TPUPoint-Optimizer's online tuner (Section VII-B). It watches the
 * profiler's statistical records (decoding the retained payloads as
 * they arrive) until the workload enters its
 * performance-critical phase — detected either by the common
 * pattern of operators (reshape, infeed, fusion, outfeed) topping
 * the current phase, or by the current phase exceeding half of the
 * aggregated execution time — then hill-climbs the adjustable
 * parameters: keep moving a value in a direction while performance
 * improves and output is unchanged, revert otherwise, and finish
 * the run with the best configuration found.
 */

#ifndef TPUPOINT_OPTIMIZER_TUNER_HH
#define TPUPOINT_OPTIMIZER_TUNER_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analyzer/ols.hh"
#include "optimizer/parameters.hh"
#include "optimizer/quality.hh"
#include "profiler/profiler.hh"
#include "runtime/session.hh"
#include "sim/simulator.hh"

namespace tpupoint {

/** One operator of the tuner's running phase, as it is ranked. */
struct PhaseOp
{
    bool tpu = false;
    std::string_view name; ///< Interned (global interner).
    SimTime duration = 0;  ///< Total time in the phase.
};

/**
 * Per-operator time of the tuner's running phase, folded from
 * decoded steps. Entries are keyed by interned name, not id, so
 * each side iterates in name order: the order top() breaks
 * duration ties in.
 */
class PhaseOpTimes
{
  public:
    /** Fold one step's id-sorted host and TPU entries in. */
    void add(OpStatsSpan host, OpStatsSpan tpu);

    void
    clear()
    {
        host.clear();
        tpu.clear();
    }

    /**
     * The @p n longest operators: TPU entries then host entries,
     * each side in name order, put through std::sort by duration
     * descending. That sort is not stable, so ties resolve by
     * this input order, which the Figure 14-16 goldens pin.
     */
    std::vector<PhaseOp> top(std::size_t n) const;

  private:
    std::map<std::string_view, SimTime> host, tpu;
};

/**
 * The online tuner. Owns no threads: everything runs on simulator
 * events and the session's step callback.
 */
class OnlineTuner
{
  public:
    /** What the tuner did, for reporting and tests. */
    struct Report
    {
        PipelineConfig initial_config;
        PipelineConfig best_config;
        bool critical_phase_detected = false;
        SimTime critical_detected_at = 0;
        std::uint64_t trials = 0;
        std::uint64_t accepted = 0;
        bool finished = false;
        std::vector<std::string> log;
    };

    OnlineTuner(Simulator &simulator, TrainingSession &session,
                TpuPointProfiler &profiler,
                const std::vector<TunableParam> &adjustable);

    /** Install callbacks and begin watching for the critical
     * phase. */
    void start();

    /** Detach (no further changes are applied). */
    void stop();

    /** Tuning report so far. */
    const Report &report() const { return status; }

  private:
    enum class State
    {
        WaitCritical,
        Settle,
        Measure,
        Done,
    };

    void pollRecords();
    void onStep(StepId step, SimTime step_time);
    void beginWindow(bool is_baseline);
    void windowComplete(double window_time);
    bool advanceToNextCandidate();
    void applyCandidate();
    void note(std::string message);

    Simulator &sim;
    TrainingSession &session;
    TpuPointProfiler &profiler;
    std::vector<TunableParam> params;
    OutputQualityGuard guard;

    // Phase tracking: OLS's neighbour comparison over the decoded
    // payloads, one step's keys held back by swap.
    ColumnarDecoder decoder;
    ColumnarRecord record;
    std::size_t records_seen = 0;
    SimTime observed_time = 0;
    SimTime current_phase_time = 0;
    std::vector<std::uint64_t> step_keys;
    std::vector<std::uint64_t> prev_keys;
    bool have_prev_step = false;
    PhaseOpTimes phase_ops;

    // Hill climbing.
    State state = State::WaitCritical;
    bool measuring_baseline = true;
    double best_window_time = 0.0;
    std::size_t param_index = 0;
    int direction = +1;
    std::uint64_t steps_in_state = 0;
    double window_accum = 0.0;
    EventId poll_event = 0;
    PipelineConfig pending_config;
    TunableParam pending_param = TunableParam::ParallelCalls;
    std::int64_t pending_value = 0;

    Report status;
};

} // namespace tpupoint

#endif // TPUPOINT_OPTIMIZER_TUNER_HH
