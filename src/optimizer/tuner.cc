#include "optimizer/tuner.hh"

#include <algorithm>

#include "core/interner.hh"
#include "core/logging.hh"
#include "core/strings.hh"

namespace tpupoint {

namespace {

// The hill-climbing policy of Section VII-B.

/** Steps skipped after applying a change before measuring. */
constexpr std::uint64_t kSettleSteps = 5;

/** Steps in one measurement window. */
constexpr std::uint64_t kWindowSteps = 30;

/** Phase share that marks the performance-critical phase. */
constexpr double kCriticalShare = 0.5;

/** How often the tuner polls the profiler's records. */
constexpr SimTime kPollInterval = 500 * kMsec;

/** OLS threshold for the tuner's phase tracking. */
constexpr double kOlsThreshold = 0.70;

/** The common operator pattern of Section VI (Observations 3-4). */
bool
matchesCommonPattern(const PhaseOpTimes &phase)
{
    static const PhaseOp pattern[] = {
        {true, "fusion"}, {true, "Reshape"}, {true, "Infeed"},
        {true, "InfeedDequeueTuple"}, {true, "Outfeed"},
        {false, "OutfeedDequeueTuple"},
        {false, "TransferBufferToInfeedLocked"},
    };
    int hits = 0;
    for (const PhaseOp &op : phase.top(5)) {
        for (const PhaseOp &candidate : pattern) {
            if (op.tpu == candidate.tpu &&
                op.name == candidate.name) {
                ++hits;
                break;
            }
        }
    }
    return hits >= 2;
}

} // namespace

void
PhaseOpTimes::add(OpStatsSpan host_ops, OpStatsSpan tpu_ops)
{
    const StringInterner &interner = StringInterner::global();
    for (const ColumnarOpStats &entry : host_ops)
        host[interner.view(entry.op)] += entry.total_duration;
    for (const ColumnarOpStats &entry : tpu_ops)
        tpu[interner.view(entry.op)] += entry.total_duration;
}

std::vector<PhaseOp>
PhaseOpTimes::top(std::size_t n) const
{
    std::vector<PhaseOp> ranked;
    ranked.reserve(tpu.size() + host.size());
    for (const auto &[name, duration] : tpu)
        ranked.push_back({true, name, duration});
    for (const auto &[name, duration] : host)
        ranked.push_back({false, name, duration});
    std::sort(ranked.begin(), ranked.end(),
              [](const PhaseOp &a, const PhaseOp &b) {
                  return a.duration > b.duration;
              });
    if (ranked.size() > n)
        ranked.resize(n);
    return ranked;
}

OnlineTuner::OnlineTuner(Simulator &simulator,
                         TrainingSession &session_ref,
                         TpuPointProfiler &profiler_ref,
                         const std::vector<TunableParam> &adjustable)
    : sim(simulator), session(session_ref), profiler(profiler_ref),
      params(adjustable)
{
    status.initial_config = session.pipeline().config();
    status.best_config = status.initial_config;
}

void
OnlineTuner::note(std::string message)
{
    status.log.push_back("[" + formatDuration(sim.now()) + "] " +
                         std::move(message));
}

void
OnlineTuner::start()
{
    session.setStepCallback(
        [this](StepId step, SimTime step_time) {
            onStep(step, step_time);
        });
    poll_event = sim.schedule(kPollInterval, [this]() { pollRecords(); });
    note("tuner armed: waiting for the performance-critical phase");
}

void
OnlineTuner::stop()
{
    if (poll_event) {
        sim.cancel(poll_event);
        poll_event = 0;
    }
    session.setStepCallback(nullptr);
    // A trial may still be in flight when the program ends; the
    // best known configuration is what the program keeps.
    if (state != State::Done && !measuring_baseline &&
        status.critical_phase_detected) {
        session.pipeline().setConfig(status.best_config);
    }
}

void
OnlineTuner::pollRecords()
{
    poll_event = 0;
    const auto &payloads = profiler.payloads();

    // Track phases over newly arrived records.
    for (; records_seen < payloads.size(); ++records_seen) {
        if (!decoder.decode(payloads[records_seen], record,
                            StringInterner::global()))
            panic("OnlineTuner: harvested payload does not decode");
        for (std::size_t i = 0; i < record.stepCount(); ++i) {
            const SimTime span = record.stepSpan(i);
            observed_time += span;

            step_keys.clear();
            OnlineLinearScan::stepKeys(record.hostOps(i),
                                       record.tpuOps(i), step_keys);
            if (have_prev_step &&
                OnlineLinearScan::keySimilarity(prev_keys, step_keys) <
                    kOlsThreshold) {
                // Phase boundary: reset the running phase.
                current_phase_time = 0;
                phase_ops.clear();
            }
            current_phase_time += span;
            phase_ops.add(record.hostOps(i), record.tpuOps(i));
            std::swap(prev_keys, step_keys);
            have_prev_step = true;

            if (state == State::WaitCritical) {
                const bool dominant = observed_time > 0 &&
                    static_cast<double>(current_phase_time) /
                        static_cast<double>(observed_time) >
                        kCriticalShare;
                const bool pattern = matchesCommonPattern(phase_ops);
                if (dominant || pattern) {
                    status.critical_phase_detected = true;
                    status.critical_detected_at = sim.now();
                    note(std::string("performance-critical phase "
                                     "detected (") +
                         (dominant ? "dominant share"
                                   : "common operator pattern") +
                         "); tuning begins");
                    beginWindow(true);
                }
            }
        }
    }

    if (state != State::Done && !session.finished()) {
        poll_event =
            sim.schedule(kPollInterval, [this]() { pollRecords(); });
    }
}

void
OnlineTuner::beginWindow(bool is_baseline)
{
    measuring_baseline = is_baseline;
    state = State::Settle;
    steps_in_state = 0;
    window_accum = 0.0;
}

void
OnlineTuner::onStep(StepId step, SimTime step_time)
{
    guard.onStep(step);
    switch (state) {
      case State::WaitCritical:
      case State::Done:
        return;
      case State::Settle:
        if (++steps_in_state >= kSettleSteps) {
            state = State::Measure;
            steps_in_state = 0;
            window_accum = 0.0;
        }
        return;
      case State::Measure:
        window_accum += static_cast<double>(step_time);
        if (++steps_in_state >= kWindowSteps) {
            windowComplete(window_accum);
        }
        return;
    }
}

bool
OnlineTuner::advanceToNextCandidate()
{
    while (param_index < params.size()) {
        const TunableParam param = params[param_index];
        if (OutputQualityGuard::preservesOutput(param)) {
            const auto candidate = neighborValue(
                status.best_config, param, direction);
            if (candidate) {
                PipelineConfig probe = status.best_config;
                setParam(probe, param, *candidate);
                if (isValidConfig(probe,
                                  session.workload().dataset,
                                  session.sessionConfig().host)) {
                    pending_config = probe;
                    pending_param = param;
                    pending_value = *candidate;
                    return true;
                }
            }
        }
        // Exhausted this direction: flip, then move on.
        if (direction > 0) {
            direction = -1;
        } else {
            direction = +1;
            ++param_index;
        }
    }
    return false;
}

void
OnlineTuner::applyCandidate()
{
    session.pipeline().setConfig(pending_config);
    note(std::string("trial: ") + tunableParamName(pending_param) +
         " -> " + std::to_string(pending_value));
    beginWindow(false);
}

void
OnlineTuner::windowComplete(double window_time)
{
    if (measuring_baseline) {
        best_window_time = window_time;
        note("baseline window: " +
             formatDuration(static_cast<SimTime>(window_time)));
        if (advanceToNextCandidate()) {
            applyCandidate();
        } else {
            state = State::Done;
            status.finished = true;
            note("no adjustable parameters; keeping defaults");
        }
        return;
    }

    ++status.trials;
    const bool improved = window_time <
        best_window_time * (1.0 - kMinImprovement);
    if (improved && guard.consistent()) {
        best_window_time = window_time;
        status.best_config = pending_config;
        ++status.accepted;
        note(std::string("accepted ") +
             tunableParamName(pending_param) + " = " +
             std::to_string(pending_value) + " (window " +
             formatDuration(static_cast<SimTime>(window_time)) +
             ")");
        // Keep pushing the same parameter in the same direction.
    } else {
        session.pipeline().setConfig(status.best_config);
        note(std::string("rejected ") +
             tunableParamName(pending_param) + " = " +
             std::to_string(pending_value));
        if (direction > 0) {
            direction = -1;
        } else {
            direction = +1;
            ++param_index;
        }
    }

    if (advanceToNextCandidate()) {
        applyCandidate();
    } else {
        state = State::Done;
        status.finished = true;
        note("tuning complete: " + status.best_config.toString());
        session.pipeline().setConfig(status.best_config);
    }
}

} // namespace tpupoint
