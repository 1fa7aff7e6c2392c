/**
 * @file
 * TpuCore execution, accounting and event emission, plus a
 * differential check of the priced-schedule core against a
 * reference that prices every operator of every step and hands the
 * sink one event at a time.
 */

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/builder.hh"
#include "profiler/collector.hh"
#include "tpu/core.hh"
#include "tpu/timing.hh"
#include "workloads/catalog.hh"

namespace tpupoint {
namespace {

/** A minimal step: infeed -> matmul -> outfeed. */
StepSchedule
tinySchedule()
{
    GraphBuilder gb("tiny", DataType::BF16);
    const NodeId x = gb.infeed(TensorShape{64, 64}, "in");
    const NodeId mm = gb.matmul(x, 64, "mm");
    gb.outfeed(mm, "out");
    return extractSchedule(gb.finish());
}

struct Rig
{
    Simulator sim;
    InfeedQueue infeed{sim, 2};
    OutfeedQueue outfeed{sim, 4};
    TpuDeviceSpec spec = TpuDeviceSpec::v2();
    TpuCore core{sim, spec, infeed, outfeed};
    InMemoryTrace trace;

    Rig() { core.setSink(&trace); }

    void
    feed(StepId step, std::uint64_t bytes)
    {
        DeviceBatch batch;
        batch.step = step;
        batch.bytes = bytes;
        infeed.push(batch, nullptr);
    }

    void
    drain()
    {
        outfeed.pop([](StepResult) {});
    }
};

TEST(TpuCoreTest, ExecutesOneStep)
{
    Rig rig;
    const StepSchedule schedule = tinySchedule();
    rig.feed(7, schedule.infeed_bytes);
    rig.drain();
    bool done = false;
    const PricedSchedule priced = rig.core.price(schedule);
    rig.core.runStep(priced, 7, [&] { done = true; });
    rig.sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(rig.core.counters().steps_completed, 1u);
    EXPECT_EQ(rig.core.counters().ops_executed, schedule.size());
    EXPECT_GT(rig.core.counters().busy, 0);
    EXPECT_GT(rig.core.counters().mxu_active, 0);
}

TEST(TpuCoreTest, EventsCoverEveryOp)
{
    Rig rig;
    const StepSchedule schedule = tinySchedule();
    rig.feed(3, schedule.infeed_bytes);
    rig.drain();
    const PricedSchedule priced = rig.core.price(schedule);
    rig.core.runStep(priced, 3, nullptr);
    rig.sim.run();
    // infeed (no wait -> no Infeed event), matmul, outfeed.
    ASSERT_EQ(rig.trace.events().size(), 3u);
    EXPECT_STREQ(rig.trace.events()[0].type, "InfeedDequeueTuple");
    EXPECT_STREQ(rig.trace.events()[1].type, "MatMul");
    EXPECT_STREQ(rig.trace.events()[2].type,
                 "OutfeedEnqueueTuple");
    for (const auto &event : rig.trace.events()) {
        EXPECT_EQ(event.step, 3u);
        EXPECT_EQ(event.device, EventDevice::Tpu);
        EXPECT_GT(event.duration, 0);
    }
    EXPECT_TRUE(rig.trace.events()[1].mxu);
    EXPECT_GT(rig.trace.events()[1].mxu_active, 0);
}

TEST(TpuCoreTest, InfeedStallCountsAsIdleAndEmitsInfeedEvent)
{
    Rig rig;
    const StepSchedule schedule = tinySchedule();
    rig.drain();
    const PricedSchedule priced = rig.core.price(schedule);
    rig.core.runStep(priced, 1, nullptr);
    // Deliver the batch late.
    rig.sim.schedule(1 * kMsec, [&] {
        rig.feed(1, schedule.infeed_bytes);
    });
    rig.sim.run();
    EXPECT_GE(rig.core.counters().idle, 1 * kMsec);
    bool saw_infeed_wait = false;
    for (const auto &event : rig.trace.events()) {
        if (std::string_view(event.type) == "Infeed") {
            saw_infeed_wait = true;
            EXPECT_GE(event.duration, 1 * kMsec);
        }
    }
    EXPECT_TRUE(saw_infeed_wait);
}

TEST(TpuCoreTest, FullOutfeedBlocksDevice)
{
    Simulator sim;
    InfeedQueue infeed(sim, 4);
    OutfeedQueue outfeed(sim, 1);
    TpuCore core(sim, TpuDeviceSpec::v2(), infeed, outfeed);
    const StepSchedule schedule = tinySchedule();
    const PricedSchedule priced = core.price(schedule);

    // Two steps, no drain: the second outfeed push must block.
    for (StepId s = 0; s < 2; ++s) {
        DeviceBatch batch;
        batch.step = s;
        batch.bytes = schedule.infeed_bytes;
        infeed.push(batch, nullptr);
    }
    int done = 0;
    core.runStep(priced, 0, [&] {
        ++done;
        core.runStep(priced, 1, [&] { ++done; });
    });
    sim.run();
    EXPECT_EQ(done, 1); // second step is wedged on the outfeed
    // Draining unblocks it.
    outfeed.pop([](StepResult) {});
    outfeed.pop([](StepResult) {});
    sim.run();
    EXPECT_EQ(done, 2);
}

TEST(TpuCoreTest, OverlappingStepsPanic)
{
    Rig rig;
    const PricedSchedule priced = rig.core.price(tinySchedule());
    rig.core.runStep(priced, 0, nullptr);
    EXPECT_THROW(rig.core.runStep(priced, 1, nullptr),
                 std::logic_error);
}

TEST(TpuCoreTest, TraceOverheadSlowsOps)
{
    const StepSchedule schedule = tinySchedule();

    auto run_with_overhead = [&](SimTime overhead) {
        Rig rig;
        rig.core.setTraceOverhead(overhead);
        rig.feed(0, schedule.infeed_bytes);
        rig.drain();
        const PricedSchedule priced = rig.core.price(schedule);
        rig.core.runStep(priced, 0, nullptr);
        rig.sim.run();
        return rig.core.counters().busy;
    };
    const SimTime plain = run_with_overhead(0);
    const SimTime traced = run_with_overhead(10 * kUsec);
    EXPECT_GT(traced, plain);
}

TEST(TpuCoreTest, ResultCarriesOutfeedBytes)
{
    Rig rig;
    const StepSchedule schedule = tinySchedule();
    rig.feed(5, schedule.infeed_bytes);
    StepResult got;
    rig.outfeed.pop([&](StepResult r) { got = r; });
    const PricedSchedule priced = rig.core.price(schedule);
    rig.core.runStep(priced, 5, nullptr);
    rig.sim.run();
    EXPECT_EQ(got.step, 5u);
    EXPECT_EQ(got.bytes, schedule.outfeed_bytes);
    EXPECT_GT(got.tpu_finished, 0);
}

TEST(TpuCoreTest, OverheadChangeMidRunKeepsTheRunsEvents)
{
    Rig rig;
    const StepSchedule schedule = tinySchedule();
    const PricedSchedule priced = rig.core.price(schedule);
    rig.core.setTraceOverhead(3 * kUsec);
    rig.feed(0, schedule.infeed_bytes);
    rig.drain();
    rig.core.runStep(priced, 0, nullptr);
    // The matmul's run starts once the infeed is staged; change the
    // overhead while it is in flight.
    ASSERT_EQ(rig.trace.events().size(), 0u);
    while (rig.trace.events().empty())
        rig.sim.runUntil(rig.sim.now() + 1);
    rig.core.setTraceOverhead(0);
    rig.sim.run();
    ASSERT_EQ(rig.trace.events().size(), 3u);
    const TraceEvent &matmul = rig.trace.events()[1];
    EXPECT_STREQ(matmul.type, "MatMul");
    EXPECT_EQ(matmul.duration,
              opDuration(rig.spec, schedule.ops[1]) + 3 * kUsec);
    EXPECT_EQ(rig.trace.events()[2].start, matmul.end());
}

/**
 * The pre-pricing TpuCore, kept as an oracle: it calls opDuration
 * and mxuActiveTime for every operator of every step and buffers a
 * run's events until the run retires.
 */
class ReferenceCore
{
  public:
    ReferenceCore(Simulator &simulator, const TpuDeviceSpec &spec,
                  InfeedQueue &infeed_queue, OutfeedQueue &outfeed_queue,
                  TraceSink &trace_sink)
        : sim(simulator), device(spec), infeed(infeed_queue),
          outfeed(outfeed_queue), sink(trace_sink)
    {
    }

    void setTraceOverhead(SimTime per_op) { trace_overhead = per_op; }

    void
    runStep(const StepSchedule &schedule, StepId step,
            std::function<void()> done)
    {
        step_done = std::move(done);
        execute(&schedule, 0, step);
    }

    const TpuCore::Counters &counters() const { return stats; }

  private:
    struct Pending
    {
        const char *type;
        SimTime start;
        SimTime duration;
        bool mxu;
        SimTime mxu_active;
    };

    static bool
    isInfeed(OpKind kind)
    {
        return kind == OpKind::InfeedDequeueTuple ||
            kind == OpKind::Infeed;
    }

    static bool
    isOutfeed(OpKind kind)
    {
        return kind == OpKind::OutfeedEnqueueTuple ||
            kind == OpKind::Outfeed;
    }

    void
    emit(const char *type, SimTime start, SimTime duration,
         StepId step, bool mxu, SimTime mxu_active = 0)
    {
        TraceEvent event;
        event.type = type;
        event.start = start;
        event.duration = duration;
        event.step = step;
        event.device = EventDevice::Tpu;
        event.mxu = mxu;
        event.mxu_active = mxu_active;
        sink.record(event);
    }

    void
    execute(const StepSchedule *schedule, std::size_t index,
            StepId step)
    {
        const auto &ops = schedule->ops;
        if (index >= ops.size()) {
            ++stats.steps_completed;
            std::function<void()> done = std::move(step_done);
            if (done)
                done();
            return;
        }
        const ScheduledOp &op = ops[index];
        if (isInfeed(op.kind)) {
            const SimTime wait_start = sim.now();
            infeed.pop([this, schedule, index, step,
                        wait_start](DeviceBatch batch) {
                const SimTime wait = sim.now() - wait_start;
                if (wait > 0) {
                    emit(opKindName(OpKind::Infeed), wait_start, wait,
                         step, false);
                    stats.idle += wait;
                }
                const SimTime stage =
                    hbmTime(device, batch.bytes) + device.op_overhead;
                const SimTime start = sim.now();
                sim.schedule(stage, [this, schedule, index, step,
                                     start, stage]() {
                    emit(opKindName(OpKind::InfeedDequeueTuple), start,
                         stage, step, false);
                    stats.busy += stage;
                    ++stats.ops_executed;
                    execute(schedule, index + 1, step);
                });
            });
            return;
        }
        if (isOutfeed(op.kind)) {
            const std::uint64_t bytes =
                op.bytes ? op.bytes : schedule->outfeed_bytes;
            const SimTime enqueue =
                hbmTime(device, bytes) + device.op_overhead;
            const SimTime start = sim.now();
            sim.schedule(enqueue, [this, schedule, index, step, start,
                                   enqueue, bytes]() {
                emit(opKindName(OpKind::OutfeedEnqueueTuple), start,
                     enqueue, step, false);
                stats.busy += enqueue;
                ++stats.ops_executed;
                const SimTime push_start = sim.now();
                StepResult result;
                result.step = step;
                result.bytes = bytes;
                result.tpu_finished = sim.now();
                outfeed.push(result, [this, schedule, index, step,
                                      push_start]() {
                    const SimTime wait = sim.now() - push_start;
                    if (wait > 0) {
                        emit(opKindName(OpKind::Outfeed), push_start,
                             wait, step, false);
                        stats.idle += wait;
                    }
                    execute(schedule, index + 1, step);
                });
            });
            return;
        }
        run.clear();
        SimTime cursor = sim.now();
        std::size_t next = index;
        while (next < ops.size() && !isInfeed(ops[next].kind) &&
               !isOutfeed(ops[next].kind)) {
            const ScheduledOp &run_op = ops[next];
            const SimTime duration =
                opDuration(device, run_op) + trace_overhead;
            const SimTime active = mxuActiveTime(device, run_op);
            run.push_back(Pending{run_op.typeName(), cursor, duration,
                                  run_op.mxu, active});
            cursor += duration;
            stats.mxu_active += active;
            ++next;
        }
        const SimTime total = cursor - sim.now();
        sim.schedule(total, [this, schedule, next, step, total]() {
            for (const Pending &e : run)
                emit(e.type, e.start, e.duration, step, e.mxu,
                     e.mxu_active);
            stats.busy += total;
            stats.ops_executed += run.size();
            execute(schedule, next, step);
        });
    }

    Simulator &sim;
    TpuDeviceSpec device;
    InfeedQueue &infeed;
    OutfeedQueue &outfeed;
    TraceSink &sink;
    TpuCore::Counters stats;
    SimTime trace_overhead = 0;
    std::function<void()> step_done;
    std::vector<Pending> run;
};

/** How one differential run drives its core. */
struct DrivePlan
{
    /** Per step: eval (true) or train schedule. */
    std::vector<bool> eval;
    /** Per step: the trace overhead set just before it starts. */
    std::vector<SimTime> overhead;
    /** Simulated times at which the overhead flips between 0 and
     * `flip_to`, wherever the core is. */
    std::vector<SimTime> flips;
    SimTime flip_to = 0;
    /** Per step: delay before its batch reaches the infeed, and
     * before the host drains its result. */
    std::vector<SimTime> feed_delay;
    std::vector<SimTime> drain_delay;
};

/** What one run produced: the event stream, counters, results. */
struct Observed
{
    std::vector<TraceEvent> events;
    TpuCore::Counters counters;
    std::vector<StepResult> results;
    SimTime end = 0;
    std::uint64_t hub_events = 0; ///< TraceHub::totalEvents().
    std::string payload; ///< The collector's harvest, if attached.
};

/** What the core's TraceHub has attached during a drive. */
enum class Attached { Trace, Collector, Nothing };

/**
 * Run @p plan on a fresh rig. @p make_core builds the core over the
 * rig, writing to a TraceHub that has @p attached behind it;
 * @p run_step starts step `s` (eval or train) on it.
 */
template <typename Core, typename MakeCore, typename RunStep>
Observed
drive(const TpuDeviceSpec &spec, const RuntimeWorkload &workload,
      const DrivePlan &plan, Attached attached, MakeCore make_core,
      RunStep run_step)
{
    Simulator sim;
    InfeedQueue infeed(sim, 2);
    OutfeedQueue outfeed(sim, 1);
    InMemoryTrace trace;
    StatsCollector collector(0);
    TraceHub hub;
    if (attached == Attached::Trace)
        hub.attach(&trace);
    else if (attached == Attached::Collector)
        hub.attach(&collector);
    Core core = make_core(sim, spec, infeed, outfeed, hub);
    const std::size_t steps = plan.eval.size();
    Observed observed;

    // Overhead flips land wherever the core happens to be,
    // including inside a run of regular operators.
    for (std::size_t i = 0; i < plan.flips.size(); ++i) {
        const SimTime value = i % 2 == 0 ? plan.flip_to : 0;
        sim.schedule(plan.flips[i],
                     [&core, value] { core.setTraceOverhead(value); });
    }

    // Host side: one batch per step, each after its own delay; one
    // drain per step, each after its own delay.
    std::function<void(std::size_t)> feed = [&](std::size_t s) {
        if (s >= steps)
            return;
        sim.schedule(plan.feed_delay[s], [&, s] {
            DeviceBatch batch;
            batch.step = s;
            batch.bytes = plan.eval[s]
                ? workload.eval_schedule.infeed_bytes
                : workload.train_schedule.infeed_bytes;
            infeed.push(batch, [&, s] { feed(s + 1); });
        });
    };
    std::function<void(std::size_t)> drain = [&](std::size_t s) {
        if (s >= steps)
            return;
        sim.schedule(plan.drain_delay[s], [&, s] {
            outfeed.pop([&, s](StepResult result) {
                observed.results.push_back(result);
                drain(s + 1);
            });
        });
    };
    std::function<void(std::size_t)> step = [&](std::size_t s) {
        if (s >= steps)
            return;
        core.setTraceOverhead(plan.overhead[s]);
        run_step(core, plan.eval[s], s, [&step, s] { step(s + 1); });
    };
    feed(0);
    drain(0);
    step(0);
    sim.run();

    observed.events = trace.events();
    observed.counters = core.counters();
    observed.end = sim.now();
    observed.hub_events = hub.totalEvents();
    if (attached == Attached::Collector)
        collector.harvest(sim.now(), observed.payload);
    return observed;
}

/** A seeded plan of @p steps steps mixing train and eval. */
DrivePlan
makePlan(std::size_t steps, SimTime overhead, bool toggles,
         std::uint64_t seed, SimTime step_time)
{
    DrivePlan plan;
    std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
    const auto next = [&state](std::uint64_t bound) {
        state = state * 6364136223846793005ULL +
            1442695040888963407ULL;
        return (state >> 33) % bound;
    };
    for (std::size_t s = 0; s < steps; ++s) {
        plan.eval.push_back(s % 3 == 2);
        plan.overhead.push_back(toggles && s % 2 == 1 ? 0 : overhead);
        // Sometimes late: the device stalls on the infeed, or the
        // host on a full outfeed.
        plan.feed_delay.push_back(
            next(3) == 0 ? static_cast<SimTime>(next(step_time)) : 0);
        plan.drain_delay.push_back(
            next(3) == 0 ? static_cast<SimTime>(next(3 * step_time))
                         : 0);
    }
    if (toggles) {
        // Odd spacing, so flips fall inside runs rather than on
        // event boundaries.
        plan.flip_to = overhead;
        SimTime at = 7'919;
        for (std::size_t i = 0; i < 4 * steps; ++i) {
            plan.flips.push_back(at);
            at += static_cast<SimTime>(next(step_time / 2)) + 104'729;
        }
    }
    return plan;
}

void
expectSameRun(const Observed &priced, const Observed &reference,
              const std::string &label)
{
    ASSERT_EQ(priced.events.size(), reference.events.size()) << label;
    for (std::size_t i = 0; i < priced.events.size(); ++i) {
        const TraceEvent &a = priced.events[i];
        const TraceEvent &b = reference.events[i];
        ASSERT_STREQ(a.type, b.type) << label << " event " << i;
        ASSERT_EQ(a.type, b.type) << label << " event " << i
                                  << ": labels must stay interned";
        ASSERT_EQ(a.start, b.start) << label << " event " << i;
        ASSERT_EQ(a.duration, b.duration) << label << " event " << i;
        ASSERT_EQ(a.step, b.step) << label << " event " << i;
        ASSERT_EQ(a.device, b.device) << label << " event " << i;
        ASSERT_EQ(a.mxu, b.mxu) << label << " event " << i;
        ASSERT_EQ(a.mxu_active, b.mxu_active)
            << label << " event " << i;
    }
    EXPECT_EQ(priced.counters.busy, reference.counters.busy) << label;
    EXPECT_EQ(priced.counters.idle, reference.counters.idle) << label;
    EXPECT_EQ(priced.counters.mxu_active, reference.counters.mxu_active)
        << label;
    EXPECT_EQ(priced.counters.steps_completed,
              reference.counters.steps_completed)
        << label;
    EXPECT_EQ(priced.counters.ops_executed,
              reference.counters.ops_executed)
        << label;
    ASSERT_EQ(priced.results.size(), reference.results.size()) << label;
    for (std::size_t i = 0; i < priced.results.size(); ++i) {
        EXPECT_EQ(priced.results[i].step, reference.results[i].step);
        EXPECT_EQ(priced.results[i].bytes, reference.results[i].bytes);
        EXPECT_EQ(priced.results[i].tpu_finished,
                  reference.results[i].tpu_finished);
    }
    EXPECT_EQ(priced.end, reference.end) << label;
}

TEST(TpuCoreDifferential, PricedScheduleMatchesPerOpPricing)
{
    constexpr std::size_t kSteps = 7;
    WorkloadOptions options;
    options.step_scale = 0.01;
    std::size_t events = 0;
    std::size_t infeed_stalls = 0;
    std::size_t outfeed_stalls = 0;
    std::size_t flips_inside_runs = 0;
    for (const WorkloadId id : allWorkloads()) {
        const RuntimeWorkload workload = makeWorkload(id, options);
        ASSERT_FALSE(workload.eval_schedule.ops.empty());
        for (const TpuDeviceSpec &spec :
             {TpuDeviceSpec::v2(), TpuDeviceSpec::v3()}) {
            // A step's rough length scales the host delays.
            SimTime step_time = 1;
            for (const ScheduledOp &op : workload.train_schedule.ops)
                step_time += opDuration(spec, op);
            struct Variant
            {
                const char *name;
                SimTime overhead;
                bool toggles;
            };
            for (const Variant &variant :
                 {Variant{"overhead 0", 0, false},
                  Variant{"overhead 2us", 2 * kUsec, false},
                  Variant{"toggled", 1'337, true}}) {
                const DrivePlan plan =
                    makePlan(kSteps, variant.overhead, variant.toggles,
                             static_cast<std::uint64_t>(id) + 1,
                             step_time);
                PricedSchedule train;
                PricedSchedule eval;
                const auto priced_run = [&](Attached attached) {
                    return drive<TpuCore>(
                        spec, workload, plan, attached,
                        [&](Simulator &sim, const TpuDeviceSpec &device,
                            InfeedQueue &in, OutfeedQueue &out,
                            TraceSink &sink) {
                            TpuCore core(sim, device, in, out);
                            core.setSink(&sink);
                            train = core.price(workload.train_schedule);
                            eval = core.price(workload.eval_schedule);
                            return core;
                        },
                        [&](TpuCore &core, bool is_eval, StepId step,
                            std::function<void()> done) {
                            core.runStep(is_eval ? eval : train, step,
                                         std::move(done));
                        });
                };
                const auto reference_run = [&](Attached attached) {
                    return drive<ReferenceCore>(
                        spec, workload, plan, attached,
                        [](Simulator &sim, const TpuDeviceSpec &device,
                           InfeedQueue &in, OutfeedQueue &out,
                           TraceSink &sink) {
                            return ReferenceCore(sim, device, in, out,
                                                 sink);
                        },
                        [&](ReferenceCore &core, bool is_eval,
                            StepId step, std::function<void()> done) {
                            core.runStep(is_eval
                                             ? workload.eval_schedule
                                             : workload.train_schedule,
                                         step, std::move(done));
                        });
                };
                const Observed priced = priced_run(Attached::Trace);
                const Observed reference = reference_run(Attached::Trace);
                const std::string label = std::string(workloadName(id)) +
                    " " + spec.name + " " + variant.name;
                expectSameRun(priced, reference, label);
                EXPECT_EQ(priced.counters.steps_completed, kSteps)
                    << label;
                // The hub counts every operator of a run, whether or
                // not a sink is attached.
                EXPECT_EQ(priced.hub_events, reference.events.size())
                    << label;
                EXPECT_EQ(reference.hub_events, reference.events.size())
                    << label;
                const Observed detached = priced_run(Attached::Nothing);
                EXPECT_EQ(detached.hub_events, reference.events.size())
                    << label;
                expectSameRun(detached, reference_run(Attached::Nothing),
                              label + " detached");
                // A collector folding whole runs harvests the bytes
                // it would from the same events one at a time.
                const Observed folded = priced_run(Attached::Collector);
                const Observed per_event =
                    reference_run(Attached::Collector);
                EXPECT_FALSE(per_event.payload.empty()) << label;
                EXPECT_TRUE(folded.payload == per_event.payload)
                    << label;
                events += priced.events.size();
                for (const TraceEvent &e : priced.events) {
                    const std::string_view type = e.type;
                    infeed_stalls += type == "Infeed";
                    outfeed_stalls += type == "Outfeed";
                }
                // A flip strictly inside a regular operator's event
                // landed while its run was in flight.
                for (const SimTime flip : plan.flips) {
                    for (const TraceEvent &e : priced.events) {
                        const std::string_view type = e.type;
                        if (type.starts_with("Infeed") ||
                            type.starts_with("Outfeed"))
                            continue;
                        if (e.start < flip && flip < e.end()) {
                            ++flips_inside_runs;
                            break;
                        }
                    }
                }
            }
        }
    }
    // The plans reach every path: both queue stalls, and overhead
    // changes in the middle of a run.
    EXPECT_GT(events, 0u);
    EXPECT_GT(infeed_stalls, 0u);
    EXPECT_GT(outfeed_stalls, 0u);
    EXPECT_GT(flips_inside_runs, 0u);
}

} // namespace
} // namespace tpupoint
