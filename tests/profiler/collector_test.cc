/** @file StatsCollector folding, windowing and transport caps. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.hh"
#include "graph/op.hh"
#include "host/host_ops.hh"
#include "profiler/collector.hh"
#include "proto/serialize.hh"

namespace tpupoint {
namespace {

TraceEvent
makeEvent(const char *type, SimTime start, SimTime duration,
          StepId step, EventDevice device = EventDevice::Tpu)
{
    TraceEvent e;
    e.type = type;
    e.start = start;
    e.duration = duration;
    e.step = step;
    e.device = device;
    return e;
}

/** Harvest @p collector's window and decode its payload. */
ProfileRecord
harvestRecord(StatsCollector &collector, SimTime window_end)
{
    std::string payload;
    collector.harvest(window_end, payload);
    ProfileRecord record;
    EXPECT_TRUE(decodeProfileRecord(payload, record));
    return record;
}

TEST(CollectorTest, AggregatesByStep)
{
    StatsCollector collector(0);
    collector.record(makeEvent("MatMul", 0, 10, 1));
    collector.record(makeEvent("MatMul", 10, 10, 1));
    collector.record(makeEvent("fusion", 30, 10, 2));
    EXPECT_EQ(collector.eventsInWindow(), 3u);

    const ProfileRecord record = harvestRecord(collector, 100);
    EXPECT_EQ(record.event_count, 3u);
    ASSERT_EQ(record.steps.size(), 2u);
    EXPECT_EQ(record.steps[0].step, 1u);
    EXPECT_EQ(record.steps[0].tpu_ops.at("MatMul").count, 2u);
    EXPECT_EQ(record.steps[1].step, 2u);
    EXPECT_FALSE(record.truncated);
    EXPECT_EQ(record.window_begin, 0);
    EXPECT_EQ(record.window_end, 100);
}

TEST(CollectorTest, HarvestResetsWindow)
{
    StatsCollector collector(0);
    collector.record(makeEvent("MatMul", 0, 10, 1));
    (void)harvestRecord(collector, 50);
    EXPECT_EQ(collector.eventsInWindow(), 0u);
    EXPECT_EQ(collector.windowBegin(), 50);
    collector.record(makeEvent("fusion", 60, 5, 2));
    const ProfileRecord second = harvestRecord(collector, 100);
    EXPECT_EQ(second.sequence, 1u);
    ASSERT_EQ(second.steps.size(), 1u);
    EXPECT_EQ(second.steps[0].step, 2u);
}

TEST(CollectorTest, EmptyWindowStillUsesSequenceNumber)
{
    StatsCollector collector(0);
    std::string payload;
    collector.record(makeEvent("MatMul", 0, 10, 1));
    EXPECT_EQ(collector.harvest(50, payload), 1u);
    // Nothing happened in (50, 100]: harvest reports no events but
    // still writes a (stepless) payload and spends sequence 1.
    EXPECT_EQ(collector.harvest(100, payload), 0u);
    ProfileRecord empty;
    ASSERT_TRUE(decodeProfileRecord(payload, empty));
    EXPECT_EQ(empty.sequence, 1u);
    EXPECT_TRUE(empty.steps.empty());
    collector.record(makeEvent("MatMul", 110, 10, 2));
    const ProfileRecord third = harvestRecord(collector, 150);
    EXPECT_EQ(third.sequence, 2u);
    EXPECT_EQ(third.window_begin, 100);
}

TEST(CollectorTest, HarvestStampsAttemptAndReusesBuffer)
{
    StatsCollector collector(0);
    std::string payload = "stale bytes from an earlier window";
    collector.record(makeEvent("MatMul", 0, 10, 1));
    collector.harvest(50, payload, 4);
    ProfileRecord record;
    ASSERT_TRUE(decodeProfileRecord(payload, record));
    EXPECT_EQ(record.attempt, 4u);
    EXPECT_FALSE(record.attempt_boundary);
    EXPECT_EQ(record.preempted_at_step, 0u);
    EXPECT_EQ(record.resume_step, 0u);
    EXPECT_EQ(encodeProfileRecord(record), payload);
}

TEST(CollectorTest, NoStepEventsJoinLatestStep)
{
    StatsCollector collector(0);
    collector.record(makeEvent("MatMul", 0, 10, 7));
    collector.record(
        makeEvent("Recv", 10, 5, kNoStep, EventDevice::Host));
    const ProfileRecord record = harvestRecord(collector, 100);
    ASSERT_EQ(record.steps.size(), 1u);
    EXPECT_EQ(record.steps[0].step, 7u);
    EXPECT_EQ(record.steps[0].host_ops.at("Recv").count, 1u);
}

TEST(CollectorTest, EventCapTruncates)
{
    StatsCollector collector(0);
    for (std::uint64_t i = 0; i < kMaxEventsPerProfile + 10; ++i)
        collector.record(makeEvent("MatMul", 0, 1, 0));
    EXPECT_TRUE(collector.overflowed());
    const ProfileRecord record = harvestRecord(collector, 1);
    EXPECT_TRUE(record.truncated);
    EXPECT_EQ(record.event_count, kMaxEventsPerProfile);
    // The cap resets with the window.
    EXPECT_FALSE(collector.overflowed());
}

TEST(CollectorTest, DurationCapTruncates)
{
    StatsCollector collector(0);
    collector.record(makeEvent("MatMul", 0, 10, 0));
    // An event past the 60 s window limit is dropped.
    collector.record(
        makeEvent("MatMul", kMaxProfileDuration + kSec, 10, 0));
    EXPECT_TRUE(collector.overflowed());
    EXPECT_EQ(collector.eventsInWindow(), 1u);
}

TEST(CollectorTest, DroppedEventsAreCountedNotJustFlagged)
{
    StatsCollector collector(0);
    constexpr std::uint64_t kOverflow = 37;
    for (std::uint64_t i = 0; i < kMaxEventsPerProfile + kOverflow;
         ++i) {
        collector.record(makeEvent("MatMul", 0, 1, 0));
    }
    EXPECT_EQ(collector.eventsDropped(), kOverflow);

    const ProfileRecord record = harvestRecord(collector, 1);
    EXPECT_TRUE(record.truncated);
    EXPECT_EQ(record.events_dropped, kOverflow);
    // The drop count resets with the window, like the cap flag.
    EXPECT_EQ(collector.eventsDropped(), 0u);
    const ProfileRecord clean = harvestRecord(collector, 2);
    EXPECT_EQ(clean.events_dropped, 0u);
    EXPECT_FALSE(clean.truncated);
}

TEST(CollectorTest, MetadataComputedOverWindow)
{
    StatsCollector collector(0);
    TraceEvent busy = makeEvent("MatMul", 0, 400, 0);
    busy.mxu = true;
    busy.mxu_active = 100;
    collector.record(busy);
    const ProfileRecord record = harvestRecord(collector, 1000);
    // 400 of 1000 ns busy -> 60% idle; 100/1000 MXU.
    EXPECT_NEAR(record.tpu_idle_fraction, 0.6, 1e-9);
    EXPECT_NEAR(record.mxu_utilization, 0.1, 1e-9);
}

TEST(CollectorTest, HostEventsDoNotCountAsTpuBusy)
{
    StatsCollector collector(0);
    collector.record(
        makeEvent("RunGraph", 0, 500, 0, EventDevice::Host));
    const ProfileRecord record = harvestRecord(collector, 1000);
    EXPECT_NEAR(record.tpu_idle_fraction, 1.0, 1e-9);
}

TEST(CollectorTest, AccumulatesOpStatistics)
{
    StatsCollector collector(0);
    TraceEvent first = makeEvent("MatMul", 10, 5, 4);
    first.mxu_active = 2;
    TraceEvent second = makeEvent("MatMul", 20, 7, 4);
    second.mxu_active = 3;
    collector.record(first);
    collector.record(second);
    collector.record(makeEvent("RunGraph", 0, 3, 4, EventDevice::Host));

    const ProfileRecord record = harvestRecord(collector, 100);
    ASSERT_EQ(record.steps.size(), 1u);
    const StepStats &s = record.steps[0];
    EXPECT_EQ(s.tpu_ops.at("MatMul").count, 2u);
    EXPECT_EQ(s.tpu_ops.at("MatMul").total_duration, 12);
    EXPECT_EQ(s.host_ops.at("RunGraph").count, 1u);
    EXPECT_EQ(s.tpu_busy, 12);
    EXPECT_EQ(s.mxu_active, 5);
    EXPECT_EQ(s.begin, 0);
    EXPECT_EQ(s.end, 27);
    EXPECT_EQ(s.span(), 27);
}

TEST(CollectorTest, InfeedWaitCountsAsIdleNotBusy)
{
    StatsCollector collector(0);
    collector.record(makeEvent(opKindName(OpKind::Infeed), 0, 100, 1));
    collector.record(makeEvent("MatMul", 100, 50, 1));
    const ProfileRecord record = harvestRecord(collector, 1000);
    ASSERT_EQ(record.steps.size(), 1u);
    EXPECT_EQ(record.steps[0].tpu_idle, 100);
    EXPECT_EQ(record.steps[0].tpu_busy, 50);
}

TEST(CollectorTest, SameTextAtTwoAddressesIsOneLabel)
{
    const std::string a = "MatMul";
    const std::string b = "MatMul";
    ASSERT_NE(a.c_str(), b.c_str());
    StatsCollector collector(0);
    collector.record(makeEvent(a.c_str(), 0, 1, 1));
    collector.record(makeEvent(b.c_str(), 1, 2, 1));
    collector.record(makeEvent("MatMul", 3, 4, 1));
    const ProfileRecord record = harvestRecord(collector, 100);
    ASSERT_EQ(record.steps.size(), 1u);
    ASSERT_EQ(record.steps[0].tpu_ops.size(), 1u);
    EXPECT_EQ(record.steps[0].tpu_ops.at("MatMul").count, 3u);
    EXPECT_EQ(record.steps[0].tpu_ops.at("MatMul").total_duration, 7);
}

TEST(CollectorTest, NullLabelPanics)
{
    StatsCollector collector(0);
    EXPECT_THROW(collector.record(makeEvent(nullptr, 0, 1, 1)),
                 std::logic_error);
    EXPECT_EQ(collector.eventsInWindow(), 0u);
    // Past a cap the event would be dropped; it still must carry
    // a label.
    EXPECT_THROW(collector.record(makeEvent(
                     nullptr, kMaxProfileDuration + kSec, 1, 1)),
                 std::logic_error);
}

// ---- Differential property test against the map-based fold -------

/**
 * The collector as it was before label ids: every event builds a
 * std::string key into a per-step std::map. Kept as the oracle the
 * id-based fold must reproduce record for record.
 */
class MapFoldCollector
{
  public:
    explicit MapFoldCollector(SimTime start) : window_begin(start) {}

    void
    record(const TraceEvent &event)
    {
        if (events >= kMaxEventsPerProfile ||
            event.end() - window_begin > kMaxProfileDuration) {
            truncated = true;
            ++dropped;
            return;
        }
        StepId step = event.step;
        if (step == kNoStep) {
            step = latest_step;
        } else {
            latest_step = std::max(latest_step, step);
        }
        auto [it, inserted] = steps.try_emplace(step);
        if (inserted)
            it->second.step = step;
        add(it->second, event);
        if (event.type &&
            std::string_view(event.type) == hostop::kStorageRetry) {
            ++retry_events;
            retry_time += event.duration;
        }
        ++events;
    }

    ProfileRecord
    harvest(SimTime window_end)
    {
        ProfileRecord record;
        record.sequence = sequence++;
        record.window_begin = window_begin;
        record.window_end = window_end;
        record.event_count = events;
        record.truncated = truncated;
        record.events_dropped = dropped;
        record.retries = retry_events;
        record.retry_time = retry_time;
        SimTime busy = 0;
        SimTime mxu = 0;
        for (auto &[step, stats] : steps) {
            busy += stats.tpu_busy;
            mxu += stats.mxu_active;
            record.steps.push_back(std::move(stats));
        }
        const double span = static_cast<double>(record.span());
        if (span > 0) {
            record.tpu_idle_fraction = std::max(
                0.0, 1.0 - static_cast<double>(busy) / span);
            record.mxu_utilization = static_cast<double>(mxu) / span;
        }
        steps.clear();
        events = 0;
        dropped = 0;
        truncated = false;
        retry_events = 0;
        retry_time = 0;
        window_begin = window_end;
        return record;
    }

  private:
    static void
    add(StepStats &s, const TraceEvent &event)
    {
        s.begin = std::min(s.begin, event.start);
        s.end = std::max(s.end, event.end());
        OpStatsMap &ops =
            event.device == EventDevice::Host ? s.host_ops : s.tpu_ops;
        ops[event.type].add(event.duration);
        if (event.device == EventDevice::Tpu) {
            s.tpu_busy += event.duration;
            s.mxu_active += event.mxu_active;
            if (event.type ==
                    std::string_view(opKindName(OpKind::Infeed)) ||
                event.type ==
                    std::string_view(opKindName(OpKind::Outfeed))) {
                s.tpu_idle += event.duration;
                s.tpu_busy -= event.duration;
            }
        }
    }

    std::map<StepId, StepStats> steps;
    SimTime window_begin;
    std::uint64_t events = 0;
    std::uint64_t dropped = 0;
    std::uint64_t sequence = 0;
    bool truncated = false;
    StepId latest_step = 0;
    std::uint64_t retry_events = 0;
    SimTime retry_time = 0;
};

void
expectSameOps(const OpStatsMap &got, const OpStatsMap &want)
{
    ASSERT_EQ(got.size(), want.size());
    auto g = got.begin();
    for (auto w = want.begin(); w != want.end(); ++w, ++g) {
        EXPECT_EQ(g->first, w->first);
        EXPECT_EQ(g->second.count, w->second.count) << w->first;
        EXPECT_EQ(g->second.total_duration, w->second.total_duration)
            << w->first;
    }
}

void
expectSameRecord(const ProfileRecord &got, const ProfileRecord &want)
{
    EXPECT_EQ(got.sequence, want.sequence);
    EXPECT_EQ(got.window_begin, want.window_begin);
    EXPECT_EQ(got.window_end, want.window_end);
    EXPECT_EQ(got.event_count, want.event_count);
    EXPECT_EQ(got.truncated, want.truncated);
    EXPECT_EQ(got.events_dropped, want.events_dropped);
    EXPECT_EQ(got.tpu_idle_fraction, want.tpu_idle_fraction);
    EXPECT_EQ(got.mxu_utilization, want.mxu_utilization);
    EXPECT_EQ(got.retries, want.retries);
    EXPECT_EQ(got.retry_time, want.retry_time);
    ASSERT_EQ(got.steps.size(), want.steps.size());
    for (std::size_t i = 0; i < want.steps.size(); ++i) {
        const StepStats &g = got.steps[i];
        const StepStats &w = want.steps[i];
        EXPECT_EQ(g.step, w.step);
        EXPECT_EQ(g.begin, w.begin);
        EXPECT_EQ(g.end, w.end);
        EXPECT_EQ(g.tpu_busy, w.tpu_busy);
        EXPECT_EQ(g.tpu_idle, w.tpu_idle);
        EXPECT_EQ(g.mxu_active, w.mxu_active);
        expectSameOps(g.host_ops, w.host_ops);
        expectSameOps(g.tpu_ops, w.tpu_ops);
    }
    EXPECT_EQ(encodeProfileRecord(got), encodeProfileRecord(want));
}

/**
 * Harvest @p collector and require its payload to be exactly the
 * encoding of @p oracle's record for the same window. On a mismatch
 * the decoded records are compared field by field to name the
 * difference.
 */
void
expectHarvestMatchesOracle(StatsCollector &collector,
                           MapFoldCollector &oracle, SimTime window_end)
{
    std::string payload;
    collector.harvest(window_end, payload);
    const ProfileRecord want = oracle.harvest(window_end);
    if (payload == encodeProfileRecord(want))
        return;
    ADD_FAILURE() << "harvested payload differs from the oracle's";
    ProfileRecord got;
    ASSERT_TRUE(decodeProfileRecord(payload, got));
    expectSameRecord(got, want);
}

/**
 * Label pointers for random streams: the special labels, prefixes
 * and bytes above 0x7f (name order), enough distinct labels to grow
 * the pointer cache, and heap copies of every text at a second
 * address.
 */
std::vector<const char *>
labelPool(std::deque<std::string> &storage)
{
    std::vector<const char *> pool = {
        opKindName(OpKind::Infeed), opKindName(OpKind::Outfeed),
        hostop::kStorageRetry, "MatMul", "Mat", "fusion", "RunGraph",
        "", "\xc3\xa9t\xc3\xa9", "~tilde"};
    for (int i = 0; i < 70; ++i)
        storage.push_back("op" + std::to_string(i));
    const std::size_t literals = pool.size();
    for (std::size_t i = 0; i < literals; ++i)
        storage.emplace_back(pool[i]);
    for (int i = 0; i < 70; ++i)
        storage.push_back("op" + std::to_string(i));
    for (const std::string &label : storage)
        pool.push_back(label.c_str());
    return pool;
}

/** A run as a producer hands it over: its ops, their label
 * summary and the totals TraceRun carries. */
struct RunFixture
{
    std::vector<RunOp> ops;
    std::vector<RunLabel> labels;
    TraceRun run;

    /** Fill `run` from `ops` for a run at @p start. */
    void
    seal(SimTime start, SimTime overhead, StepId step,
         EventDevice device)
    {
        labels.clear();
        appendRunLabels(ops, labels);
        run = TraceRun{};
        run.start = start;
        run.overhead = overhead;
        run.step = step;
        run.device = device;
        run.ops = ops;
        run.labels = labels;
        for (const RunOp &op : ops) {
            run.duration += op.base + overhead;
            run.mxu_active += op.mxu_active;
        }
    }
};

/** Give @p run to @p oracle one event at a time, written out here
 * rather than through TraceSink's default expansion. */
void
recordEachEvent(MapFoldCollector &oracle, const TraceRun &run)
{
    SimTime start = run.start;
    for (const RunOp &op : run.ops) {
        TraceEvent e;
        e.type = op.type;
        e.start = start;
        e.duration = op.base + run.overhead;
        e.step = run.step;
        e.device = run.device;
        e.mxu = op.mxu;
        e.mxu_active = op.mxu_active;
        oracle.record(e);
        start += e.duration;
    }
}

/**
 * Random events and runs into the collector (runs through
 * recordRun), the same events one by one into the map-fold oracle.
 * Runs cross both caps mid-run, carry kNoStep, run on either
 * device, and now and then carry a negative overhead.
 */
TEST(CollectorTest, MatchesMapFoldOracleProperty)
{
    std::deque<std::string> storage;
    const std::vector<const char *> pool = labelPool(storage);
    std::size_t runs = 0;
    std::size_t event_cap_crossings = 0;
    std::size_t duration_cap_crossings = 0;
    std::size_t no_step_runs = 0;
    std::size_t host_runs = 0;
    RunFixture fixture;
    for (std::uint64_t seed = 1; seed <= 150; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        // Each stream draws from its own slice of the pool, so
        // streams differ in vocabulary size and label order.
        const std::size_t vocabulary = 1 + rng.nextBounded(pool.size());
        const std::size_t offset = rng.nextBounded(pool.size());
        const auto label = [&] {
            return pool[(offset + rng.nextBounded(vocabulary)) %
                        pool.size()];
        };
        const SimTime begin = static_cast<SimTime>(rng.nextBounded(1000));
        StatsCollector collector(begin);
        MapFoldCollector oracle(begin);
        SimTime now = begin;
        StepId step = rng.nextBounded(5);
        if (seed % 75 == 0) {
            // Fill the first window to just under the event cap, so
            // the stream's runs cross it.
            fixture.ops.assign(10'000, RunOp{});
            for (RunOp &op : fixture.ops)
                op = RunOp{label(), static_cast<SimTime>(
                                        rng.nextBounded(50)),
                           0, false};
            const std::uint64_t fill =
                kMaxEventsPerProfile - 100 - rng.nextBounded(400);
            for (std::uint64_t filled = 0; filled < fill;) {
                const std::uint64_t n =
                    std::min<std::uint64_t>(fill - filled, 10'000);
                fixture.ops.resize(n);
                fixture.seal(now, 1, step, EventDevice::Tpu);
                collector.recordRun(fixture.run);
                recordEachEvent(oracle, fixture.run);
                now = fixture.run.end();
                filled += n;
            }
        }
        const std::uint64_t windows = 1 + rng.nextBounded(4);
        for (std::uint64_t window = 0; window < windows; ++window) {
            const std::uint64_t count = rng.nextBounded(600);
            for (std::uint64_t i = 0; i < count; ++i) {
                TraceEvent e;
                e.type = label();
                e.device = rng.nextBounded(2) ? EventDevice::Tpu
                                              : EventDevice::Host;
                now += static_cast<SimTime>(rng.nextBounded(50 * kMsec));
                // Producers interleave: some events start earlier
                // than ones already recorded.
                e.start = now - static_cast<SimTime>(
                                    rng.nextBounded(4) == 0
                                        ? rng.nextBounded(100 * kMsec)
                                        : 0);
                e.duration =
                    static_cast<SimTime>(rng.nextBounded(20 * kMsec));
                e.mxu_active =
                    static_cast<SimTime>(rng.nextBounded(e.duration + 1));
                e.mxu = e.mxu_active > 0;
                if (rng.nextBounded(8) == 0)
                    ++step;
                const std::uint64_t kind = rng.nextBounded(10);
                if (kind == 0)
                    e.step = kNoStep;
                else if (kind == 1 && step > 2)
                    e.step = step - 1 - rng.nextBounded(2); // late
                else
                    e.step = step;
                if (rng.nextBounded(200) == 0) {
                    // Past the 60 s window cap: dropped.
                    e.start = collector.windowBegin() +
                        kMaxProfileDuration +
                        static_cast<SimTime>(rng.nextBounded(kSec));
                }
                if (rng.nextBounded(8) != 0) {
                    collector.record(e);
                    oracle.record(e);
                    continue;
                }

                // A run in place of the event, from the same draws.
                const std::size_t n = rng.nextBounded(4) == 0
                    ? rng.nextBounded(400)
                    : rng.nextBounded(40);
                fixture.ops.resize(n);
                for (RunOp &op : fixture.ops) {
                    op.type = label();
                    op.base = static_cast<SimTime>(
                        rng.nextBounded(3) == 0
                            ? rng.nextBounded(1000)
                            : rng.nextBounded(kMsec));
                    op.mxu_active = static_cast<SimTime>(
                        rng.nextBounded(op.base + 1));
                    op.mxu = op.mxu_active > 0;
                }
                const SimTime overhead = rng.nextBounded(20) == 0
                    ? -static_cast<SimTime>(rng.nextBounded(2000))
                    : static_cast<SimTime>(rng.nextBounded(3 * kUsec));
                fixture.seal(e.start, overhead, e.step, e.device);
                const SimTime first =
                    n > 0 ? fixture.ops[0].base + overhead : 0;
                if (overhead >= 0 && fixture.run.duration > first &&
                    rng.nextBounded(25) == 0) {
                    // Straddle the 60 s cap: it falls inside the
                    // run, after its first op.
                    const SimTime cap =
                        collector.windowBegin() + kMaxProfileDuration;
                    fixture.run.start = cap - first -
                        static_cast<SimTime>(rng.nextBounded(
                            static_cast<std::uint64_t>(
                                fixture.run.duration - first)));
                }
                const TraceRun &run = fixture.run;
                const std::uint64_t before = collector.eventsInWindow();
                event_cap_crossings += before < kMaxEventsPerProfile &&
                    before + n > kMaxEventsPerProfile;
                duration_cap_crossings += n > 1 &&
                    run.start + first - collector.windowBegin() <=
                        kMaxProfileDuration &&
                    run.end() - collector.windowBegin() >
                        kMaxProfileDuration;
                no_step_runs += n > 0 && run.step == kNoStep;
                host_runs += n > 0 && run.device == EventDevice::Host;
                ++runs;
                collector.recordRun(run);
                recordEachEvent(oracle, run);
            }
            now += static_cast<SimTime>(rng.nextBounded(kSec));
            expectHarvestMatchesOracle(collector, oracle, now);
            if (HasFailure())
                return;
        }
    }
    // The streams reach every path of recordRun.
    EXPECT_GT(runs, 1000u);
    EXPECT_GT(event_cap_crossings, 0u);
    EXPECT_GT(duration_cap_crossings, 0u);
    EXPECT_GT(no_step_runs, 0u);
    EXPECT_GT(host_runs, 0u);
}

TEST(CollectorTest, EventCapWindowMatchesMapFoldOracle)
{
    std::deque<std::string> storage;
    const std::vector<const char *> pool = labelPool(storage);
    StatsCollector collector(0);
    MapFoldCollector oracle(0);
    Rng rng(7);
    for (std::uint64_t i = 0; i < kMaxEventsPerProfile + 25; ++i) {
        TraceEvent e;
        e.type = pool[rng.nextBounded(pool.size())];
        e.device =
            rng.nextBounded(2) ? EventDevice::Tpu : EventDevice::Host;
        e.start = static_cast<SimTime>(i);
        e.duration = static_cast<SimTime>(rng.nextBounded(100));
        e.step = i / 5000;
        collector.record(e);
        oracle.record(e);
    }
    EXPECT_EQ(collector.eventsDropped(), 25u);
    const SimTime end = static_cast<SimTime>(kMaxEventsPerProfile + 25);
    expectHarvestMatchesOracle(collector, oracle, end);
    // The next window starts clean in both.
    TraceEvent e = makeEvent("MatMul", end, 5, 300);
    collector.record(e);
    oracle.record(e);
    expectHarvestMatchesOracle(collector, oracle, end + 10);
}

} // namespace
} // namespace tpupoint
