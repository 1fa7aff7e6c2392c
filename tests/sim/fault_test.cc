/**
 * @file FaultPlan: the deterministic, seeded transient-fault
 * schedule. Sampling must replay bit-for-bit for a fixed seed,
 * respect window boundaries, and hit configured rates closely
 * enough to drive the storage retry machinery.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/logging.hh"
#include "sim/fault.hh"

namespace tpupoint {
namespace {

TEST(FaultPlanTest, QuietPlanNeverInjects)
{
    FaultPlan quiet;
    EXPECT_FALSE(quiet.enabled());
    for (int i = 0; i < 1000; ++i) {
        const FaultDecision d = quiet.sample(i * kMsec);
        EXPECT_EQ(d.kind, FaultKind::None);
        EXPECT_FALSE(d.failed());
    }
    EXPECT_EQ(quiet.injectedTotal(), 0u);
    EXPECT_EQ(quiet.samples(), 1000u);
}

TEST(FaultPlanTest, SamplingIsDeterministicForAFixedSeed)
{
    const FaultSpec spec =
        FaultSpec::uniform(0.05, 0.05, 0.05);
    FaultPlan a(spec, 1234);
    FaultPlan b(spec, 1234);
    for (int i = 0; i < 5000; ++i) {
        const FaultDecision da = a.sample(i * kUsec);
        const FaultDecision db = b.sample(i * kUsec);
        ASSERT_EQ(da.kind, db.kind);
        ASSERT_EQ(da.extra_latency, db.extra_latency);
        ASSERT_EQ(da.completed_fraction, db.completed_fraction);
    }
    EXPECT_EQ(a.injectedTotal(), b.injectedTotal());
    EXPECT_GT(a.injectedTotal(), 0u);
    // Jitter draws come from the same stream and agree too.
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.jitter(), b.jitter());
}

TEST(FaultPlanTest, DifferentSeedsDiverge)
{
    const FaultSpec spec = FaultSpec::uniform(0.2);
    FaultPlan a(spec, 1);
    FaultPlan b(spec, 2);
    int disagreements = 0;
    for (int i = 0; i < 2000; ++i) {
        if (a.sample(0).kind != b.sample(0).kind)
            ++disagreements;
    }
    EXPECT_GT(disagreements, 0);
}

TEST(FaultPlanTest, SpecSeedOverridesFallback)
{
    FaultSpec spec = FaultSpec::uniform(0.2);
    spec.seed = 42;
    FaultPlan a(spec, 1);
    FaultPlan b(spec, 2);
    for (int i = 0; i < 2000; ++i)
        ASSERT_EQ(a.sample(0).kind, b.sample(0).kind);
}

TEST(FaultPlanTest, ErrorRateIsApproximatelyHonored)
{
    const FaultSpec spec = FaultSpec::uniform(0.10);
    FaultPlan plan(spec, 7);
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        plan.sample(0);
    const double rate =
        static_cast<double>(
            plan.injected(FaultKind::TransientError)) / n;
    EXPECT_NEAR(rate, 0.10, 0.01);
    EXPECT_EQ(plan.injected(FaultKind::LatencySpike), 0u);
    EXPECT_EQ(plan.injected(FaultKind::StreamReset), 0u);
}

TEST(FaultPlanTest, WindowsKeyToSimulatedTime)
{
    FaultWindow brownout;
    brownout.begin = 10 * kSec;
    brownout.end = 20 * kSec;
    brownout.error_rate = 1.0;
    FaultSpec spec;
    spec.windows.push_back(brownout);
    EXPECT_TRUE(spec.enabled());

    FaultPlan plan(spec, 99);
    EXPECT_EQ(plan.sample(9 * kSec).kind, FaultKind::None);
    EXPECT_EQ(plan.sample(10 * kSec).kind,
              FaultKind::TransientError);
    EXPECT_EQ(plan.sample(19 * kSec).kind,
              FaultKind::TransientError);
    EXPECT_EQ(plan.sample(20 * kSec).kind, FaultKind::None);
}

TEST(FaultPlanTest, DecisionShapesMatchTheirKinds)
{
    const FaultSpec spikes = FaultSpec::uniform(0, 1.0, 0);
    FaultPlan spike_plan(spikes, 3);
    for (int i = 0; i < 200; ++i) {
        const FaultDecision d = spike_plan.sample(0);
        ASSERT_EQ(d.kind, FaultKind::LatencySpike);
        EXPECT_FALSE(d.failed());
        EXPECT_GE(d.extra_latency, 0);
    }

    const FaultSpec resets = FaultSpec::uniform(0, 0, 1.0);
    FaultPlan reset_plan(resets, 3);
    for (int i = 0; i < 200; ++i) {
        const FaultDecision d = reset_plan.sample(0);
        ASSERT_EQ(d.kind, FaultKind::StreamReset);
        EXPECT_TRUE(d.failed());
        EXPECT_GE(d.completed_fraction, 0.0);
        EXPECT_LT(d.completed_fraction, 1.0);
    }
}

TEST(FaultPlanTest, InvalidSpecsAreRejected)
{
    FaultSpec bad_rate = FaultSpec::uniform(1.5);
    EXPECT_THROW(FaultPlan(bad_rate, 1), std::runtime_error);

    FaultSpec bad_window = FaultSpec::uniform(0.1);
    bad_window.windows[0].begin = 10 * kSec;
    bad_window.windows[0].end = 5 * kSec;
    EXPECT_THROW(FaultPlan(bad_window, 1), std::runtime_error);
}

TEST(FaultPlanTest, SummaryCountsInjections)
{
    FaultPlan plan(FaultSpec::uniform(1.0), 5);
    plan.sample(0);
    plan.sample(0);
    EXPECT_EQ(plan.injected(FaultKind::TransientError), 2u);
    EXPECT_EQ(plan.summary(),
              "errors=2 spikes=0 resets=0 of 2 samples");
}

TEST(PreemptionPlanTest, QuietPlanNeverFires)
{
    PreemptionPlan quiet;
    EXPECT_FALSE(quiet.enabled());
    EXPECT_EQ(quiet.poll(kTimeForever), nullptr);
    EXPECT_EQ(quiet.triggered(), 0u);
}

TEST(PreemptionPlanTest, ExplicitEventsSortAndConsumeInOrder)
{
    PreemptionSpec spec;
    spec.events.push_back(
        {20 * kSec, PreemptionKind::Maintenance});
    spec.events.push_back({5 * kSec, PreemptionKind::Eviction});
    PreemptionPlan plan(spec, 1);

    ASSERT_EQ(plan.events().size(), 2u);
    EXPECT_EQ(plan.events()[0].at, 5 * kSec);
    EXPECT_EQ(plan.events()[1].at, 20 * kSec);

    EXPECT_EQ(plan.poll(4 * kSec), nullptr);
    // Both events have landed by t=25s: poll consumes the earliest
    // first, one per call — a consumed event never fires twice.
    const PreemptionEvent *first = plan.poll(25 * kSec);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->at, 5 * kSec);
    EXPECT_EQ(first->kind, PreemptionKind::Eviction);
    const PreemptionEvent *second = plan.poll(25 * kSec);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->at, 20 * kSec);
    EXPECT_EQ(second->kind, PreemptionKind::Maintenance);
    EXPECT_EQ(plan.poll(kTimeForever), nullptr);
    EXPECT_EQ(plan.triggered(), 2u);
    EXPECT_EQ(plan.summary(), "2 scheduled, 2 triggered, "
                              "0 discarded");
}

TEST(PreemptionPlanTest, DiscardUntilDropsWithoutFiring)
{
    PreemptionSpec spec;
    spec.events.push_back({5 * kSec, PreemptionKind::Eviction});
    spec.events.push_back({20 * kSec, PreemptionKind::Eviction});
    PreemptionPlan plan(spec, 1);

    plan.discardUntil(10 * kSec);
    EXPECT_EQ(plan.discarded(), 1u);
    const PreemptionEvent *next = plan.poll(kTimeForever);
    ASSERT_NE(next, nullptr);
    EXPECT_EQ(next->at, 20 * kSec);
    EXPECT_EQ(plan.triggered(), 1u);
}

TEST(PreemptionPlanTest, PoissonScheduleIsDeterministic)
{
    const PreemptionSpec spec = PreemptionSpec::poisson(2.0, 77);
    PreemptionPlan a(spec, 1);
    PreemptionPlan b(spec, 2); // spec seed overrides the fallback
    ASSERT_FALSE(a.events().empty());
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].at, b.events()[i].at);
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        if (i > 0) {
            EXPECT_GE(a.events()[i].at, a.events()[i - 1].at);
        }
    }
    // Backoff jitter comes from the same seeded stream.
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.jitter(), b.jitter());

    PreemptionPlan c(PreemptionSpec::poisson(2.0, 78), 1);
    const bool identical =
        a.events().size() == c.events().size() &&
        a.events()[0].at == c.events()[0].at;
    EXPECT_FALSE(identical);
}

TEST(PreemptionPlanTest, PoissonRateIsApproximatelyHonored)
{
    // 2 arrivals per hour over the default 30-day horizon: expect
    // about 1440 events.
    PreemptionPlan plan(PreemptionSpec::poisson(2.0, 9), 1);
    EXPECT_GT(plan.events().size(), 1200u);
    EXPECT_LT(plan.events().size(), 1700u);
}

TEST(PreemptionPlanTest, InvalidSpecsAreRejected)
{
    PreemptionSpec negative_rate;
    negative_rate.rate_per_hour = -1.0;
    EXPECT_THROW(PreemptionPlan(negative_rate, 1),
                 std::runtime_error);

    PreemptionSpec bad_share = PreemptionSpec::poisson(1.0);
    bad_share.maintenance_share = 1.5;
    EXPECT_THROW(PreemptionPlan(bad_share, 1),
                 std::runtime_error);
}

} // namespace
} // namespace tpupoint
