/**
 * @file
 * The producer path's allocation bound (DESIGN §16): simulating and
 * profiling a workload allocates a fixed amount of heap, not an
 * amount that grows with the number of steps. This binary replaces
 * the global operator new with a counting one, so it holds only
 * tests that count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <ostream>
#include <streambuf>

#include "profiler/profiler.hh"
#include "runtime/session.hh"
#include "workloads/catalog.hh"

// Binary-wide allocation counter, as in tests/proto/columnar_test.cc.
namespace {
std::atomic<std::uint64_t> allocation_count{0};
}

// Out of line, with every other form forwarding to it (see
// columnar_test.cc: inlined malloc/free trip
// -Wmismatched-new-delete under sanitizer builds).
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    allocation_count.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

namespace tpupoint {
namespace {

/** Accepts and discards every byte, without allocating. */
class DiscardBuf : public std::streambuf
{
  protected:
    std::streamsize
    xsputn(const char *, std::streamsize count) override
    {
        return count;
    }

    int_type
    overflow(int_type ch) override
    {
        return traits_type::not_eof(ch);
    }
};

struct ProfileAllocations
{
    std::uint64_t steps = 0;
    std::uint64_t allocations = 0; ///< Inside sim.run() and stop().
    std::uint64_t events = 0;      ///< Simulator events executed.
};

/** Profile ResNet-ImageNet at @p scale to a discarding stream. */
ProfileAllocations
profileResnet(double scale)
{
    WorkloadOptions options;
    options.step_scale = scale;
    const RuntimeWorkload workload =
        makeWorkload(WorkloadId::ResnetImagenet, options);
    DiscardBuf discard;
    std::ostream out(&discard);

    Simulator sim;
    TrainingSession session(sim, SessionConfig{}, workload);
    ProfilerOptions profiler_options;
    profiler_options.retain_records = false;
    TpuPointProfiler profiler(sim, session, profiler_options);
    profiler.streamTo(out);
    profiler.start(/*analyzer=*/true);
    session.start(nullptr);

    const std::uint64_t before =
        allocation_count.load(std::memory_order_relaxed);
    sim.run();
    profiler.stop();
    const std::uint64_t after =
        allocation_count.load(std::memory_order_relaxed);

    EXPECT_TRUE(session.finished());
    return {session.result().steps_completed, after - before,
            sim.eventsExecuted()};
}

TEST(ProducerAllocationTest, ProfileAllocationsDoNotGrowWithSteps)
{
    // The event queue recycles callback slots, closures stay inline,
    // the collector reuses its step accumulators and the encoder
    // its payload buffer: five times the steps may not cost more
    // allocations beyond a few buffer doublings.
    const ProfileAllocations small = profileResnet(0.02);
    const ProfileAllocations large = profileResnet(0.1);
    ASSERT_GT(large.steps, 4 * small.steps);
    const std::uint64_t spread = large.allocations > small.allocations
        ? large.allocations - small.allocations
        : small.allocations - large.allocations;
    EXPECT_LT(spread, 64u)
        << small.steps << " steps: " << small.allocations
        << " allocations, " << large.steps
        << " steps: " << large.allocations;
    RecordProperty("small_allocations",
                   std::to_string(small.allocations));
    RecordProperty("large_allocations",
                   std::to_string(large.allocations));
}

TEST(ProducerEventBudget, QueueEventsPerStep)
{
    // Queue events per completed step of the profiled ResNet run
    // (v2, profiler attached). Per-stream storage grants and finishes
    // brought this to 36.7; folding fault-free transfers to one grant
    // hop and at most two finishes takes it to 21.6, and one event per
    // queue handoff to 16.5 (DESIGN §16).
    const ProfileAllocations run = profileResnet(0.02);
    ASSERT_GT(run.steps, 0u);
    const double per_step = static_cast<double>(run.events) /
        static_cast<double>(run.steps);
    EXPECT_LE(per_step, 17.0)
        << run.events << " events over " << run.steps << " steps";
    RecordProperty("events_per_step", std::to_string(per_step));
}

} // namespace
} // namespace tpupoint
