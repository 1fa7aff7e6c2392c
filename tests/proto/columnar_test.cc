/**
 * @file
 * Columnar record decode: equivalence with the row decoder, buffer
 * reuse, and the steady-state zero-allocation guarantee of the
 * analyzer's read loop.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "core/rng.hh"
#include "proto/serialize.hh"

// Binary-wide allocation counter: every operator new in this test
// binary bumps it, so a test can assert that a code region
// performed no heap allocation at all.
namespace {
std::atomic<std::uint64_t> allocation_count{0};
}

// The replaced pair stays out of line, and every other form
// forwards to it: once malloc/free inline into a caller,
// sanitizer-instrumented GCC builds see them paired with
// new/delete expressions and report -Wmismatched-new-delete.
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

/** A record over a small fixed op vocabulary. */
ProfileRecord
vocabRecord(Rng &rng, std::uint64_t sequence)
{
    ProfileRecord record;
    record.sequence = sequence;
    record.window_begin =
        static_cast<SimTime>(sequence * 1000);
    record.window_end = record.window_begin + 1000;
    record.event_count = 10 + rng.nextBounded(100);
    record.tpu_idle_fraction = rng.nextDouble();
    record.mxu_utilization = rng.nextDouble();
    const char *tpu_names[] = {"fusion", "MatMul", "Reshape",
                               "CrossReplicaSum"};
    const char *host_names[] = {"InfeedEnqueueTuple", "RunGraph"};
    for (std::size_t i = 0; i < 3; ++i) {
        StepStats step;
        step.step = sequence * 3 + i;
        step.begin = static_cast<SimTime>(step.step * 100);
        step.end = step.begin + 100;
        step.tpu_busy = 60;
        step.tpu_idle = 40;
        step.mxu_active = 30;
        for (const char *name : tpu_names) {
            OpStats stats;
            stats.count = 1 + rng.nextBounded(20);
            stats.total_duration =
                static_cast<SimTime>(rng.nextBounded(10000));
            step.tpu_ops[name] = stats;
        }
        for (const char *name : host_names) {
            OpStats stats;
            stats.count = 1 + rng.nextBounded(5);
            stats.total_duration =
                static_cast<SimTime>(rng.nextBounded(10000));
            step.host_ops[name] = stats;
        }
        record.steps.push_back(std::move(step));
    }
    return record;
}

/** Columnar ops of step @p i resolved back to a name-keyed map. */
OpStatsMap
materialize(OpStatsSpan ops)
{
    const StringInterner &interner = StringInterner::global();
    OpStatsMap out;
    for (const ColumnarOpStats &entry : ops) {
        OpStats &stats = out[std::string(interner.view(entry.op))];
        stats.count = entry.count;
        stats.total_duration = entry.total_duration;
    }
    return out;
}

void
expectSameStats(const OpStatsMap &expected, const OpStatsMap &got)
{
    ASSERT_EQ(expected.size(), got.size());
    for (const auto &[name, stats] : expected) {
        ASSERT_TRUE(got.count(name)) << name;
        EXPECT_EQ(stats.count, got.at(name).count);
        EXPECT_EQ(stats.total_duration,
                  got.at(name).total_duration);
    }
}

TEST(ColumnarTest, MatchesRowDecode)
{
    Rng rng(11);
    std::stringstream buffer;
    ProfileWriter writer(buffer);
    for (std::uint64_t i = 0; i < 8; ++i)
        writer.write(vocabRecord(rng, i));
    writer.finish();
    const std::string bytes = buffer.str();

    std::istringstream row_in(bytes);
    std::istringstream col_in(bytes);
    ProfileReader row_reader(row_in);
    ProfileReader col_reader(col_in);
    ProfileRecord row;
    ColumnarRecord col;
    while (row_reader.read(row)) {
        ASSERT_TRUE(col_reader.read(col));
        EXPECT_EQ(row.sequence, col.sequence);
        EXPECT_EQ(row.window_begin, col.window_begin);
        EXPECT_EQ(row.window_end, col.window_end);
        EXPECT_EQ(row.event_count, col.event_count);
        EXPECT_EQ(row.truncated, col.truncated);
        EXPECT_DOUBLE_EQ(row.tpu_idle_fraction,
                         col.tpu_idle_fraction);
        EXPECT_DOUBLE_EQ(row.mxu_utilization,
                         col.mxu_utilization);
        ASSERT_EQ(row.steps.size(), col.stepCount());
        for (std::size_t i = 0; i < col.stepCount(); ++i) {
            const StepStats &step = row.steps[i];
            EXPECT_EQ(step.step, col.step[i]);
            EXPECT_EQ(step.begin, col.begin[i]);
            EXPECT_EQ(step.end, col.end[i]);
            EXPECT_EQ(step.tpu_busy, col.tpu_busy[i]);
            EXPECT_EQ(step.tpu_idle, col.tpu_idle[i]);
            EXPECT_EQ(step.mxu_active, col.mxu_active[i]);
            EXPECT_EQ(step.span(), col.stepSpan(i));
            expectSameStats(step.host_ops,
                            materialize(col.hostOps(i)));
            expectSameStats(step.tpu_ops,
                            materialize(col.tpuOps(i)));
        }
    }
    ASSERT_FALSE(col_reader.read(col));
}

TEST(ColumnarTest, EntriesAreIdSortedWithinStep)
{
    Rng rng(12);
    std::stringstream buffer;
    ProfileWriter writer(buffer);
    writer.write(vocabRecord(rng, 0));
    writer.finish();
    ProfileReader reader(buffer);
    ColumnarRecord record;
    ASSERT_TRUE(reader.read(record));
    for (std::size_t i = 0; i < record.stepCount(); ++i) {
        for (OpStatsSpan ops :
             {record.hostOps(i), record.tpuOps(i)}) {
            for (std::size_t k = 1; k < ops.size(); ++k)
                EXPECT_LT(ops[k - 1].op, ops[k].op);
        }
    }
}

TEST(ColumnarTest, ClearRetainsCapacity)
{
    ColumnarRecord record;
    record.step.assign(100, 0);
    record.tpu_ops.assign(400, {});
    const std::size_t step_cap = record.step.capacity();
    const std::size_t ops_cap = record.tpu_ops.capacity();
    record.clear();
    EXPECT_EQ(record.stepCount(), 0u);
    EXPECT_TRUE(record.tpu_ops.empty());
    EXPECT_EQ(record.step.capacity(), step_cap);
    EXPECT_EQ(record.tpu_ops.capacity(), ops_cap);
}

TEST(ColumnarTest, SteadyStateReadLoopDoesNotAllocate)
{
    // A long stream over a fixed op vocabulary: after a warm-up
    // prefix has sized the chunk buffer, the reused record and the
    // interner, the remaining reads must perform zero heap
    // allocations (the tentpole guarantee of the columnar path).
    Rng rng(13);
    std::stringstream buffer;
    ProfileWriter writer(buffer);
    constexpr std::uint64_t kRecords = 200;
    for (std::uint64_t i = 0; i < kRecords; ++i)
        writer.write(vocabRecord(rng, i));
    writer.finish();

    ProfileReader reader(buffer);
    ColumnarRecord record;
    std::uint64_t produced = 0;
    for (; produced < kRecords / 2; ++produced)
        ASSERT_TRUE(reader.read(record));

    const std::uint64_t growths_before = reader.bufferGrowths();
    const std::uint64_t allocations_before =
        allocation_count.load(std::memory_order_relaxed);
    while (reader.read(record))
        ++produced;
    const std::uint64_t allocations_after =
        allocation_count.load(std::memory_order_relaxed);

    EXPECT_EQ(produced, kRecords);
    EXPECT_EQ(allocations_after - allocations_before, 0u);
    EXPECT_EQ(reader.bufferGrowths(), growths_before);
}

} // namespace
} // namespace tpupoint
