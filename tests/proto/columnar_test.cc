/**
 * @file
 * Columnar record decode: equivalence with the row decoder, buffer
 * reuse, and the steady-state zero-allocation guarantee of the
 * analyzer's read loop; plus the allocation bound of the OLS batch
 * finalize that consumes those records.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "analyzer/analyzer.hh"
#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "proto/serialize.hh"
#include "tests/analyzer/synthetic.hh"

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
    RecordStreamWriter writer(buffer);
    for (std::uint64_t i = 0; i < 8; ++i)
        writer.append(encodeProfileRecord(vocabRecord(rng, i)));
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
    RecordStreamWriter writer(buffer);
    writer.append(encodeProfileRecord(vocabRecord(rng, 0)));
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

void
expectSameOps(OpStatsSpan got, OpStatsSpan want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(got[k].op, want[k].op);
        EXPECT_EQ(got[k].count, want[k].count);
        EXPECT_EQ(got[k].total_duration, want[k].total_duration);
    }
}

// A step that lacks an op shifts every later name off its cached
// position. A long-lived decoder resolves the shifted names from its
// own table; every decode must still equal a fresh decoder's, over
// a vocabulary large enough to grow that table.
TEST(ColumnarTest, ShiftedOpListsDecodeAsAFreshDecoderDoes)
{
    StringInterner interner;
    std::vector<std::string> vocabulary;
    for (int i = 0; i < 300; ++i)
        vocabulary.push_back("op" + std::to_string(i));
    Rng rng(13);
    ColumnarDecoder warm;
    ColumnarRecord warm_record;
    ColumnarRecord fresh_record;
    for (std::uint64_t sequence = 0; sequence < 60; ++sequence) {
        ProfileRecord record;
        record.sequence = sequence;
        for (std::uint64_t s = 0; s < 4; ++s) {
            StepStats step;
            step.step = 4 * sequence + s;
            const std::size_t used =
                1 + rng.nextBounded(vocabulary.size());
            for (std::size_t k = 0; k < used; ++k) {
                const OpStats stats{1 + k, static_cast<SimTime>(k)};
                if (rng.nextBounded(6) != 0)
                    step.tpu_ops[vocabulary[k]] = stats;
                if (rng.nextBounded(6) == 0)
                    step.host_ops[vocabulary[k]] = stats;
            }
            record.steps.push_back(std::move(step));
        }
        const std::string payload = encodeProfileRecord(record);
        ASSERT_TRUE(warm.decode(payload, warm_record, interner));
        ASSERT_TRUE(
            ColumnarDecoder().decode(payload, fresh_record, interner));
        ASSERT_EQ(warm_record.stepCount(), record.steps.size());
        for (std::size_t i = 0; i < record.steps.size(); ++i) {
            expectSameOps(warm_record.hostOps(i), fresh_record.hostOps(i));
            expectSameOps(warm_record.tpuOps(i), fresh_record.tpuOps(i));
            for (const ColumnarOpStats &entry : warm_record.tpuOps(i))
                EXPECT_TRUE(record.steps[i].tpu_ops.count(
                    std::string(interner.view(entry.op))));
        }
        ASSERT_FALSE(HasFailure()) << "record " << sequence;
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
    RecordStreamWriter writer(buffer);
    constexpr std::uint64_t kRecords = 200;
    for (std::uint64_t i = 0; i < kRecords; ++i)
        writer.append(encodeProfileRecord(vocabRecord(rng, i)));
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

/**
 * A repeating three-phase run of @p steps steps (train x12, eval x4,
 * checkpoint x2), ten steps per record, in the columnar form the
 * analyzer ingests.
 */
std::vector<ColumnarRecord>
threePhaseSchedule(std::size_t steps)
{
    const std::vector<std::vector<const char *>> phases = {
        {"fusion", "MatMul", "Conv2DBackpropFilter", "all-reduce"},
        {"ArgMax", "Equal", "Squeeze", "Mean"},
        {"SaveV2", "ShardedFilename", "MergeV2Checkpoints"}};
    const std::size_t lengths[] = {12, 4, 2};
    std::vector<ColumnarRecord> out;
    ProfileRecord record;
    std::size_t phase = 0, left = lengths[0];
    for (std::size_t i = 0; i < steps; ++i) {
        if (left == 0) {
            phase = (phase + 1) % 3;
            left = lengths[phase];
        }
        --left;
        StepStats step;
        step.step = i;
        step.begin = static_cast<SimTime>(i * 100);
        step.end = step.begin + 90;
        for (const char *name : phases[phase]) {
            OpStats &stats = step.tpu_ops[name];
            stats.count = 1 + i % 3;
            stats.total_duration = 10;
        }
        step.host_ops["RunGraph"].add(5);
        record.steps.push_back(std::move(step));
        if (record.steps.size() == 10 || i + 1 == steps) {
            out.push_back(testutil::columnar(record));
            record.steps.clear();
            ++record.sequence;
        }
    }
    return out;
}

/** Heap allocations of one OLS batch finalize over @p steps steps. */
std::uint64_t
olsFinalizeAllocations(std::size_t steps)
{
    AnalyzerOptions options;
    options.algorithm = PhaseAlgorithm::OnlineLinearScan;
    AnalysisSession session(options);
    for (const ColumnarRecord &record : threePhaseSchedule(steps))
        session.ingest(record);
    ThreadPool pool(ThreadPoolOptions{});
    const std::uint64_t before =
        allocation_count.load(std::memory_order_relaxed);
    const AnalysisResult result = session.finalize({}, pool);
    const std::uint64_t after =
        allocation_count.load(std::memory_order_relaxed);
    EXPECT_EQ(result.table.size(), steps);
    EXPECT_EQ(result.phases.size(), 3u);
    return after - before;
}

TEST(ColumnarTest, OlsFinalizeAllocationsDoNotGrowWithSteps)
{
    // build() adopts the builder's rows, the scan reuses its key
    // buffers and the phase sums are dense: what finalize
    // allocates scales with phases and segments' vector doublings,
    // never once per step.
    const std::uint64_t small = olsFinalizeAllocations(1000);
    const std::uint64_t large = olsFinalizeAllocations(8000);
    EXPECT_LT(large > small ? large - small : small - large, 64u)
        << "1,000 steps: " << small << ", 8,000 steps: " << large;
}

} // namespace
} // namespace tpupoint
