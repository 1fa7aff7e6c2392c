/** @file Step table aggregation across profile records. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analyzer/step_table.hh"
#include "core/rng.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace {

using testutil::columnar;
using testutil::findOp;
using testutil::makeRecord;
using testutil::makeStep;

TEST(StepTableTest, MergesRecordsByStep)
{
    // Step 2 spans two profile windows.
    auto first = makeRecord(
        {makeStep(1, {"fusion"}), makeStep(2, {"fusion"})}, 0);
    auto second = makeRecord(
        {makeStep(2, {"MatMul"}), makeStep(3, {"fusion"})}, 1);
    const StepTable table =
        testutil::tableOf({first, second});

    ASSERT_EQ(table.size(), 3u);
    EXPECT_EQ(table.stepId(0), 1u);
    EXPECT_EQ(table.stepId(1), 2u);
    EXPECT_EQ(table.stepId(2), 3u);
    // The merged step carries both windows' ops.
    EXPECT_EQ(table.tpuOps(1).size(), 2u);
    EXPECT_NE(findOp(table.tpuOps(1), "fusion"), nullptr);
    EXPECT_NE(findOp(table.tpuOps(1), "MatMul"), nullptr);
}

TEST(StepTableTest, StepsAreAscendingRegardlessOfInput)
{
    auto record = makeRecord({makeStep(9, {"a"}),
                              makeStep(3, {"b"}),
                              makeStep(7, {"c"})});
    const StepTable table = testutil::tableOf({record});
    ASSERT_EQ(table.size(), 3u);
    EXPECT_EQ(table.stepId(0), 3u);
    EXPECT_EQ(table.stepId(1), 7u);
    EXPECT_EQ(table.stepId(2), 9u);
}

TEST(StepTableTest, TotalDurationSumsSpans)
{
    auto record = makeRecord(
        {makeStep(0, {"a"}, {}, 100), makeStep(1, {"a"}, {}, 50)});
    const StepTable table = testutil::tableOf({record});
    EXPECT_EQ(table.totalDuration(), 150);
}

TEST(StepTableTest, DropAfterErasesTailAndReportsSpan)
{
    StepTableBuilder builder;
    builder.ingest(columnar(makeRecord({makeStep(1, {"a"}, {}, 100),
                                        makeStep(2, {"a"}, {}, 100),
                                        makeStep(3, {"a"}, {}, 100),
                                        makeStep(4, {"a"}, {}, 100)})));
    SimTime span = 0;
    EXPECT_EQ(builder.dropAfter(2, &span), 2u);
    EXPECT_EQ(span, 200);
    EXPECT_EQ(builder.stepsAggregated(), 2u);
    // Idempotent once the tail is gone.
    EXPECT_EQ(builder.dropAfter(2), 0u);

    const StepTable table = std::move(builder).build();
    ASSERT_EQ(table.size(), 2u);
    EXPECT_EQ(table.stepId(1), 2u);
}

TEST(StepTableTest, DropAfterCountsMergedWindowEnvelope)
{
    // Step 3 arrives in two windows (its envelope widens on the
    // second merge) and step 5 arrives before step 4; the dropped
    // span must reflect the merged columnar rows, not the raw
    // ingest order.
    StepTableBuilder builder;
    builder.ingest(columnar(makeRecord({makeStep(2, {"a"}, {}, 100),
                                        makeStep(3, {"a"}, {}, 100)})));
    builder.ingest(columnar(makeRecord({makeStep(3, {"a"}, {}, 100),
                                        makeStep(5, {"a"}, {}, 100)})));
    builder.ingest(columnar(makeRecord({makeStep(4, {"a"}, {}, 100)})));
    SimTime span = 0;
    // Drops steps 3 (merged, same envelope), 4 and 5.
    EXPECT_EQ(builder.dropAfter(2, &span), 3u);
    EXPECT_EQ(span, 300);
    const StepTable table = std::move(builder).build();
    ASSERT_EQ(table.size(), 1u);
    EXPECT_EQ(table.stepId(0), 2u);
}

TEST(StepTableTest, MarkReplayedFlagsReingestedRange)
{
    StepTableBuilder builder;
    builder.ingest(columnar(makeRecord({makeStep(1, {"a"}),
                                        makeStep(2, {"a"}),
                                        makeStep(3, {"a"})})));
    // The dead attempt reached step 3, the restart resumes at 1:
    // steps (1, 3] come back as replays.
    builder.dropAfter(1);
    builder.markReplayed(1, 3);
    builder.ingest(columnar(makeRecord(
        {makeStep(2, {"a"}), makeStep(3, {"a"}),
         makeStep(4, {"a"})},
        1)));

    const StepTable table = std::move(builder).build();
    ASSERT_EQ(table.size(), 4u);
    EXPECT_FALSE(table.replayed(0)); // step 1
    EXPECT_TRUE(table.replayed(1));  // step 2: replayed
    EXPECT_TRUE(table.replayed(2));  // step 3: replayed
    EXPECT_FALSE(table.replayed(3)); // step 4: new progress
    // Replayed steps count once: one row each, single-window span
    // and a single op invocation, not a doubled aggregate.
    EXPECT_EQ(table.span(1), 100 * kUsec);
    const ColumnarOpStats *a = findOp(table.tpuOps(1), "a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->count, 1u);
}

TEST(StepTableTest, MarkReplayedEmptyRangeIsIgnored)
{
    StepTableBuilder builder;
    builder.markReplayed(5, 5);
    builder.markReplayed(7, 3);
    builder.ingest(columnar(makeRecord({makeStep(5, {"a"}),
                                        makeStep(4, {"a"})})));
    const StepTable table = std::move(builder).build();
    EXPECT_FALSE(table.replayed(0));
    EXPECT_FALSE(table.replayed(1));
}

TEST(StepTableTest, EmptyInput)
{
    const StepTable table = StepTableBuilder().build();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.totalDuration(), 0);
}

// ---------------------------------------------------------------
// Arrival property: the table is a function of the step data, not
// of how it arrives. Seeded steps are cut into pieces (windows),
// the pieces arrive shuffled within an overlap depth, packed into
// records of random size, with attempt stitches in between; every
// row must equal a std::map oracle that folds the same pieces.
// ---------------------------------------------------------------

/** One window's share of one step. */
struct Piece
{
    StepId step = 0;
    SimTime begin = 0, end = 0, busy = 0, idle = 0, mxu = 0;
    std::vector<ColumnarOpStats> host, tpu; ///< id-sorted.
};

/** The oracle's row: plain maps, folded the obvious way. */
struct OracleRow
{
    SimTime begin = 0, end = 0, busy = 0, idle = 0, mxu = 0;
    bool replayed = false;
    std::map<std::uint32_t, std::pair<std::uint64_t, SimTime>> host,
        tpu;
};

using Oracle = std::map<StepId, OracleRow>;

SimTime
oracleSpan(const OracleRow &row)
{
    return row.end > row.begin ? row.end - row.begin : 0;
}

/** An id-sorted run of up to @p most distinct ops. */
std::vector<ColumnarOpStats>
randomOps(Rng &rng, std::size_t most)
{
    std::map<std::uint32_t, ColumnarOpStats> ops;
    const std::size_t n = rng.nextBounded(most + 1);
    for (std::size_t k = 0; k < n; ++k) {
        ColumnarOpStats entry;
        // Mostly a small shared vocabulary, sometimes a far id.
        entry.op = static_cast<std::uint32_t>(
            rng.bernoulli(0.9) ? rng.nextBounded(48)
                               : rng.nextBounded(1u << 20));
        entry.count = rng.nextBounded(6); // zero counts included
        entry.total_duration =
            static_cast<SimTime>(rng.nextBounded(1u << 30));
        ops[entry.op] = entry;
    }
    std::vector<ColumnarOpStats> out;
    out.reserve(ops.size());
    for (const auto &[id, entry] : ops)
        out.push_back(entry);
    return out;
}

/** @p steps steps, each cut into 1-4 pieces, in step order. */
std::vector<Piece>
randomPieces(Rng &rng, std::size_t steps)
{
    std::vector<Piece> pieces;
    StepId id = rng.nextBounded(1000);
    for (std::size_t s = 0; s < steps; ++s) {
        id += 1 + rng.nextBounded(3);
        const SimTime base = static_cast<SimTime>(id) * 1000;
        const std::size_t cuts = 1 + rng.nextBounded(4);
        for (std::size_t c = 0; c < cuts; ++c) {
            Piece piece;
            piece.step = id;
            piece.begin =
                base + static_cast<SimTime>(rng.nextBounded(900));
            // Now and then an empty or inverted window.
            piece.end = piece.begin +
                static_cast<SimTime>(rng.nextBounded(1200)) - 100;
            piece.busy = static_cast<SimTime>(rng.nextBounded(500));
            piece.idle = static_cast<SimTime>(rng.nextBounded(500));
            piece.mxu = static_cast<SimTime>(rng.nextBounded(500));
            piece.host = randomOps(rng, 6);
            piece.tpu = randomOps(rng, 12);
            pieces.push_back(std::move(piece));
        }
    }
    return pieces;
}

/** Pack @p pieces into one columnar record, in order. */
ColumnarRecord
recordOf(const std::vector<const Piece *> &pieces)
{
    ColumnarRecord record;
    record.host_offsets.push_back(0);
    record.tpu_offsets.push_back(0);
    for (const Piece *piece : pieces) {
        record.step.push_back(piece->step);
        record.begin.push_back(piece->begin);
        record.end.push_back(piece->end);
        record.tpu_busy.push_back(piece->busy);
        record.tpu_idle.push_back(piece->idle);
        record.mxu_active.push_back(piece->mxu);
        record.host_ops.insert(record.host_ops.end(),
                               piece->host.begin(), piece->host.end());
        record.tpu_ops.insert(record.tpu_ops.end(), piece->tpu.begin(),
                              piece->tpu.end());
        record.host_offsets.push_back(
            static_cast<std::uint32_t>(record.host_ops.size()));
        record.tpu_offsets.push_back(
            static_cast<std::uint32_t>(record.tpu_ops.size()));
    }
    return record;
}

void
oracleFold(Oracle &oracle, const Piece &piece,
           const std::vector<std::pair<StepId, StepId>> &replays)
{
    const auto [it, fresh] = oracle.try_emplace(piece.step);
    OracleRow &row = it->second;
    if (fresh) {
        row.begin = piece.begin;
        row.end = piece.end;
    } else {
        row.begin = std::min(row.begin, piece.begin);
        row.end = std::max(row.end, piece.end);
    }
    row.busy += piece.busy;
    row.idle += piece.idle;
    row.mxu += piece.mxu;
    for (const ColumnarOpStats &entry : piece.host) {
        row.host[entry.op].first += entry.count;
        row.host[entry.op].second += entry.total_duration;
    }
    for (const ColumnarOpStats &entry : piece.tpu) {
        row.tpu[entry.op].first += entry.count;
        row.tpu[entry.op].second += entry.total_duration;
    }
    for (const auto &[after, through] : replays) {
        if (piece.step > after && piece.step <= through)
            row.replayed = true;
    }
}

/** Rank of @p step among the oracle's rows. */
std::size_t
oracleRank(const Oracle &oracle, StepId step)
{
    return static_cast<std::size_t>(
        std::distance(oracle.begin(), oracle.lower_bound(step)));
}

/** "" when every row of @p table equals @p oracle bit for bit. */
std::string
tableMismatch(const StepTable &table, const Oracle &oracle)
{
    if (table.size() != oracle.size()) {
        return "rows " + std::to_string(table.size()) + " vs " +
            std::to_string(oracle.size());
    }
    auto sameOps =
        [](OpStatsSpan got,
           const std::map<std::uint32_t,
                          std::pair<std::uint64_t, SimTime>> &want) {
            if (got.size() != want.size())
                return false;
            std::size_t k = 0;
            for (const auto &[id, stats] : want) {
                const ColumnarOpStats &entry = got[k++];
                if (entry.op != id || entry.count != stats.first ||
                    entry.total_duration != stats.second)
                    return false;
            }
            return true;
        };
    std::size_t i = 0;
    for (const auto &[step, row] : oracle) {
        const std::string where = "row " + std::to_string(i) +
            " (step " + std::to_string(step) + "): ";
        if (table.stepId(i) != step)
            return where + "id " + std::to_string(table.stepId(i));
        if (table.beginTime(i) != row.begin ||
            table.endTime(i) != row.end ||
            table.span(i) != oracleSpan(row))
            return where + "envelope";
        if (table.tpuBusy(i) != row.busy ||
            table.tpuIdle(i) != row.idle ||
            table.mxuActive(i) != row.mxu)
            return where + "counters";
        if (table.replayed(i) != row.replayed)
            return where + "replay flag";
        if (!sameOps(table.hostOps(i), row.host))
            return where + "host ops";
        if (!sameOps(table.tpuOps(i), row.tpu))
            return where + "tpu ops";
        ++i;
    }
    return "";
}

TEST(StepTablePropertyTest, AnyArrivalChunkingAndStitchMatchesOracle)
{
    // Overlap depth: how many rows back a late piece may land.
    // SIZE_MAX shuffles the whole run.
    const std::size_t depths[] = {0, 1, 2, 8, 64, 2048,
                                  static_cast<std::size_t>(-1)};
    std::uint64_t seed = 0;
    for (const std::size_t depth : depths) {
        for (int trial = 0; trial < 4; ++trial, ++seed) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " depth " +
                         std::to_string(depth));
            Rng rng(0x57e9 + seed);
            const std::size_t steps = depth == 2048
                ? 2100 + rng.nextBounded(400)
                : 20 + rng.nextBounded(500);
            const std::vector<Piece> pieces =
                randomPieces(rng, steps);

            // Arrival order: each piece is due at its step's
            // position plus a delay within the depth; a step's
            // first piece may be late too, which inserts its row
            // between existing ones.
            std::vector<std::pair<std::uint64_t, std::size_t>> order;
            order.reserve(pieces.size());
            std::size_t position = 0;
            for (std::size_t p = 0; p < pieces.size(); ++p) {
                if (p > 0 && pieces[p].step != pieces[p - 1].step)
                    ++position;
                const std::uint64_t delay = depth == 0
                    ? 0
                    : rng.nextBounded(std::min<std::uint64_t>(
                          depth, 1u << 20) + 1);
                // Ties keep their generated order.
                order.emplace_back((position + delay) << 20 | p, p);
            }
            std::sort(order.begin(), order.end());

            StepTableBuilder builder;
            Oracle oracle;
            std::vector<std::pair<StepId, StepId>> replays;
            std::size_t next = 0;
            std::size_t records = 0;
            while (next < order.size()) {
                // Attempt stitch: drop the tail past a seen step,
                // then mark a replay range (possibly empty).
                if (!oracle.empty() && rng.bernoulli(0.03)) {
                    auto pick = oracle.begin();
                    std::advance(pick, static_cast<std::ptrdiff_t>(
                                           rng.nextBounded(
                                               oracle.size())));
                    const StepId after = pick->first;
                    SimTime want_span = 0;
                    std::size_t want_rows = 0;
                    for (auto it = std::next(pick);
                         it != oracle.end(); ++it) {
                        want_span += oracleSpan(it->second);
                        ++want_rows;
                    }
                    oracle.erase(std::next(pick), oracle.end());
                    builder.clearTouchedFloor();
                    SimTime span = 0;
                    ASSERT_EQ(builder.dropAfter(after, &span),
                              want_rows);
                    ASSERT_EQ(span, want_span);
                    if (want_rows > 0) {
                        ASSERT_EQ(builder.touchedFloor(),
                                  oracle.size());
                    }
                    // through == after: an empty range, ignored.
                    const StepId through =
                        after + rng.nextBounded(40);
                    builder.markReplayed(after, through);
                    if (through > after)
                        replays.emplace_back(after, through);
                }

                const std::size_t take = std::min<std::size_t>(
                    order.size() - next, 1 + rng.nextBounded(24));
                std::vector<const Piece *> batch;
                StepId lowest = static_cast<StepId>(-1);
                for (std::size_t k = 0; k < take; ++k) {
                    const Piece &piece = pieces[order[next++].second];
                    batch.push_back(&piece);
                    oracleFold(oracle, piece, replays);
                    lowest = std::min(lowest, piece.step);
                }
                builder.clearTouchedFloor();
                builder.ingest(recordOf(batch));
                ++records;
                // The rewind floor is the final rank of the lowest
                // step the record folded: no row below it moved.
                ASSERT_EQ(builder.touchedFloor(),
                          oracleRank(oracle, lowest));
                if (records % 97 == 0) {
                    const std::string diff =
                        tableMismatch(builder.rows(), oracle);
                    ASSERT_EQ(diff, "") << "mid-stream";
                }
            }
            EXPECT_EQ(builder.recordsIngested(), records);
            EXPECT_EQ(builder.stepsAggregated(), oracle.size());
            const StepTable table = std::move(builder).build();
            EXPECT_EQ(tableMismatch(table, oracle), "");
        }
    }
}

} // namespace
} // namespace tpupoint
