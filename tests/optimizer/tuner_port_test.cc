/**
 * @file
 * The tuner's phase tracking reads decoded columns: step similarity
 * over OLS operator keys and a phase ranking keyed by interned name.
 * Both are held against the label-string code they replaced, copied
 * here as oracles (StepStats::opSet, setSimilarity and the ranking
 * matchesCommonPattern ran over name-keyed OpStatsMaps), on seeded
 * random steps: shared and disjoint names, empty steps, one name on
 * both the host and the TPU side, and many equal durations. The
 * vocabulary is interned in reverse name order, so a ranking that
 * ordered ties by id instead of name would diverge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "analyzer/ols.hh"
#include "core/rng.hh"
#include "optimizer/tuner.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace {

/** Oracle: the distinct op labels of a step, "host:"/"tpu:" prefixed,
 * sorted (the removed StepStats::opSet). */
std::vector<std::string>
opSet(const StepStats &step)
{
    std::vector<std::string> out;
    for (const auto &[name, stats] : step.host_ops)
        out.push_back("host:" + name);
    for (const auto &[name, stats] : step.tpu_ops)
        out.push_back("tpu:" + name);
    return out; // sorted: maps iterate in key order, prefixes kept
}

/** Oracle: Equation 1 over sorted label sets (the removed
 * OnlineLinearScan::setSimilarity). */
double
setSimilarity(const std::vector<std::string> &a,
              const std::vector<std::string> &b)
{
    if (a.empty() || b.empty())
        return a.empty() && b.empty() ? 1.0 : 0.0;
    std::size_t i = 0, j = 0, common = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] == b[j]) {
            ++common;
            ++i;
            ++j;
        } else if (a[i] < b[j]) {
            ++i;
        } else {
            ++j;
        }
    }
    return static_cast<double>(common) /
        static_cast<double>(std::min(a.size(), b.size()));
}

/** Oracle: the tuner's former top-5 ranking over name-keyed maps. */
std::vector<std::pair<std::string, SimTime>>
oracleTop5(const OpStatsMap &tpu, const OpStatsMap &host)
{
    std::vector<std::pair<std::string, SimTime>> ranked;
    for (const auto &[name, stats] : tpu)
        ranked.emplace_back("tpu:" + name, stats.total_duration);
    for (const auto &[name, stats] : host)
        ranked.emplace_back("host:" + name, stats.total_duration);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    if (ranked.size() > 5)
        ranked.resize(5);
    return ranked;
}

/** A vocabulary interned in reverse name order: ids descend as
 * names ascend. */
const std::vector<std::string> &
vocabulary()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (int i = 0; i < 12; ++i) {
            out.push_back("tuner-port-op-" +
                          std::string(1, static_cast<char>('a' + i)));
        }
        for (auto it = out.rbegin(); it != out.rend(); ++it)
            StringInterner::global().intern(*it);
        return out;
    }();
    return names;
}

/** A random step: each side draws a random subset of the
 * vocabulary (often empty), durations from a few values so ties
 * are common. */
StepStats
randomStep(Rng &rng, StepId id)
{
    const std::vector<std::string> &names = vocabulary();
    StepStats step;
    step.step = id;
    step.begin = static_cast<SimTime>(id) * 1000;
    step.end = step.begin + 500 + static_cast<SimTime>(
        rng.nextBounded(500));
    const double density = rng.nextDouble();
    for (const std::string &name : names) {
        if (rng.nextDouble() < density) {
            step.tpu_ops[name] = OpStats{
                1, 10 * static_cast<SimTime>(rng.nextBounded(4))};
        }
        if (rng.nextDouble() < density / 2) {
            step.host_ops[name] = OpStats{
                1, 10 * static_cast<SimTime>(rng.nextBounded(4))};
        }
    }
    return step;
}

/** The OLS key set of @p step, taken off its decoded columns. */
std::vector<std::uint64_t>
keysOf(const StepStats &step)
{
    const ColumnarRecord record =
        testutil::columnar(testutil::makeRecord({step}));
    std::vector<std::uint64_t> keys;
    OnlineLinearScan::stepKeys(record.hostOps(0), record.tpuOps(0),
                               keys);
    return keys;
}

TEST(StepStatsTest, OpSetIsPrefixedAndSorted)
{
    StepStats s;
    s.step = 0;
    s.tpu_ops["MatMul"].add(1);
    s.host_ops["RunGraph"].add(1);
    s.tpu_ops["Relu"].add(1);
    const auto set = opSet(s);
    ASSERT_EQ(set.size(), 3u);
    EXPECT_EQ(set[0], "host:RunGraph");
    EXPECT_EQ(set[1], "tpu:MatMul");
    EXPECT_EQ(set[2], "tpu:Relu");
}

TEST(TunerPortTest, KeySimilarityMatchesLabelSetOracle)
{
    Rng rng(0x54554e45ULL); // "TUNE"
    std::size_t empty = 0, partial = 0;
    for (StepId i = 0; i < 400; ++i) {
        const StepStats a = randomStep(rng, 2 * i);
        // Every fourth pair compares a step with a near copy of
        // itself; the rest are independent draws.
        StepStats b = randomStep(rng, 2 * i + 1);
        if (i % 4 == 0) {
            b.tpu_ops = a.tpu_ops;
            b.host_ops.clear();
        }
        const double oracle = setSimilarity(opSet(a), opSet(b));
        EXPECT_EQ(OnlineLinearScan::keySimilarity(keysOf(a), keysOf(b)),
                  oracle)
            << "pair " << i;
        empty += opSet(a).empty() || opSet(b).empty() ? 1 : 0;
        partial += oracle > 0.0 && oracle < 1.0 ? 1 : 0;
    }
    // The draw covers the cases that matter.
    EXPECT_GT(empty, 10u);
    EXPECT_GT(partial, 100u);
}

TEST(TunerPortTest, SideSeparatesNamesakes)
{
    StepStats host_side, tpu_side;
    host_side.host_ops["tuner-port-op-a"] = OpStats{1, 10};
    tpu_side.tpu_ops["tuner-port-op-a"] = OpStats{1, 10};
    EXPECT_EQ(OnlineLinearScan::keySimilarity(keysOf(host_side),
                                              keysOf(tpu_side)),
              0.0);
    EXPECT_EQ(setSimilarity(opSet(host_side), opSet(tpu_side)), 0.0);
}

TEST(TunerPortTest, TopFiveRanksLikeTheNameOrderedOracle)
{
    Rng rng(0x52414e4bULL); // "RANK"
    std::size_t tied_at_cut = 0;
    for (int phase = 0; phase < 200; ++phase) {
        OpStatsMap oracle_tpu, oracle_host;
        PhaseOpTimes port;
        const std::uint64_t steps = 1 + rng.nextBounded(4);
        for (std::uint64_t s = 0; s < steps; ++s) {
            const StepStats step = randomStep(rng, s);
            for (const auto &[name, stats] : step.tpu_ops)
                oracle_tpu[name].merge(stats);
            for (const auto &[name, stats] : step.host_ops)
                oracle_host[name].merge(stats);
            const ColumnarRecord record =
                testutil::columnar(testutil::makeRecord({step}));
            port.add(record.hostOps(0), record.tpuOps(0));
        }

        const auto oracle = oracleTop5(oracle_tpu, oracle_host);
        std::vector<std::pair<std::string, SimTime>> ported;
        for (const PhaseOp &op : port.top(5)) {
            ported.emplace_back(
                (op.tpu ? "tpu:" : "host:") + std::string(op.name),
                op.duration);
        }
        EXPECT_EQ(ported, oracle) << "phase " << phase;

        // Count phases whose fifth entry ties with a sixth: those
        // only rank alike when ties resolve by name order.
        std::vector<SimTime> all;
        for (const auto &[name, stats] : oracle_tpu)
            all.push_back(stats.total_duration);
        for (const auto &[name, stats] : oracle_host)
            all.push_back(stats.total_duration);
        std::sort(all.rbegin(), all.rend());
        if (all.size() > 5 && all[4] == all[5])
            ++tied_at_cut;
    }
    EXPECT_GT(tied_at_cut, 20u);
}

} // namespace
} // namespace tpupoint
