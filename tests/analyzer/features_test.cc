/** @file Feature extraction: dimensions, normalization, PCA cap. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string_view>
#include <unordered_map>

#include "analyzer/features.hh"
#include "analyzer/pca.hh"
#include "core/interner.hh"
#include "core/rng.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace {

using testutil::bitMismatch;
using testutil::makeRecord;
using testutil::makeStep;

/** FeatureMatrix::build's outputs, from the oracle below. */
struct KeyedFeatures
{
    std::vector<std::string> labels;
    Matrix data;
    bool reduced = false;
};

/**
 * FeatureMatrix::build before dense column indexes, kept as the
 * oracle: a sorted set of "host:"/"tpu:" labels, a hash map from
 * (side, interned id) to label position for the fill, then the same
 * normalization and PCA.
 */
KeyedFeatures
keyedBuild(const StepTable &table, const FeatureOptions &options)
{
    const StringInterner &interner = StringInterner::global();
    std::set<std::uint32_t> host_ids, tpu_ids;
    for (std::size_t r = 0; r < table.size(); ++r) {
        for (const ColumnarOpStats &entry : table.hostOps(r))
            host_ids.insert(entry.op);
        for (const ColumnarOpStats &entry : table.tpuOps(r))
            tpu_ids.insert(entry.op);
    }
    KeyedFeatures out;
    for (const std::uint32_t id : host_ids)
        out.labels.push_back("host:" + std::string(interner.view(id)));
    for (const std::uint32_t id : tpu_ids)
        out.labels.push_back("tpu:" + std::string(interner.view(id)));
    std::sort(out.labels.begin(), out.labels.end());

    const auto key = [](std::uint32_t id, std::uint64_t side) {
        return (static_cast<std::uint64_t>(id) << 1) | side;
    };
    std::unordered_map<std::uint64_t, std::size_t> column_of;
    for (std::size_t u = 0; u < out.labels.size(); ++u) {
        std::string_view label = out.labels[u];
        const std::uint64_t side = label.substr(0, 5) == "host:" ? 0 : 1;
        label.remove_prefix(side == 0 ? 5 : 4);
        std::uint32_t id = 0;
        if (interner.lookup(label, id))
            column_of.emplace(key(id, side), u);
    }

    const std::size_t raw_dims =
        std::max<std::size_t>(out.labels.size() * 2, 1);
    out.data.resize(table.size(), raw_dims);
    for (std::size_t r = 0; r < table.size(); ++r) {
        const auto fill = [&](OpStatsSpan ops, std::uint64_t side) {
            for (const ColumnarOpStats &entry : ops) {
                const std::size_t d = column_of.at(key(entry.op, side)) * 2;
                out.data.at(r, d) = static_cast<double>(entry.count);
                out.data.at(r, d + 1) =
                    static_cast<double>(entry.total_duration);
            }
        };
        fill(table.hostOps(r), 0);
        fill(table.tpuOps(r), 1);
    }

    for (std::size_t d = 0; d < raw_dims; ++d) {
        double maximum = 0.0;
        for (std::size_t r = 0; r < table.size(); ++r)
            maximum = std::max(maximum, std::abs(out.data.at(r, d)));
        if (maximum > 0)
            for (std::size_t r = 0; r < table.size(); ++r)
                out.data.at(r, d) /= maximum;
    }
    if (raw_dims > options.max_dimensions && table.size() > 1) {
        Rng rng(options.pca_seed);
        const PcaModel pca =
            fitPca(out.data, options.max_dimensions, rng);
        out.data = pca.projectAll(out.data);
        out.reduced = true;
    }
    return out;
}

/**
 * Steps drawing random counts and durations from a pool of op
 * names: each op appears in only some rows, "rare" in one row, and
 * "Shared" and "MatMul" name both a host and a TPU op.
 */
StepTable
mixedTable(std::size_t steps, std::uint64_t seed)
{
    const std::vector<std::string> tpu = {
        "fusion", "MatMul", "Shared", "conv2d", "Relu", "add.12",
        "all-reduce", "copy", "Zeta", "bias_add"};
    const std::vector<std::string> host = {
        "Shared", "MatMul", "InfeedEnqueue", "RunGraph", "Recv",
        "OutfeedDequeue", "_Send"};
    Rng rng(seed);
    const auto stats = [&rng]() {
        OpStats op;
        op.count = 1 + rng.nextBounded(40);
        op.total_duration =
            static_cast<SimTime>(rng.nextBounded(5'000'000));
        return op;
    };
    std::vector<StepStats> rows;
    for (std::size_t s = 0; s < steps; ++s) {
        StepStats step;
        step.step = s;
        step.begin = static_cast<SimTime>(s) * 1000;
        step.end = step.begin + 900;
        for (const std::string &name : tpu)
            if (rng.bernoulli(0.7))
                step.tpu_ops[name] = stats();
        for (const std::string &name : host)
            if (rng.bernoulli(0.5))
                step.host_ops[name] = stats();
        if (s == steps / 2)
            step.tpu_ops["rare"] = stats();
        rows.push_back(std::move(step));
    }
    return testutil::tableOf({makeRecord(rows)});
}

TEST(FeaturesTest, TwoDimensionsPerOp)
{
    auto record = makeRecord({makeStep(0, {"fusion", "MatMul"}),
                              makeStep(1, {"fusion"})});
    const StepTable table = testutil::tableOf({record});
    const FeatureMatrix features = FeatureMatrix::build(table);
    // 2 distinct ops x (count, duration) = 4 dims.
    EXPECT_EQ(features.dimensions(), 4u);
    EXPECT_EQ(features.matrix().rows(), 2u);
    EXPECT_FALSE(features.pcaApplied());
    EXPECT_EQ(features.rawDimensions().size(), 2u);
}

TEST(FeaturesTest, MissingOpsAreZero)
{
    auto record = makeRecord({makeStep(0, {"fusion", "MatMul"}),
                              makeStep(1, {"fusion"})});
    const StepTable table = testutil::tableOf({record});
    const FeatureMatrix features = FeatureMatrix::build(table);
    // Step 1 lacks MatMul: some dimension must be exactly zero.
    const Matrix &data = features.matrix();
    bool has_zero = false;
    for (std::size_t c = 0; c < data.cols(); ++c)
        has_zero |= data.at(1, c) == 0.0;
    EXPECT_TRUE(has_zero);
}

TEST(FeaturesTest, NormalizationBoundsDimensions)
{
    auto record = makeRecord({makeStep(0, {"fusion"}),
                              makeStep(1, {"fusion"})});
    const StepTable table = testutil::tableOf({record});
    const FeatureMatrix features = FeatureMatrix::build(table);
    const Matrix &data = features.matrix();
    for (std::size_t r = 0; r < data.rows(); ++r)
        for (std::size_t c = 0; c < data.cols(); ++c) {
            EXPECT_GE(data.at(r, c), -1.0);
            EXPECT_LE(data.at(r, c), 1.0);
        }
}

TEST(FeaturesTest, PcaCapsDimensions)
{
    // Manufacture steps with many distinct op labels.
    std::vector<StepStats> steps;
    for (StepId s = 0; s < 20; ++s) {
        std::vector<std::string> ops;
        for (int i = 0; i < 40; ++i)
            ops.push_back("op_" + std::to_string(i) + "_" +
                          std::to_string(s % 4));
        steps.push_back(makeStep(s, ops));
    }
    const StepTable table =
        testutil::tableOf({makeRecord(steps)});
    FeatureOptions options;
    options.max_dimensions = 10;
    const FeatureMatrix features =
        FeatureMatrix::build(table, options);
    EXPECT_TRUE(features.pcaApplied());
    EXPECT_LE(features.dimensions(), 10u);
    EXPECT_EQ(features.matrix().rows(), 20u);
}

TEST(FeaturesTest, RawDimensionsAreSortedAndPrefixed)
{
    auto record = makeRecord(
        {makeStep(0, {"MatMul"}, {"RunGraph"}),
         makeStep(1, {"fusion"}, {"Recv"})});
    const StepTable table = testutil::tableOf({record});
    const std::vector<std::string> labels =
        FeatureMatrix::build(table).rawDimensions();
    ASSERT_EQ(labels.size(), 4u);
    EXPECT_EQ(labels[0], "host:Recv");
    EXPECT_EQ(labels[1], "host:RunGraph");
    EXPECT_EQ(labels[2], "tpu:MatMul");
    EXPECT_EQ(labels[3], "tpu:fusion");
}

TEST(FeaturesTest, BuildMatchesKeyedOracle)
{
    std::vector<std::pair<std::string, FeatureOptions>> cases;
    cases.emplace_back("default", FeatureOptions{});
    // 18 ops x 2 = 36 raw dimensions: these force PCA.
    FeatureOptions pca;
    pca.max_dimensions = 6;
    cases.emplace_back("pca", pca);

    for (const std::size_t steps : {1, 2, 7, 60, 301}) {
        const StepTable table = mixedTable(steps, 31 + steps);
        for (const auto &[name, options] : cases) {
            const FeatureMatrix got = FeatureMatrix::build(table, options);
            const KeyedFeatures want = keyedBuild(table, options);
            EXPECT_EQ(got.rawDimensions(), want.labels)
                << name << ", " << steps << " steps";
            EXPECT_EQ(bitMismatch(got.matrix(), want.data), "")
                << name << ", " << steps << " steps";
            EXPECT_EQ(got.pcaApplied(), want.reduced)
                << name << ", " << steps << " steps";
        }
    }
    const StepTable shared = mixedTable(60, 5);
    const std::vector<std::string> labels =
        FeatureMatrix::build(shared).rawDimensions();
    EXPECT_EQ(std::count(labels.begin(), labels.end(), "host:Shared"), 1);
    EXPECT_EQ(std::count(labels.begin(), labels.end(), "tpu:Shared"), 1);
    EXPECT_EQ(std::count(labels.begin(), labels.end(), "tpu:rare"), 1);
}

TEST(FeaturesTest, PaperDefaultCapIsOneHundred)
{
    EXPECT_EQ(FeatureOptions{}.max_dimensions, 100u);
}

TEST(FeaturesTest, EmptyTable)
{
    const StepTable table = StepTableBuilder().build();
    const FeatureMatrix features = FeatureMatrix::build(table);
    EXPECT_EQ(features.matrix().rows(), 0u);
    EXPECT_EQ(features.dimensions(), 0u);
    EXPECT_TRUE(features.rawDimensions().empty());
}

} // namespace
} // namespace tpupoint
