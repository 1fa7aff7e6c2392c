#include "analyzer/features.hh"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <utility>

#include "analyzer/pca.hh"
#include "core/interner.hh"
#include "core/rng.hh"

namespace tpupoint {

namespace {

/** A dense column-index slot whose op id the table never uses. */
constexpr std::uint32_t kNoColumn = ~std::uint32_t{0};

/**
 * Mark the ids of one step's entries (id-sorted, so the last is the
 * largest) as used; assignColumns overwrites the mark with the
 * column.
 */
void
markUsed(std::vector<std::uint32_t> &column, OpStatsSpan ops)
{
    if (ops.empty())
        return;
    if (ops.back().op >= column.size())
        column.resize(ops.back().op + std::size_t{1}, kNoColumn);
    for (const ColumnarOpStats &entry : ops)
        column[entry.op] = 0;
}

/**
 * Give one side's used ids their universe positions, in name order,
 * and append their "prefix:name" labels. Host labels are appended
 * first, so positions follow the sorted label order: "host:" sorts
 * before "tpu:", and a shared prefix leaves the name order.
 */
void
assignColumns(std::vector<std::uint32_t> &column,
              std::string_view prefix, std::vector<std::string> &labels)
{
    const StringInterner &interner = StringInterner::global();
    std::vector<std::pair<std::string_view, std::uint32_t>> used;
    for (std::size_t i = 0; i < column.size(); ++i) {
        const auto id = static_cast<std::uint32_t>(i);
        if (column[id] != kNoColumn)
            used.emplace_back(interner.view(id), id);
    }
    std::sort(used.begin(), used.end());
    for (const auto &[name, id] : used) {
        column[id] = static_cast<std::uint32_t>(labels.size());
        std::string label(prefix);
        label += name;
        labels.push_back(std::move(label));
    }
}

} // namespace

FeatureMatrix
FeatureMatrix::build(const StepTable &table,
                     const FeatureOptions &options)
{
    FeatureMatrix out;

    // Dense per-side column indexes over interned op ids, filled in
    // one pass over the table's entries.
    std::vector<std::uint32_t> host_column, tpu_column;
    for (std::size_t r = 0; r < table.size(); ++r) {
        markUsed(host_column, table.hostOps(r));
        markUsed(tpu_column, table.tpuOps(r));
    }
    assignColumns(host_column, "host:", out.labels);
    assignColumns(tpu_column, "tpu:", out.labels);

    // Two dims per op: invocation count, then total duration.
    const std::size_t raw_dims =
        std::max<std::size_t>(out.labels.size() * 2, 1);

    out.data.resize(table.size(), raw_dims);
    for (std::size_t r = 0; r < table.size(); ++r) {
        double *row = out.data.rowPtr(r);
        auto fill = [&](OpStatsSpan ops,
                        const std::vector<std::uint32_t> &column) {
            for (const ColumnarOpStats &entry : ops) {
                double *dims = row + column[entry.op] * 2;
                dims[0] = static_cast<double>(entry.count);
                dims[1] = static_cast<double>(entry.total_duration);
            }
        };
        fill(table.hostOps(r), host_column);
        fill(table.tpuOps(r), tpu_column);
    }

    // Per-dimension max scaling keeps counts and durations
    // commensurable.
    FeatureVector maxima(raw_dims, 0.0);
    for (std::size_t r = 0; r < out.data.rows(); ++r) {
        const double *row = out.data.rowPtr(r);
        for (std::size_t d = 0; d < raw_dims; ++d)
            maxima[d] = std::max(maxima[d], std::abs(row[d]));
    }
    // An all-zero column divides by 1.0, which is exact: the loop
    // needs no per-cell branch and no cell changes bits.
    for (double &divisor : maxima) {
        if (!(divisor > 0))
            divisor = 1.0;
    }
    for (std::size_t r = 0; r < out.data.rows(); ++r) {
        double *row = out.data.rowPtr(r);
        for (std::size_t d = 0; d < raw_dims; ++d)
            row[d] /= maxima[d];
    }

    if (raw_dims > options.max_dimensions &&
        out.data.rows() > 1) {
        Rng rng(options.pca_seed);
        const PcaModel pca =
            fitPca(out.data, options.max_dimensions, rng);
        out.data = pca.projectAll(out.data);
        out.reduced = true;
    }
    return out;
}

} // namespace tpupoint
