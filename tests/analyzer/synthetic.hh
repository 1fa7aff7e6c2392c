/**
 * @file Synthetic step/record builders shared by the tests, and the
 * crossings between row fixtures (ProfileRecord) and the payloads a
 * profile in memory is.
 */

#ifndef TPUPOINT_TESTS_ANALYZER_SYNTHETIC_HH
#define TPUPOINT_TESTS_ANALYZER_SYNTHETIC_HH

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analyzer/step_table.hh"
#include "core/logging.hh"
#include "core/math.hh"
#include "proto/columnar.hh"
#include "proto/serialize.hh"

namespace tpupoint {
namespace testutil {

/**
 * Build one StepStats with the given TPU op labels (each one
 * invocation of 10us-ish) and a step span of @p span.
 */
inline StepStats
makeStep(StepId step, const std::vector<std::string> &tpu_ops,
         const std::vector<std::string> &host_ops = {},
         SimTime span = 100 * kUsec)
{
    StepStats s;
    s.step = step;
    s.begin = static_cast<SimTime>(step) * span;
    s.end = s.begin + span;
    // Earlier-listed ops are the most time-consuming, so the
    // first label (e.g. "fusion") tops the phase rankings.
    SimTime weight = static_cast<SimTime>(tpu_ops.size());
    for (const auto &name : tpu_ops) {
        OpStats stats;
        stats.count = 1;
        stats.total_duration = 10 * kUsec * weight;
        --weight;
        s.tpu_ops[name] = stats;
        s.tpu_busy += stats.total_duration;
    }
    for (const auto &name : host_ops) {
        OpStats stats;
        stats.count = 1;
        stats.total_duration = 5 * kUsec;
        s.host_ops[name] = stats;
    }
    return s;
}

/** Wrap steps into a single profile record. */
inline ProfileRecord
makeRecord(std::vector<StepStats> steps, std::uint64_t seq = 0)
{
    ProfileRecord record;
    record.sequence = seq;
    if (!steps.empty()) {
        record.window_begin = steps.front().begin;
        record.window_end = steps.back().end;
    }
    for (const auto &s : steps)
        record.event_count +=
            s.tpu_ops.size() + s.host_ops.size();
    record.steps = std::move(steps);
    return record;
}

/**
 * A row-major point set from literal rows, e.g.
 * `matrixOf({{0, 0}, {2, 2}})`. Rows must share one dimension; an
 * empty list yields a 0 x 0 matrix.
 */
inline Matrix
matrixOf(const std::vector<FeatureVector> &rows)
{
    Matrix out(rows.size(), rows.empty() ? 0 : rows.front().size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        if (rows[r].size() != out.cols())
            throw std::invalid_argument("matrixOf: ragged rows");
        std::copy(rows[r].begin(), rows[r].end(), out.rowPtr(r));
    }
    return out;
}

/**
 * "" when @p got and @p want have one shape and the same bits in
 * every cell (any NaN matches any NaN); otherwise the first
 * difference. Blocked kernels are checked against their naive
 * loops with this, not with a tolerance.
 */
inline std::string
bitMismatch(const Matrix &got, const Matrix &want)
{
    std::ostringstream out;
    if (got.rows() != want.rows() || got.cols() != want.cols()) {
        out << "shape " << got.rows() << "x" << got.cols() << " vs "
            << want.rows() << "x" << want.cols();
        return out.str();
    }
    for (std::size_t r = 0; r < got.rows(); ++r) {
        for (std::size_t c = 0; c < got.cols(); ++c) {
            const double a = got.at(r, c);
            const double b = want.at(r, c);
            if ((std::isnan(a) && std::isnan(b)) ||
                std::memcmp(&a, &b, sizeof a) == 0)
                continue;
            out.precision(17);
            out << "cell (" << r << ", " << c << "): " << a
                << " vs " << b;
            return out.str();
        }
    }
    return "";
}

/** The wire payload of each record, in order. */
inline std::vector<std::string>
payloadsOf(const std::vector<ProfileRecord> &records)
{
    std::vector<std::string> out;
    out.reserve(records.size());
    for (const ProfileRecord &record : records)
        out.push_back(encodeProfileRecord(record));
    return out;
}

/** Each payload decoded as a row record; panics on a bad one. */
inline std::vector<ProfileRecord>
rowsOf(const std::vector<std::string> &payloads)
{
    std::vector<ProfileRecord> out(payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        if (!decodeProfileRecord(payloads[i], out[i]))
            panic("rowsOf: payload ", i, " does not decode");
    }
    return out;
}

/** @p payload in the columnar form the analyzer ingests. */
inline ColumnarRecord
columnar(std::string_view payload)
{
    ColumnarRecord out;
    if (!ColumnarDecoder().decode(payload, out,
                                  StringInterner::global()))
        panic("columnar: payload does not decode");
    return out;
}

/** @p record in the columnar form the analyzer ingests. */
inline ColumnarRecord
columnar(const ProfileRecord &record)
{
    return columnar(encodeProfileRecord(record));
}

/** Every payload of @p payloads, decoded in order. */
inline std::vector<ColumnarRecord>
columnar(const std::vector<std::string> &payloads)
{
    std::vector<ColumnarRecord> out;
    out.reserve(payloads.size());
    for (const std::string &payload : payloads)
        out.push_back(columnar(payload));
    return out;
}

/** Every record of @p records, converted in order. */
inline std::vector<ColumnarRecord>
columnar(const std::vector<ProfileRecord> &records)
{
    std::vector<ColumnarRecord> out;
    out.reserve(records.size());
    for (const ProfileRecord &record : records)
        out.push_back(columnar(record));
    return out;
}

/** The step table of @p records, through the builder. */
inline StepTable
tableOf(const std::vector<ProfileRecord> &records)
{
    StepTableBuilder builder;
    for (const ProfileRecord &record : records)
        builder.ingest(columnar(record));
    return std::move(builder).build();
}

/** The record payloads framed in profile container @p bytes. */
inline std::vector<std::string>
payloadsIn(const std::string &bytes)
{
    std::istringstream in(bytes, std::ios::binary);
    RecordStreamReader reader(in);
    std::vector<std::string> out;
    std::string_view payload;
    StreamStatus status;
    while ((status = reader.next(payload)) == StreamStatus::Ok)
        out.emplace_back(payload);
    if (status != StreamStatus::End)
        panic("payloadsIn: damaged container");
    return out;
}

/** Every remaining record of @p reader, as rows. */
inline std::vector<ProfileRecord>
readAll(ProfileReader &reader)
{
    std::vector<ProfileRecord> records;
    ProfileRecord record;
    while (reader.read(record))
        records.push_back(std::move(record));
    return records;
}

/** The entry named @p name in an id-sorted run, or nullptr. */
inline const ColumnarOpStats *
findOp(OpStatsSpan ops, std::string_view name)
{
    std::uint32_t id = 0;
    if (!StringInterner::global().lookup(name, id))
        return nullptr;
    for (const ColumnarOpStats &entry : ops) {
        if (entry.op == id)
            return &entry;
    }
    return nullptr;
}

/**
 * A canonical three-phase run: init step, N train steps, M eval
 * steps, then N more train steps — the structure TPUPoint's
 * workloads exhibit.
 */
inline std::vector<StepStats>
threePhaseRun(std::size_t train_steps = 40,
              std::size_t eval_steps = 8)
{
    const std::vector<std::string> init_ops{};
    const std::vector<std::string> init_host{
        "InitializeHostForDistributedTpu", "StartProgram",
        "RestoreV2"};
    const std::vector<std::string> train_ops{
        "fusion", "MatMul", "Reshape", "Conv2DBackpropFilter",
        "Conv2DBackpropInput", "all-reduce",
        "InfeedDequeueTuple", "OutfeedEnqueueTuple"};
    const std::vector<std::string> train_host{
        "OutfeedDequeueTuple", "TransferBufferToInfeedLocked",
        "Recv", "LinearizeX32"};
    const std::vector<std::string> eval_ops{
        "fusion", "MatMul", "Reshape", "ArgMax", "Equal",
        "Squeeze", "InfeedDequeueTuple", "OutfeedEnqueueTuple"};
    const std::vector<std::string> eval_host{
        "OutfeedDequeueTuple", "TransferBufferToInfeedLocked",
        "ArgMax", "Equal", "Mean", "ConcatV2", "Squeeze"};

    std::vector<StepStats> steps;
    StepId id = 0;
    steps.push_back(makeStep(id++, init_ops, init_host,
                             5000 * kUsec));
    for (std::size_t i = 0; i < train_steps; ++i)
        steps.push_back(makeStep(id++, train_ops, train_host));
    for (std::size_t i = 0; i < eval_steps; ++i)
        steps.push_back(makeStep(id++, eval_ops, eval_host,
                                 60 * kUsec));
    for (std::size_t i = 0; i < train_steps; ++i)
        steps.push_back(makeStep(id++, train_ops, train_host));
    return steps;
}

} // namespace testutil
} // namespace tpupoint

#endif // TPUPOINT_TESTS_ANALYZER_SYNTHETIC_HH
