/**
 * @file
 * Differential decoder fuzz: every analyzer input, in-process
 * payloads included, passes through ColumnarDecoder, so it must
 * agree with the row decoder on every payload. A seeded,
 * fixed-budget mutation driver (bit flips, truncations, byte
 * insertions and length-field edits) runs over the record payloads
 * of the committed bert-mrpc golden profile, a faulted and
 * preempted multi-attempt profile (attempt-boundary records, v4
 * tails) and one capped window (v5 drop count). For each mutant:
 * the two decoders accept or reject together, and on accept
 * the columnar decode of the row decode's re-encoding equals the
 * columnar decode field by field.
 * A long-lived ColumnarDecoder, whose positional name cache stays
 * warm across payloads, must decode every payload exactly as a
 * fresh one does.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.hh"
#include "proto/serialize.hh"
#include "tests/integration/profiles.hh"
#include "trace/bytes.hh"
#include "trace/record_stream.hh"

#ifndef TPUPOINT_GOLDEN_DIR
#error "TPUPOINT_GOLDEN_DIR must be defined by the build"
#endif

namespace tpupoint {
namespace {

/** Every record payload of the container @p bytes. */
std::vector<std::string>
payloadsOf(const std::string &bytes)
{
    std::istringstream in(bytes, std::ios::binary);
    RecordStreamReader reader(in);
    std::vector<std::string> out;
    std::string_view payload;
    while (reader.next(payload) == StreamStatus::Ok)
        out.emplace_back(payload);
    EXPECT_EQ(reader.status(), StreamStatus::End) << reader.error();
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** A window that hit a transport cap: truncated, with drops. */
std::string
cappedWindowPayload()
{
    ProfileRecord record;
    record.sequence = 7;
    record.window_begin = 1000;
    record.window_end = 9000;
    record.event_count = 3;
    record.truncated = true;
    record.events_dropped = 123456;
    record.attempt = 1;
    StepStats step;
    step.step = 4;
    step.begin = 1000;
    step.end = 8000;
    step.tpu_ops["fusion"] = OpStats{2, 5000};
    step.host_ops["Recv"] = OpStats{1, 700};
    record.steps.push_back(step);
    return encodeProfileRecord(record);
}

/** The seed corpus: every payload the driver mutates. */
const std::vector<std::string> &
corpus()
{
    static const std::vector<std::string> payloads = [] {
        std::vector<std::string> out = payloadsOf(readFile(
            std::string(TPUPOINT_GOLDEN_DIR) +
            "/profile_bert_mrpc.tpp"));
        std::uint32_t attempts = 0;
        for (std::string &payload : payloadsOf(
                 testutil::resilientProfileBytes(&attempts)))
            out.push_back(std::move(payload));
        EXPECT_GT(attempts, 1u) << "the preemption never fired";
        out.push_back(cappedWindowPayload());
        return out;
    }();
    return payloads;
}

/**
 * Offsets of every u32 count or length field in a well-formed
 * payload (step count, op-map sizes, name lengths, and the v4
 * attempt/boundary words): the targets of length-field edits.
 */
std::vector<std::size_t>
lengthFields(std::string_view payload)
{
    std::vector<std::size_t> out;
    ByteReader in(payload);
    const auto offset = [&] { return payload.size() - in.remaining(); };
    std::uint64_t u64 = 0;
    std::uint32_t u32 = 0;
    for (int i = 0; i < 4; ++i)
        in.getU64(u64); // sequence, window bounds, event count
    in.getU32(u32);     // truncated
    for (int i = 0; i < 4; ++i)
        in.getU64(u64); // idle, MXU, retries, retry time
    out.push_back(offset());
    std::uint32_t steps = 0;
    in.getU32(steps);
    for (std::uint32_t s = 0; s < steps; ++s) {
        for (int i = 0; i < 6; ++i)
            in.getU64(u64);
        for (int side = 0; side < 2; ++side) {
            out.push_back(offset());
            std::uint32_t ops = 0;
            in.getU32(ops);
            for (std::uint32_t op = 0; op < ops; ++op) {
                out.push_back(offset());
                in.getU32(u32);
                in.block(std::size_t{u32} + 16); // name, count, total
            }
        }
    }
    if (in.remaining() >= 8) {
        out.push_back(offset());     // attempt
        out.push_back(offset() + 4); // boundary flag
    }
    return out;
}

void
putU32At(std::string &bytes, std::size_t at, std::uint32_t value)
{
    for (std::size_t i = 0; i < 4 && at + i < bytes.size(); ++i)
        bytes[at + i] = static_cast<char>(value >> (8 * i));
}

/** Apply one random mutation of one of the four kinds. */
void
mutate(Rng &rng, std::string &bytes,
       const std::vector<std::size_t> &fields)
{
    switch (rng.nextBounded(4)) {
      case 0: // bit flip
        if (!bytes.empty())
            bytes[rng.nextBounded(bytes.size())] ^=
                static_cast<char>(1u << rng.nextBounded(8));
        break;
      case 1: // truncation
        bytes.resize(rng.nextBounded(bytes.size() + 1));
        break;
      case 2: { // byte insertion
        const std::size_t count = 1 + rng.nextBounded(8);
        std::string inserted;
        for (std::size_t i = 0; i < count; ++i)
            inserted.push_back(
                static_cast<char>(rng.nextBounded(256)));
        bytes.insert(rng.nextBounded(bytes.size() + 1), inserted);
        break;
      }
      default: { // length-field edit
        if (fields.empty())
            break;
        const std::size_t at =
            fields[rng.nextBounded(fields.size())];
        if (at + 4 > bytes.size())
            break;
        std::uint32_t old = 0;
        for (std::size_t i = 0; i < 4; ++i)
            old |= static_cast<std::uint32_t>(
                       static_cast<unsigned char>(bytes[at + i]))
                << (8 * i);
        const std::uint32_t choices[] = {
            0u, 1u, old - 1, old + 1, old * 2, 0xffffffffu,
            0x80000000u, static_cast<std::uint32_t>(bytes.size()),
            static_cast<std::uint32_t>(rng.nextU64())};
        putU32At(bytes, at,
                 choices[rng.nextBounded(std::size(choices))]);
        break;
      }
    }
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
sameOps(const std::vector<ColumnarOpStats> &a,
        const std::vector<ColumnarOpStats> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].op != b[i].op || a[i].count != b[i].count ||
            a[i].total_duration != b[i].total_duration)
            return false;
    }
    return true;
}

/** Every field of two columnar records, doubles bit for bit. */
void
expectSameColumnar(const ColumnarRecord &a, const ColumnarRecord &b)
{
    EXPECT_EQ(a.sequence, b.sequence);
    EXPECT_EQ(a.window_begin, b.window_begin);
    EXPECT_EQ(a.window_end, b.window_end);
    EXPECT_EQ(a.event_count, b.event_count);
    EXPECT_EQ(a.truncated, b.truncated);
    EXPECT_EQ(a.events_dropped, b.events_dropped);
    EXPECT_TRUE(sameBits(a.tpu_idle_fraction, b.tpu_idle_fraction));
    EXPECT_TRUE(sameBits(a.mxu_utilization, b.mxu_utilization));
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.retry_time, b.retry_time);
    EXPECT_EQ(a.attempt, b.attempt);
    EXPECT_EQ(a.attempt_boundary, b.attempt_boundary);
    EXPECT_EQ(a.preempted_at_step, b.preempted_at_step);
    EXPECT_EQ(a.resume_step, b.resume_step);
    EXPECT_EQ(a.step, b.step);
    EXPECT_EQ(a.begin, b.begin);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.tpu_busy, b.tpu_busy);
    EXPECT_EQ(a.tpu_idle, b.tpu_idle);
    EXPECT_EQ(a.mxu_active, b.mxu_active);
    EXPECT_EQ(a.host_offsets, b.host_offsets);
    EXPECT_EQ(a.tpu_offsets, b.tpu_offsets);
    EXPECT_TRUE(sameOps(a.host_ops, b.host_ops));
    EXPECT_TRUE(sameOps(a.tpu_ops, b.tpu_ops));
}

/**
 * Decode @p payload both ways and check that the decoders agree
 * (test failures otherwise).
 * @return Whether the payload was accepted.
 */
bool
decodeBothWays(std::string_view payload)
{
    ProfileRecord row;
    ColumnarRecord columnar;
    const bool row_ok = decodeProfileRecord(payload, row);
    const bool columnar_ok = ColumnarDecoder().decode(
        payload, columnar, StringInterner::global());
    EXPECT_EQ(row_ok, columnar_ok);
    if (row_ok && columnar_ok) {
        ColumnarRecord converted;
        EXPECT_TRUE(ColumnarDecoder().decode(encodeProfileRecord(row),
                                             converted,
                                             StringInterner::global()));
        expectSameColumnar(converted, columnar);
    }
    return row_ok;
}

TEST(DecoderDifferential, SeedCorpusDecodesIdentically)
{
    ASSERT_GT(corpus().size(), 3u);
    for (const std::string &payload : corpus())
        EXPECT_TRUE(decodeBothWays(payload));
}

// A divergence the differential check exposes: the encoder writes
// each op map from a name-keyed map, so a name never repeats within
// one step, but a payload that repeats one used to decode as the
// first entry (row) and as two entries (columnar). Both reject it.
TEST(DecoderDifferential, DuplicateOpNameInOneStepIsRejected)
{
    ProfileRecord record;
    StepStats step;
    step.step = 1;
    step.tpu_ops["dup-op-a"] = OpStats{1, 10};
    step.tpu_ops["dup-op-b"] = OpStats{2, 20};
    record.steps.push_back(step);
    std::string payload = encodeProfileRecord(record);
    // Same length, one byte apart: rename the second op.
    const std::size_t at = payload.find("dup-op-b");
    ASSERT_NE(at, std::string::npos);
    payload[at + 7] = 'a';
    EXPECT_FALSE(decodeBothWays(payload));
}

TEST(DecoderDifferential, SeededMutationsAgreeOnAcceptAndFields)
{
    constexpr int kTrials = 20000;
    const std::vector<std::string> &seeds = corpus();
    std::vector<std::vector<std::size_t>> fields;
    for (const std::string &payload : seeds)
        fields.push_back(lengthFields(payload));

    Rng rng(0x44494646ULL); // "DIFF"
    int accepted = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
        const std::size_t seed = rng.nextBounded(seeds.size());
        std::string mutant = seeds[seed];
        const std::uint64_t rounds = 1 + rng.nextBounded(3);
        for (std::uint64_t r = 0; r < rounds; ++r)
            mutate(rng, mutant, fields[seed]);
        accepted += decodeBothWays(mutant) ? 1 : 0;
        ASSERT_FALSE(HasFailure())
            << "trial " << trial << " (seed payload " << seed
            << ", " << mutant.size() << " bytes)";
    }
    // Both outcomes must be exercised for the agreement to mean
    // anything.
    EXPECT_GT(accepted, kTrials / 20);
    EXPECT_LT(accepted, kTrials - kTrials / 20);
}

// Valid and mutated payloads interleaved through one decoder whose
// cache stays warm: every decode equals a fresh decoder's, so the
// cache never changes a result, even after a mutant poisoned it.
TEST(DecoderDifferential, WarmDecoderMatchesFreshDecoder)
{
    constexpr int kTrials = 4000;
    const std::vector<std::string> &seeds = corpus();
    std::vector<std::vector<std::size_t>> fields;
    for (const std::string &payload : seeds)
        fields.push_back(lengthFields(payload));

    ColumnarDecoder warm;
    ColumnarRecord warm_record;
    ColumnarRecord fresh_record;
    Rng rng(0x5741524dULL); // "WARM"
    int accepted = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
        const std::size_t seed = rng.nextBounded(seeds.size());
        std::string payload = seeds[seed];
        if (rng.nextBounded(2) == 0) {
            const std::uint64_t rounds = 1 + rng.nextBounded(3);
            for (std::uint64_t r = 0; r < rounds; ++r)
                mutate(rng, payload, fields[seed]);
        }
        const bool warm_ok = warm.decode(payload, warm_record,
                                         StringInterner::global());
        const bool fresh_ok = ColumnarDecoder().decode(
            payload, fresh_record, StringInterner::global());
        EXPECT_EQ(warm_ok, fresh_ok);
        if (warm_ok && fresh_ok) {
            ++accepted;
            expectSameColumnar(warm_record, fresh_record);
        }
        ASSERT_FALSE(HasFailure())
            << "trial " << trial << " (seed payload " << seed
            << ", " << payload.size() << " bytes)";
    }
    EXPECT_GT(accepted, kTrials / 4);
}

/** A one-step payload whose host op map claims @p count entries
 * but carries only one. */
std::string
payloadClaimingOps(std::uint32_t count)
{
    ProfileRecord record;
    StepStats step;
    step.step = 1;
    step.host_ops["only-op"] = OpStats{1, 10};
    record.steps.push_back(step);
    std::string payload = encodeProfileRecord(record);
    // Record header (72 bytes), then the step header (48 bytes),
    // then the host op count.
    const std::size_t at = 72 + 48;
    std::uint32_t old = 0;
    std::memcpy(&old, payload.data() + at, sizeof(old));
    EXPECT_EQ(old, 1u);
    putU32At(payload, at, count);
    return payload;
}

// An op count no payload could hold is rejected before the decoder
// sizes anything by it (the cache resize would otherwise attempt a
// multi-gigabyte allocation).
TEST(DecoderDifferential, HugeOpCountIsRejectedBeforeAllocation)
{
    ColumnarDecoder warm;
    ColumnarRecord record;
    ASSERT_TRUE(warm.decode(payloadClaimingOps(1), record,
                            StringInterner::global()));
    for (const std::uint32_t count :
         {2u, 1000u, 0x00ffffffu, 0x7fffffffu, 0x80000000u,
          0xffffffffu}) {
        const std::string payload = payloadClaimingOps(count);
        EXPECT_NO_THROW({
            EXPECT_FALSE(warm.decode(payload, record,
                                     StringInterner::global()))
                << count;
            EXPECT_FALSE(decodeBothWays(payload)) << count;
        });
    }
}

// Ids cached against one interner never show up in a decode
// against another — not even one constructed at the same address
// after the first is gone.
TEST(DecoderDifferential, CachedIdsNeverCrossInterners)
{
    ColumnarDecoder warm;
    ColumnarRecord warm_record;
    ColumnarRecord fresh_record;
    // The first corpus record that carries TPU ops.
    std::string payload;
    for (const std::string &candidate : corpus()) {
        ASSERT_TRUE(ColumnarDecoder().decode(
            candidate, fresh_record, StringInterner::global()));
        if (fresh_record.tpu_ops.size() > 1) {
            payload = candidate;
            break;
        }
    }
    ASSERT_FALSE(payload.empty());

    auto first = std::make_unique<StringInterner>();
    // Shift the first interner's ids so the two disagree.
    for (int i = 0; i < 10; ++i)
        first->intern("padding-" + std::to_string(i));
    ASSERT_TRUE(warm.decode(payload, warm_record, *first));

    StringInterner second;
    ASSERT_TRUE(warm.decode(payload, warm_record, second));
    ASSERT_TRUE(ColumnarDecoder().decode(payload, fresh_record,
                                         second));
    expectSameColumnar(warm_record, fresh_record);
    for (const ColumnarOpStats &entry : warm_record.tpu_ops)
        EXPECT_LT(entry.op, second.size());

    // Drop the first interner and build a third, likely in its
    // storage: a serial, not an address, names the binding.
    ASSERT_TRUE(warm.decode(payload, warm_record, *first));
    first.reset();
    auto third = std::make_unique<StringInterner>();
    ASSERT_TRUE(warm.decode(payload, warm_record, *third));
    ASSERT_TRUE(ColumnarDecoder().decode(payload, fresh_record,
                                         *third));
    expectSameColumnar(warm_record, fresh_record);
}

} // namespace
} // namespace tpupoint
