/** @file Profile binary serialization round trip. */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "core/rng.hh"
#include "proto/serialize.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace {

/** Build a deterministic pseudo-random record. */
ProfileRecord
randomRecord(Rng &rng, std::uint64_t sequence)
{
    ProfileRecord record;
    record.sequence = sequence;
    record.window_begin =
        static_cast<SimTime>(rng.nextBounded(1u << 30));
    record.window_end = record.window_begin +
        static_cast<SimTime>(rng.nextBounded(1u << 30));
    record.event_count = rng.nextBounded(100000);
    record.truncated = rng.bernoulli(0.3);
    record.events_dropped =
        record.truncated ? 1 + rng.nextBounded(5000) : 0;
    record.tpu_idle_fraction = rng.nextDouble();
    record.mxu_utilization = rng.nextDouble();
    record.retries = rng.nextBounded(100);
    record.retry_time =
        static_cast<SimTime>(rng.nextBounded(1u << 30));

    const std::size_t steps = 1 + rng.nextBounded(5);
    for (std::size_t i = 0; i < steps; ++i) {
        StepStats step;
        step.step = sequence * 100 + i;
        step.begin = static_cast<SimTime>(rng.nextBounded(1000));
        step.end = step.begin +
            static_cast<SimTime>(rng.nextBounded(10000));
        step.tpu_busy =
            static_cast<SimTime>(rng.nextBounded(5000));
        step.tpu_idle =
            static_cast<SimTime>(rng.nextBounded(5000));
        step.mxu_active =
            static_cast<SimTime>(rng.nextBounded(2000));
        const char *tpu_names[] = {"fusion", "MatMul", "Reshape"};
        const char *host_names[] = {"OutfeedDequeueTuple",
                                    "RunGraph"};
        for (const char *name : tpu_names) {
            OpStats stats;
            stats.count = 1 + rng.nextBounded(50);
            stats.total_duration =
                static_cast<SimTime>(rng.nextBounded(100000));
            step.tpu_ops[name] = stats;
        }
        for (const char *name : host_names) {
            OpStats stats;
            stats.count = 1 + rng.nextBounded(10);
            stats.total_duration =
                static_cast<SimTime>(rng.nextBounded(100000));
            step.host_ops[name] = stats;
        }
        record.steps.push_back(std::move(step));
    }
    return record;
}

void
expectEqualRecords(const ProfileRecord &a, const ProfileRecord &b)
{
    EXPECT_EQ(a.sequence, b.sequence);
    EXPECT_EQ(a.window_begin, b.window_begin);
    EXPECT_EQ(a.window_end, b.window_end);
    EXPECT_EQ(a.event_count, b.event_count);
    EXPECT_EQ(a.truncated, b.truncated);
    EXPECT_DOUBLE_EQ(a.tpu_idle_fraction, b.tpu_idle_fraction);
    EXPECT_DOUBLE_EQ(a.mxu_utilization, b.mxu_utilization);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.retry_time, b.retry_time);
    EXPECT_EQ(a.attempt, b.attempt);
    EXPECT_EQ(a.attempt_boundary, b.attempt_boundary);
    EXPECT_EQ(a.preempted_at_step, b.preempted_at_step);
    EXPECT_EQ(a.resume_step, b.resume_step);
    EXPECT_EQ(a.events_dropped, b.events_dropped);
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
        const StepStats &x = a.steps[i];
        const StepStats &y = b.steps[i];
        EXPECT_EQ(x.step, y.step);
        EXPECT_EQ(x.begin, y.begin);
        EXPECT_EQ(x.end, y.end);
        EXPECT_EQ(x.tpu_busy, y.tpu_busy);
        EXPECT_EQ(x.tpu_idle, y.tpu_idle);
        EXPECT_EQ(x.mxu_active, y.mxu_active);
        ASSERT_EQ(x.tpu_ops.size(), y.tpu_ops.size());
        for (const auto &[name, stats] : x.tpu_ops) {
            ASSERT_TRUE(y.tpu_ops.count(name));
            EXPECT_EQ(stats.count, y.tpu_ops.at(name).count);
            EXPECT_EQ(stats.total_duration,
                      y.tpu_ops.at(name).total_duration);
        }
        ASSERT_EQ(x.host_ops.size(), y.host_ops.size());
    }
}

TEST(SerializeTest, RoundTripSingleRecord)
{
    Rng rng(1);
    const ProfileRecord original = randomRecord(rng, 0);
    std::stringstream buffer;
    RecordStreamWriter writer(buffer);
    writer.append(encodeProfileRecord(original));
    writer.finish();
    EXPECT_EQ(writer.records(), 1u);

    ProfileReader reader(buffer);
    ProfileRecord decoded;
    ASSERT_TRUE(reader.read(decoded));
    expectEqualRecords(original, decoded);
    ASSERT_FALSE(reader.read(decoded)); // clean EOF
}

TEST(SerializeTest, RoundTripManyRecordsFuzz)
{
    Rng rng(99);
    std::vector<ProfileRecord> originals;
    std::stringstream buffer;
    RecordStreamWriter writer(buffer);
    for (std::uint64_t i = 0; i < 25; ++i) {
        originals.push_back(randomRecord(rng, i));
        writer.append(encodeProfileRecord(originals.back()));
    }
    writer.finish();
    ProfileReader reader(buffer);
    const std::vector<ProfileRecord> decoded =
        testutil::readAll(reader);
    ASSERT_EQ(decoded.size(), originals.size());
    for (std::size_t i = 0; i < decoded.size(); ++i)
        expectEqualRecords(originals[i], decoded[i]);
}

TEST(SerializeTest, StreamedReadMatchesReadAll)
{
    Rng rng(7);
    std::stringstream buffer;
    RecordStreamWriter writer(buffer);
    for (std::uint64_t i = 0; i < 40; ++i)
        writer.append(encodeProfileRecord(randomRecord(rng, i)));
    writer.finish();
    const std::string bytes = buffer.str();

    std::istringstream streamed_in(bytes);
    ProfileReader streamed(streamed_in);
    std::vector<ProfileRecord> one_at_a_time;
    ProfileRecord record;
    while (streamed.read(record))
        one_at_a_time.push_back(record);

    std::istringstream bulk_in(bytes);
    ProfileReader bulk(bulk_in);
    const std::vector<ProfileRecord> all =
        testutil::readAll(bulk);

    ASSERT_EQ(one_at_a_time.size(), all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        expectEqualRecords(one_at_a_time[i], all[i]);
        // Byte-identical, not just field-equal.
        EXPECT_EQ(encodeProfileRecord(one_at_a_time[i]),
                  encodeProfileRecord(all[i]));
    }
}

TEST(SerializeTest, EmptyProfileReadsZeroRecords)
{
    std::stringstream buffer;
    RecordStreamWriter writer(buffer);
    writer.finish();
    ProfileReader reader(buffer);
    ProfileRecord record;
    EXPECT_FALSE(reader.read(record));
    EXPECT_EQ(reader.recordsRead(), 0u);
}

TEST(SerializeTest, BadMagicIsRejected)
{
    std::stringstream buffer;
    buffer << "NOPExxxxxxxxxxxxxxxx";
    EXPECT_THROW(ProfileReader reader(buffer),
                 std::runtime_error);
}

TEST(SerializeTest, TruncatedStreamIsRejected)
{
    Rng rng(2);
    std::stringstream buffer;
    RecordStreamWriter writer(buffer);
    writer.append(encodeProfileRecord(randomRecord(rng, 0)));
    writer.finish();
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() / 2);
    std::stringstream truncated(bytes);
    ProfileReader reader(truncated);
    ProfileRecord record;
    EXPECT_THROW(reader.read(record), std::runtime_error);
}

TEST(SerializeTest, V4RoundTripCarriesAttemptFields)
{
    Rng rng(11);
    ProfileRecord original = randomRecord(rng, 4);
    original.attempt = 3;
    original.attempt_boundary = true;
    original.preempted_at_step = 480;
    original.resume_step = 450;

    ProfileRecord decoded;
    ASSERT_TRUE(
        decodeProfileRecord(encodeProfileRecord(original),
                            decoded));
    expectEqualRecords(original, decoded);
    EXPECT_EQ(decoded.attempt, 3u);
    EXPECT_TRUE(decoded.attempt_boundary);
    EXPECT_EQ(decoded.preempted_at_step, 480u);
    EXPECT_EQ(decoded.resume_step, 450u);
}

/** The 24-byte v4 attempt tail: u32 + u32 + u64 + u64. */
constexpr std::size_t kAttemptTailBytes = 24;

/** The 8-byte v5 drop-count tail: one u64. */
constexpr std::size_t kDropTailBytes = 8;

TEST(SerializeTest, V3PayloadWithoutAttemptTailStillDecodes)
{
    Rng rng(12);
    ProfileRecord original = randomRecord(rng, 9);
    original.retries = 17;
    original.retry_time = 123 * kMsec;

    // Strip the fixed-width v4 + v5 tails: exactly what a v3
    // writer emitted. The v3 retry fields must survive unchanged
    // and the newer fields take their defaults.
    original.events_dropped = 0; // not representable in v3
    std::string payload = encodeProfileRecord(original);
    ASSERT_GT(payload.size(),
              kAttemptTailBytes + kDropTailBytes);
    payload.resize(payload.size() - kAttemptTailBytes -
                   kDropTailBytes);

    ProfileRecord decoded;
    ASSERT_TRUE(decodeProfileRecord(payload, decoded));
    expectEqualRecords(original, decoded);
    EXPECT_EQ(decoded.retries, 17u);
    EXPECT_EQ(decoded.retry_time, 123 * kMsec);
    EXPECT_EQ(decoded.attempt, 0u);
    EXPECT_FALSE(decoded.attempt_boundary);
    EXPECT_EQ(decoded.preempted_at_step, 0u);
    EXPECT_EQ(decoded.resume_step, 0u);
}

TEST(SerializeTest, V4PayloadWithoutDropTailStillDecodes)
{
    Rng rng(21);
    ProfileRecord original = randomRecord(rng, 3);
    original.attempt = 2;
    original.attempt_boundary = true;
    original.preempted_at_step = 800;
    original.resume_step = 750;

    // Strip only the v5 drop-count tail: exactly what a v4 writer
    // emitted. The attempt fields must survive and the drop count
    // must default to zero.
    original.events_dropped = 0; // not representable in v4
    std::string payload = encodeProfileRecord(original);
    ASSERT_GT(payload.size(), kDropTailBytes);
    payload.resize(payload.size() - kDropTailBytes);

    ProfileRecord decoded;
    ASSERT_TRUE(decodeProfileRecord(payload, decoded));
    expectEqualRecords(original, decoded);
    EXPECT_EQ(decoded.attempt, 2u);
    EXPECT_TRUE(decoded.attempt_boundary);
    EXPECT_EQ(decoded.events_dropped, 0u);
}

TEST(SerializeTest, PartialAttemptTailIsRejected)
{
    Rng rng(13);
    std::string payload =
        encodeProfileRecord(randomRecord(rng, 0));
    // A tail that is present but cut short is damage, not a v3
    // payload.
    payload.resize(payload.size() - kAttemptTailBytes / 2);
    ProfileRecord decoded;
    EXPECT_FALSE(decodeProfileRecord(payload, decoded));
}

TEST(SerializeTest, AttemptBoundaryPayloadIsASteplessMarker)
{
    ProfileRecord decoded;
    ASSERT_TRUE(decodeProfileRecord(
        encodeAttemptBoundary(2, 480, 450, 7 * kSec), decoded));
    EXPECT_TRUE(decoded.attempt_boundary);
    EXPECT_EQ(decoded.attempt, 2u);
    EXPECT_EQ(decoded.preempted_at_step, 480u);
    EXPECT_EQ(decoded.resume_step, 450u);
    EXPECT_EQ(decoded.window_begin, 7 * kSec);
    EXPECT_EQ(decoded.window_end, 7 * kSec);
    EXPECT_EQ(decoded.sequence, 0u);
    EXPECT_EQ(decoded.event_count, 0u);
    EXPECT_TRUE(decoded.steps.empty());
}

} // namespace
} // namespace tpupoint
