/**
 * @file Salvage-mode reading of damaged record streams. The CRC
 * per chunk bounds the blast radius of any corruption to the chunk
 * it hits: salvage mode must recover every intact chunk, report
 * exactly what was dropped, and never report Corrupt/Truncated.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "proto/serialize.hh"
#include "tests/analyzer/synthetic.hh"
#include "trace/record_stream.hh"

namespace tpupoint {
namespace {

/** Build a finished stream of @p count payloads, 2 per chunk. */
std::string
makeStream(int count)
{
    std::ostringstream out;
    RecordStreamOptions options;
    options.chunk_records = 2;
    RecordStreamWriter writer(out, options);
    for (int i = 0; i < count; ++i)
        writer.append("record-" + std::to_string(i));
    writer.finish();
    return out.str();
}

/** Byte offset of the @p nth (0-based) "CHNK" marker. */
std::size_t
chunkOffset(const std::string &bytes, int nth)
{
    std::size_t pos = 0;
    for (int i = 0; i <= nth; ++i) {
        pos = bytes.find("CHNK", pos ? pos + 1 : 0);
        EXPECT_NE(pos, std::string::npos);
    }
    return pos;
}

/** Flip one payload byte of the @p nth chunk (breaks its CRC). */
void
corruptChunkPayload(std::string &bytes, int nth)
{
    const std::size_t payload = chunkOffset(bytes, nth) + 16;
    ASSERT_LT(payload, bytes.size());
    bytes[payload] = static_cast<char>(bytes[payload] ^ 0x5a);
}

std::vector<std::string>
salvageAll(RecordStreamReader &reader)
{
    std::vector<std::string> records;
    std::string_view payload;
    while (reader.next(payload) == StreamStatus::Ok)
        records.emplace_back(payload);
    return records;
}

TEST(SalvageTest, IntactStreamSalvagesWithoutDamageReported)
{
    const std::string bytes = makeStream(6);
    std::istringstream in(bytes);
    RecordStreamReader reader(in, /*salvage=*/true);
    EXPECT_TRUE(reader.salvaging());
    const auto records = salvageAll(reader);
    EXPECT_EQ(records.size(), 6u);
    EXPECT_FALSE(reader.sawDamage());
    EXPECT_EQ(reader.chunksDropped(), 0u);
    EXPECT_EQ(reader.recordsDropped(), 0u);
    EXPECT_FALSE(reader.truncatedTail());
}

TEST(SalvageTest, MidStreamCorruptionDropsExactlyOneChunk)
{
    std::string bytes = makeStream(8); // chunks of records 0..7
    corruptChunkPayload(bytes, 1);     // records 2 and 3

    // The plain reader refuses the stream...
    {
        std::istringstream in(bytes);
        RecordStreamReader reader(in);
        std::string_view payload;
        StreamStatus status;
        while ((status = reader.next(payload)) == StreamStatus::Ok)
            ;
        EXPECT_EQ(status, StreamStatus::Corrupt);
    }

    // ...salvage recovers everything the CRCs vouch for.
    std::istringstream in(bytes);
    RecordStreamReader reader(in, /*salvage=*/true);
    const auto records = salvageAll(reader);
    ASSERT_EQ(records.size(), 6u);
    EXPECT_EQ(records[0], "record-0");
    EXPECT_EQ(records[1], "record-1");
    EXPECT_EQ(records[2], "record-4"); // resynced past the damage
    EXPECT_EQ(records.back(), "record-7");
    EXPECT_EQ(reader.chunksDropped(), 1u);
    EXPECT_EQ(reader.recordsDropped(), 2u); // via the end marker
    EXPECT_FALSE(reader.truncatedTail());
    EXPECT_TRUE(reader.sawDamage());
}

TEST(SalvageTest, FirstChunkCorruptionStillRecoversTheRest)
{
    std::string bytes = makeStream(6);
    corruptChunkPayload(bytes, 0);

    std::istringstream in(bytes);
    RecordStreamReader reader(in, /*salvage=*/true);
    const auto records = salvageAll(reader);
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[0], "record-2");
    EXPECT_EQ(reader.chunksDropped(), 1u);
    EXPECT_EQ(reader.recordsDropped(), 2u);
}

TEST(SalvageTest, BackToBackCorruptChunksBothDrop)
{
    std::string bytes = makeStream(10);
    corruptChunkPayload(bytes, 1);
    corruptChunkPayload(bytes, 2);

    std::istringstream in(bytes);
    RecordStreamReader reader(in, /*salvage=*/true);
    const auto records = salvageAll(reader);
    ASSERT_EQ(records.size(), 6u);
    EXPECT_EQ(records[0], "record-0");
    EXPECT_EQ(records[2], "record-6");
    EXPECT_EQ(reader.chunksDropped(), 2u);
    EXPECT_EQ(reader.recordsDropped(), 4u);
}

TEST(SalvageTest, ClobberedChunkMarkerResynchronizesByScanning)
{
    std::string bytes = makeStream(8);
    const std::size_t marker = chunkOffset(bytes, 2);
    bytes[marker] = 'X'; // "XHNK": the marker itself is gone

    std::istringstream in(bytes);
    RecordStreamReader reader(in, /*salvage=*/true);
    const auto records = salvageAll(reader);
    ASSERT_EQ(records.size(), 6u);
    EXPECT_EQ(records[3], "record-3");
    EXPECT_EQ(records[4], "record-6");
    EXPECT_EQ(reader.chunksDropped(), 1u);
    EXPECT_GT(reader.bytesSkipped(), 0u);
}

TEST(SalvageTest, TruncatedTailEndsTheStreamEarly)
{
    std::string bytes = makeStream(6);
    bytes.resize(bytes.size() - 20); // into the last chunk

    std::istringstream in(bytes);
    RecordStreamReader reader(in, /*salvage=*/true);
    const auto records = salvageAll(reader);
    EXPECT_LT(records.size(), 6u);
    EXPECT_TRUE(reader.truncatedTail());
    EXPECT_TRUE(reader.sawDamage());
    // Terminal state is sticky and never Corrupt/Truncated.
    std::string_view payload;
    EXPECT_EQ(reader.next(payload), StreamStatus::End);
}

TEST(SalvageTest, DamagedHeaderScansToTheFirstChunk)
{
    std::string bytes = makeStream(4);
    bytes[0] = 'Z'; // break the TPPF magic

    std::istringstream in(bytes);
    RecordStreamReader reader(in, /*salvage=*/true);
    const auto records = salvageAll(reader);
    EXPECT_EQ(records.size(), 4u);
    EXPECT_GT(reader.bytesSkipped(), 0u);
    EXPECT_TRUE(reader.sawDamage());
}

/**
 * A finished stream of @p count 28-byte payloads, 4 per chunk, so
 * every chunk is 16 + 4 * (4 + 28) = 144 bytes on the wire.
 */
std::string
makeWideStream(int count)
{
    std::ostringstream out;
    RecordStreamOptions options;
    options.chunk_records = 4;
    RecordStreamWriter writer(out, options);
    for (int i = 0; i < count; ++i) {
        std::string payload = "record-" + std::to_string(i);
        payload.resize(28, '.');
        writer.append(payload);
    }
    writer.finish();
    return out.str();
}

constexpr std::uint64_t kWideChunkBytes = 144;

TEST(SalvageTest, JunkBeforeAMarkerKeepsTheNextChunk)
{
    // Two stray bytes land right before chunk 2's marker. The scan
    // must start at the rejected bytes: it finds that marker two
    // bytes on and loses nothing but the junk.
    std::string bytes = makeWideStream(16);
    bytes.insert(chunkOffset(bytes, 2), "zz");

    std::istringstream in(bytes);
    RecordStreamReader reader(in, /*salvage=*/true);
    const auto records = salvageAll(reader);
    ASSERT_EQ(records.size(), 16u);
    EXPECT_EQ(records[8].substr(0, 8), "record-8");
    EXPECT_EQ(reader.chunksDropped(), 1u);
    EXPECT_EQ(reader.bytesSkipped(), 2u);
    EXPECT_EQ(reader.recordsDropped(), 0u);
}

TEST(SalvageTest, BytesSkippedCountsEveryDroppedByte)
{
    // Each kind of damage costs its whole unit: a 144-byte chunk,
    // or the 8-byte header.
    struct Case
    {
        const char *name;
        void (*damage)(std::string &bytes);
        std::uint64_t skipped;
        std::size_t records;
    };
    const Case cases[] = {
        {"checksum",
         [](std::string &bytes) { corruptChunkPayload(bytes, 1); },
         kWideChunkBytes, 12},
        {"marker",
         [](std::string &bytes) { bytes[chunkOffset(bytes, 1)] = 'X'; },
         kWideChunkBytes, 12},
        {"zero count",
         [](std::string &bytes) {
             bytes.replace(chunkOffset(bytes, 1) + 4, 4,
                           std::string(4, '\0'));
         },
         kWideChunkBytes, 12},
        {"magic", [](std::string &bytes) { bytes[0] = 'Z'; }, 8, 16},
    };
    for (const Case &c : cases) {
        std::string bytes = makeWideStream(16);
        c.damage(bytes);
        std::istringstream in(bytes);
        RecordStreamReader reader(in, /*salvage=*/true);
        EXPECT_EQ(salvageAll(reader).size(), c.records) << c.name;
        EXPECT_EQ(reader.bytesSkipped(), c.skipped) << c.name;
        EXPECT_EQ(reader.chunksDropped(), c.records == 16 ? 0u : 1u)
            << c.name;
        EXPECT_FALSE(reader.truncatedTail()) << c.name;
    }
}

/**
 * Build a version-3 profile container: records without the v4
 * attempt tail (fixed-width u32+u32+u64+u64 = 24 bytes) or the v5
 * drop-count tail (u64 = 8 bytes), framed with the header version
 * patched back to 3.
 */
std::string
makeV3Profile(int count)
{
    std::ostringstream out;
    {
        RecordStreamOptions options;
        options.chunk_records = 1;
        RecordStreamWriter framing(out, options);
        for (int i = 0; i < count; ++i) {
            ProfileRecord record;
            record.sequence = static_cast<std::uint64_t>(i);
            record.window_begin = i * kSec;
            record.window_end = (i + 1) * kSec;
            record.retries = 40 + static_cast<std::uint64_t>(i);
            record.retry_time = (i + 1) * kMsec;
            std::string payload = encodeProfileRecord(record);
            payload.resize(payload.size() - 24 - 8);
            framing.append(payload);
        }
        framing.finish();
    }
    std::string bytes = out.str();
    bytes[4] = 3; // Version field follows the 4-byte magic.
    return bytes;
}

TEST(SalvageTest, V3RetryFieldsRoundTripThroughBothReaders)
{
    const std::string bytes = makeV3Profile(4);

    // The plain reader accepts the older container outright...
    {
        std::istringstream in(bytes);
        ProfileReader reader(in);
        const auto records = testutil::readAll(reader);
        ASSERT_EQ(records.size(), 4u);
        for (std::size_t i = 0; i < records.size(); ++i) {
            EXPECT_EQ(records[i].retries, 40 + i);
            EXPECT_EQ(records[i].retry_time,
                      static_cast<SimTime>(i + 1) * kMsec);
            EXPECT_EQ(records[i].attempt, 0u);
            EXPECT_FALSE(records[i].attempt_boundary);
        }
    }

    // ...and so does the salvage reader, with nothing reported
    // lost.
    std::istringstream in(bytes);
    ProfileReader reader(in, /*salvage=*/true);
    const auto records = testutil::readAll(reader);
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[2].retries, 42u);
    EXPECT_FALSE(reader.sawDamage());
}

TEST(SalvageTest, DamagedV3ProfileSalvagesRetryFields)
{
    std::string bytes = makeV3Profile(5);
    corruptChunkPayload(bytes, 1);

    std::istringstream in(bytes);
    ProfileReader reader(in, /*salvage=*/true);
    const auto records = testutil::readAll(reader);
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[0].retries, 40u);
    EXPECT_EQ(records[1].sequence, 2u); // resynced past the damage
    EXPECT_EQ(records[1].retries, 42u);
    EXPECT_EQ(records[1].retry_time, 3 * kMsec);
    EXPECT_EQ(reader.chunksDropped(), 1u);
    EXPECT_EQ(reader.recordsDropped(), 1u);
    EXPECT_TRUE(reader.sawDamage());
}

TEST(SalvageTest, ProfileReaderSalvagesDamagedProfiles)
{
    // A real ProfileRecord stream: 1 record per chunk so one
    // corrupted chunk costs exactly one record.
    std::ostringstream out;
    {
        RecordStreamOptions options;
        options.chunk_records = 1;
        RecordStreamWriter framing(out, options);
        for (int i = 0; i < 5; ++i) {
            ProfileRecord record;
            record.sequence = static_cast<std::uint64_t>(i);
            record.window_begin = i * kSec;
            record.window_end = (i + 1) * kSec;
            framing.append(encodeProfileRecord(record));
        }
        framing.finish();
    }
    std::string bytes = out.str();
    corruptChunkPayload(bytes, 2);

    {
        std::istringstream in(bytes);
        ProfileReader reader(in);
        ProfileRecord record;
        EXPECT_THROW(
            {
                while (reader.read(record))
                    ;
            },
            std::runtime_error);
    }

    std::istringstream in(bytes);
    ProfileReader reader(in, /*salvage=*/true);
    const auto records = testutil::readAll(reader);
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[0].sequence, 0u);
    EXPECT_EQ(records[2].sequence, 3u);
    EXPECT_EQ(reader.chunksDropped(), 1u);
    EXPECT_EQ(reader.recordsDropped(), 1u);
    EXPECT_TRUE(reader.sawDamage());
}

} // namespace
} // namespace tpupoint
