/**
 * @file TailReader: incremental reads over a growing stream file.
 * Pins the one distinction the batch reader cannot draw — a tail
 * that stops mid-chunk is "pending, more may come" (nothing
 * consumed, nothing dropped), while structurally wrong bytes are
 * damage (salvaged or terminal, by mode) — plus offset resumption:
 * records arrive exactly once however the file growth is sliced.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>
#ifdef __unix__
#include <unistd.h>
#endif

#include "trace/record_stream.hh"
#include "trace/tail_reader.hh"

namespace tpupoint {
namespace {

std::string
tempPath(const std::string &name)
{
#ifdef __unix__
    return testing::TempDir() + std::to_string(getpid()) + "." +
        name;
#else
    return testing::TempDir() + name;
#endif
}

/** A sealed stream of "rec<i>" payloads, @p per_chunk per chunk. */
std::string
streamBytes(std::size_t records, std::size_t per_chunk = 2)
{
    std::ostringstream out(std::ios::binary);
    RecordStreamOptions options;
    options.chunk_records = per_chunk;
    RecordStreamWriter writer(out, options);
    for (std::size_t i = 0; i < records; ++i)
        writer.append("rec" + std::to_string(i));
    writer.finish();
    return out.str();
}

void
writeBytes(const std::string &path, std::string_view bytes,
           bool append = false)
{
    std::ofstream out(path,
                      append ? std::ios::binary | std::ios::app
                             : std::ios::binary |
                              std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** Collect payload copies from one poll. */
TailPoll
pollInto(TailReader &reader, std::vector<std::string> *records)
{
    return reader.poll([records](std::string_view payload) {
        records->push_back(std::string(payload));
    });
}

TEST(TailReaderTest, AbsentFileIsPending)
{
    const std::string path = tempPath("tail_absent.tpp");
    std::remove(path.c_str());
    TailReader reader(path);
    std::vector<std::string> records;
    const TailPoll pass = pollInto(reader, &records);
    EXPECT_EQ(pass.status, TailStatus::Pending);
    EXPECT_EQ(pass.records, 0u);
    EXPECT_FALSE(reader.sawDamage());
}

TEST(TailReaderTest, PartialHeaderIsPending)
{
    const std::string path = tempPath("tail_header.tpp");
    const std::string bytes = streamBytes(4);
    writeBytes(path, std::string_view(bytes).substr(0, 5));
    TailReader reader(path);
    std::vector<std::string> records;
    EXPECT_EQ(pollInto(reader, &records).status,
              TailStatus::Pending);
    EXPECT_EQ(reader.bytesConsumed(), 0u);
    EXPECT_FALSE(reader.sawDamage());
}

TEST(TailReaderTest, DeliversEveryRecordOnceAcrossSlicedGrowth)
{
    const std::string path = tempPath("tail_grow.tpp");
    const std::string bytes = streamBytes(10);
    TailReader reader(path);
    std::vector<std::string> records;

    // Grow the file in awkward slices (one lands mid-chunk).
    const std::size_t cuts[] = {9, bytes.size() / 2 + 3,
                                bytes.size()};
    std::size_t previous = 0;
    TailPoll last;
    for (const std::size_t cut : cuts) {
        writeBytes(path,
                   std::string_view(bytes).substr(
                       previous, cut - previous),
                   previous != 0);
        previous = cut;
        last = pollInto(reader, &records);
    }
    EXPECT_EQ(last.status, TailStatus::Complete);
    ASSERT_EQ(records.size(), 10u);
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(records[i], "rec" + std::to_string(i));
    EXPECT_TRUE(reader.complete());
    EXPECT_EQ(reader.bytesConsumed(), bytes.size());
    EXPECT_FALSE(reader.sawDamage());
}

TEST(TailReaderTest, MidChunkTailIsPendingNotDamage)
{
    const std::string path = tempPath("tail_midchunk.tpp");
    const std::string bytes = streamBytes(6);
    // Cut inside the last chunk's payload.
    writeBytes(path,
               std::string_view(bytes).substr(0,
                                              bytes.size() - 7));
    TailReader reader(path);
    std::vector<std::string> records;
    const TailPoll pass = pollInto(reader, &records);
    EXPECT_EQ(pass.status, TailStatus::Pending);
    EXPECT_FALSE(reader.sawDamage());
    EXPECT_FALSE(reader.complete());
    // The complete chunks were consumed; repolling the unchanged
    // file neither re-delivers nor drops anything.
    const std::size_t seen = records.size();
    EXPECT_EQ(pollInto(reader, &records).records, 0u);
    EXPECT_EQ(records.size(), seen);

    // The missing tail arrives: exactly the rest is delivered.
    writeBytes(path,
               std::string_view(bytes).substr(bytes.size() - 7),
               true);
    EXPECT_EQ(pollInto(reader, &records).status,
              TailStatus::Complete);
    EXPECT_EQ(records.size(), 6u);
}

TEST(TailReaderTest, SalvageDropsCorruptChunkAndReadsOn)
{
    const std::string path = tempPath("tail_corrupt.tpp");
    std::string bytes = streamBytes(8); // 4 chunks of 2.
    // Corrupt the second chunk's payload (first byte after its
    // 16-byte chunk header).
    const std::size_t second =
        bytes.find("CHNK", bytes.find("CHNK") + 1);
    ASSERT_NE(second, std::string::npos);
    bytes[second + 16] ^= 0x5a;
    writeBytes(path, bytes);

    TailReader reader(path);
    std::vector<std::string> records;
    const TailPoll pass = pollInto(reader, &records);
    EXPECT_EQ(pass.status, TailStatus::Complete);
    EXPECT_EQ(reader.chunksDropped(), 1u);
    // The end marker declared 8; the dropped chunk's 2 are known
    // lost.
    EXPECT_EQ(reader.recordsDropped(), 2u);
    EXPECT_TRUE(reader.sawDamage());
    ASSERT_EQ(records.size(), 6u);
    EXPECT_EQ(records[0], "rec0");
    EXPECT_EQ(records[2], "rec4"); // rec2/rec3 were the casualty.
}

TEST(TailReaderTest, StrictModeDamageIsTerminal)
{
    const std::string path = tempPath("tail_strict.tpp");
    std::string bytes = streamBytes(4);
    bytes[bytes.find("CHNK") + 16] ^= 0x5a;
    writeBytes(path, bytes);

    TailReader reader(path, /*salvage=*/false);
    std::vector<std::string> records;
    EXPECT_EQ(pollInto(reader, &records).status,
              TailStatus::Damaged);
    EXPECT_TRUE(reader.damaged());
    EXPECT_FALSE(reader.error().empty());
    // Terminal: repolls stay Damaged and consume nothing.
    const std::uint64_t consumed = reader.bytesConsumed();
    EXPECT_EQ(pollInto(reader, &records).status,
              TailStatus::Damaged);
    EXPECT_EQ(reader.bytesConsumed(), consumed);
    EXPECT_TRUE(records.empty());
}

TEST(TailReaderTest, ChunkHookReportsPerChunkRecordCounts)
{
    const std::string path = tempPath("tail_hook.tpp");
    writeBytes(path, streamBytes(6, /*per_chunk=*/3));
    TailReader reader(path);
    std::vector<std::size_t> chunk_counts;
    const TailPoll pass = reader.poll(
        [](std::string_view) {},
        [&chunk_counts](std::size_t records) {
            chunk_counts.push_back(records);
        });
    EXPECT_EQ(pass.status, TailStatus::Complete);
    EXPECT_EQ(pass.chunks, 2u);
    ASSERT_EQ(chunk_counts.size(), 2u);
    EXPECT_EQ(chunk_counts[0], 3u);
    EXPECT_EQ(chunk_counts[1], 3u);
}

TEST(TailReaderTest, OffsetLimitBoundsReplayExactly)
{
    const std::string path = tempPath("tail_limit.tpp");
    const std::string bytes = streamBytes(10);
    writeBytes(path, bytes);

    // Learn the offset after the first two chunks by polling an
    // unlimited reader's consumption — commits always land on
    // unit boundaries, which is what a journal records.
    TailReader probe(path);
    std::uint64_t boundary = 0;
    std::uint64_t seen = 0;
    probe.poll([](std::string_view) {},
               [&](std::size_t records) {
                   seen += records;
                   if (seen <= 4)
                       boundary = probe.bytesConsumed();
               });
    ASSERT_GT(boundary, 0u);

    // A limited reader stops exactly at the boundary...
    TailReader limited(path);
    std::vector<std::string> records;
    const TailPoll replay = limited.poll(
        [&records](std::string_view payload) {
            records.push_back(std::string(payload));
        },
        nullptr, boundary);
    EXPECT_EQ(replay.status, TailStatus::Pending);
    EXPECT_EQ(limited.bytesConsumed(), boundary);
    EXPECT_EQ(records.size(), 4u);
    EXPECT_FALSE(limited.sawDamage());

    // ...and an unlimited poll afterwards picks up the rest:
    // every record exactly once across the limit.
    EXPECT_EQ(pollInto(limited, &records).status,
              TailStatus::Complete);
    ASSERT_EQ(records.size(), 10u);
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(records[i], "rec" + std::to_string(i));
}

TEST(TailReaderTest, LimitAtOrBelowOffsetIsPendingNotUnderflow)
{
    const std::string path = tempPath("tail_limit_low.tpp");
    writeBytes(path, streamBytes(4));
    TailReader reader(path);
    std::vector<std::string> records;
    EXPECT_EQ(pollInto(reader, &records).status,
              TailStatus::Complete);
    const std::uint64_t consumed = reader.bytesConsumed();

    TailReader again(path);
    // Replay up to just before the end marker, then poll with a
    // limit *below* the offset: nothing more may be consumed and
    // nothing underflows.
    again.poll([](std::string_view) {}, nullptr, consumed - 12);
    const std::uint64_t offset = again.bytesConsumed();
    EXPECT_GT(offset, 8u);
    const TailPoll low =
        again.poll([](std::string_view) {}, nullptr, 8);
    EXPECT_EQ(low.bytes, 0u);
    EXPECT_EQ(low.status, TailStatus::Pending);
    EXPECT_EQ(again.bytesConsumed(), offset);
}

TEST(TailReaderTest, ReplayLandsOnACommitInsideDamage)
{
    // Eight junk bytes sit before the second chunk's marker. A poll
    // that sees only part of the damage commits an offset inside it:
    // three bytes short of the junk visible so far (a marker may
    // still straddle them), or on the marker once the scan found it
    // but the chunk behind it is incomplete. A recovery replay
    // bounded by such a commit must land on it exactly (serve
    // quarantines a session whose replay does not), then finish live
    // with the same tallies as an uninterrupted read.
    const std::string path = tempPath("tail_replay_damage.tpp");
    std::string bytes = streamBytes(6);
    const std::size_t marker =
        bytes.find("CHNK", bytes.find("CHNK") + 1);
    bytes.insert(marker, 8, 'z');
    const std::size_t cuts[] = {marker + 6, marker + 8 + 10};
    const std::uint64_t commits[] = {marker + 3, marker + 8};
    for (int i = 0; i < 2; ++i) {
        writeBytes(path, std::string_view(bytes).substr(0, cuts[i]));
        TailReader live(path);
        live.poll([](std::string_view) {});
        ASSERT_EQ(live.bytesConsumed(), commits[i]);

        writeBytes(path, bytes);
        TailReader replay(path);
        std::vector<std::string> records;
        replay.poll(
            [&records](std::string_view payload) {
                records.push_back(std::string(payload));
            },
            nullptr, commits[i]);
        EXPECT_EQ(replay.bytesConsumed(), commits[i]);
        EXPECT_EQ(records.size(), 2u);
        EXPECT_EQ(pollInto(replay, &records).status,
                  TailStatus::Complete);
        EXPECT_EQ(records.size(), 6u);
        EXPECT_EQ(replay.chunksDropped(), 1u);
        EXPECT_EQ(replay.bytesSkipped(), 8u);
    }
}

TEST(TailReaderTest, CompletedReaderKeepsReportingComplete)
{
    const std::string path = tempPath("tail_done.tpp");
    writeBytes(path, streamBytes(2));
    TailReader reader(path);
    std::vector<std::string> records;
    EXPECT_EQ(pollInto(reader, &records).status,
              TailStatus::Complete);
    EXPECT_EQ(pollInto(reader, &records).status,
              TailStatus::Complete);
    EXPECT_EQ(records.size(), 2u);
    EXPECT_EQ(reader.recordsProduced(), 2u);
}

} // namespace
} // namespace tpupoint
