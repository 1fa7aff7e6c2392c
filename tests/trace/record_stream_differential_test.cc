/**
 * @file
 * Transport differential: RecordStreamReader (a finished stream) and
 * TailReader (a growing file) drive one container parser, so over
 * the same bytes they must agree. A seeded mutation driver (bit
 * flips, byte insertions and deletions, 4-byte clobbers,
 * truncations and length-field edits) damages small multi-chunk
 * streams; each mutant is read by the batch reader and by a tail
 * reader polling the file as it is appended in random slices:
 *
 * - salvage: identical payload sequences and identical
 *   chunksDropped / recordsDropped / bytesSkipped, and a batch
 *   truncated tail exactly where the tail reader is still pending;
 * - replay: a fresh tail reader limited to an offset the sliced
 *   reader committed after some poll (a journal offset) lands
 *   exactly on it, and live polls then finish with the same result;
 * - strict: the same payload prefix, with batch Corrupt matching
 *   tail Damaged and batch Truncated matching tail Pending.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>
#ifdef __unix__
#include <unistd.h>
#endif

#include "core/rng.hh"
#include "trace/record_stream.hh"
#include "trace/tail_reader.hh"

namespace tpupoint {
namespace {

/** Mutants per test. */
constexpr int kMutants = 2000;

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

/** A finished stream of 40 random payloads in random-size chunks. */
std::string
baseStream(Rng &rng)
{
    std::ostringstream out(std::ios::binary);
    RecordStreamOptions options;
    options.chunk_records = 1 + rng.nextBounded(6);
    RecordStreamWriter writer(out, options);
    for (int i = 0; i < 40; ++i) {
        std::string payload(rng.nextBounded(48), '\0');
        for (char &byte : payload)
            byte = static_cast<char>(rng.nextBounded(256));
        writer.append(payload);
    }
    writer.finish();
    return out.str();
}

/** Overwrite the u32 at @p at with @p value, little-endian. */
void
storeLE32(std::string &bytes, std::size_t at, std::uint32_t value)
{
    for (std::size_t i = 0; i < 4 && at + i < bytes.size(); ++i)
        bytes[at + i] = static_cast<char>(value >> (8 * i));
}

/** Apply one to three seeded mutations to @p bytes. */
void
mutate(Rng &rng, std::string &bytes)
{
    const int count = 1 + static_cast<int>(rng.nextBounded(3));
    for (int m = 0; m < count && !bytes.empty(); ++m) {
        const std::size_t at = rng.nextBounded(bytes.size());
        switch (rng.nextBounded(6)) {
          case 0: // bit flip
            bytes[at] = static_cast<char>(
                bytes[at] ^ (1 << rng.nextBounded(8)));
            break;
          case 1: // byte insertion
            bytes.insert(at, 1 + rng.nextBounded(8),
                         static_cast<char>(rng.nextBounded(256)));
            break;
          case 2: // byte deletion
            bytes.erase(at, 1 + rng.nextBounded(8));
            break;
          case 3: // 4-byte clobber
            storeLE32(bytes, at,
                      static_cast<std::uint32_t>(rng.nextU64()));
            break;
          case 4: // truncation
            bytes.resize(at);
            break;
          case 5: { // length-field edit: a chunk header's count or
                    // size, or the end marker's declared total
            std::vector<std::size_t> fields;
            for (std::size_t pos = bytes.find("CHNK");
                 pos != std::string::npos;
                 pos = bytes.find("CHNK", pos + 1)) {
                fields.push_back(pos + 4);
                fields.push_back(pos + 8);
            }
            const std::size_t ends = bytes.rfind("ENDS");
            if (ends != std::string::npos)
                fields.push_back(ends + 4);
            if (fields.empty())
                break;
            const std::size_t field =
                fields[rng.nextBounded(fields.size())];
            const std::uint32_t value =
                rng.nextBounded(2) == 0
                ? static_cast<std::uint32_t>(rng.nextU64())
                : static_cast<std::uint32_t>(rng.nextBounded(64));
            storeLE32(bytes, field, value);
            break;
          }
        }
    }
}

/** What one reader made of a mutant. */
struct Outcome
{
    std::vector<std::string> payloads;
    std::uint64_t chunks_dropped = 0;
    std::uint64_t records_dropped = 0;
    std::uint64_t bytes_skipped = 0;
    /** "end", "cut" (truncated / pending) or "damaged". */
    std::string verdict;

    bool
    operator==(const Outcome &other) const = default;
};

std::ostream &
operator<<(std::ostream &out, const Outcome &outcome)
{
    return out << outcome.payloads.size() << " payloads, "
               << outcome.chunks_dropped << " chunks / "
               << outcome.records_dropped << " records dropped, "
               << outcome.bytes_skipped << " bytes skipped, "
               << outcome.verdict;
}

void
tallies(const RecordStreamParser &reader, Outcome &out)
{
    out.chunks_dropped = reader.chunksDropped();
    out.records_dropped = reader.recordsDropped();
    out.bytes_skipped = reader.bytesSkipped();
}

Outcome
readBatch(const std::string &bytes, bool salvage)
{
    std::istringstream in(bytes, std::ios::binary);
    RecordStreamReader reader(in, salvage);
    Outcome out;
    std::string_view payload;
    StreamStatus status;
    while ((status = reader.next(payload)) == StreamStatus::Ok)
        out.payloads.emplace_back(payload);
    tallies(reader, out);
    if (status == StreamStatus::Corrupt)
        out.verdict = "damaged";
    else if (status == StreamStatus::Truncated ||
             reader.truncatedTail())
        out.verdict = "cut";
    else
        out.verdict = "end";
    return out;
}

void
tailVerdict(const TailReader &reader, Outcome &out)
{
    tallies(reader, out);
    out.verdict = reader.complete() ? "end"
        : reader.damaged()          ? "damaged"
                                    : "cut";
}

TailReader::PayloadHook
collect(Outcome &out)
{
    return [&out](std::string_view payload) {
        out.payloads.emplace_back(payload);
    };
}

/**
 * Append @p bytes to @p path in random slices, polling after each.
 * @p commits receives the offset consumed after every poll.
 */
Outcome
readTail(Rng &rng, const std::string &path, const std::string &bytes,
         bool salvage, std::vector<std::uint64_t> *commits = nullptr)
{
    std::remove(path.c_str());
    TailReader reader(path, salvage);
    Outcome out;
    const std::size_t slices = 1 + rng.nextBounded(6);
    std::size_t written = 0;
    for (std::size_t i = 1; i <= slices; ++i) {
        const std::size_t upto = i == slices
            ? bytes.size()
            : written + rng.nextBounded(bytes.size() - written + 1);
        {
            std::ofstream file(path,
                               std::ios::binary | std::ios::app);
            file.write(bytes.data() + written,
                       static_cast<std::streamsize>(upto - written));
        }
        written = upto;
        reader.poll(collect(out));
        if (commits)
            commits->push_back(reader.bytesConsumed());
    }
    // A repoll of the unchanged file must change nothing.
    EXPECT_EQ(reader.poll(collect(out)).bytes, 0u);
    tailVerdict(reader, out);
    return out;
}

TEST(RecordStreamDifferential, SalvageAgreesOnRecordsAndTallies)
{
    const std::string path = tempPath("differential_salvage.tpp");
    Rng rng(20261017);
    for (int trial = 0; trial < kMutants; ++trial) {
        std::string bytes = baseStream(rng);
        if (trial > 0) // Trial 0 pins the undamaged stream.
            mutate(rng, bytes);
        const Outcome batch = readBatch(bytes, /*salvage=*/true);
        const Outcome tail =
            readTail(rng, path, bytes, /*salvage=*/true);
        ASSERT_EQ(batch, tail) << "trial " << trial;
        ASSERT_NE(batch.verdict, "damaged") << "trial " << trial;
    }
    std::remove(path.c_str());
}

TEST(RecordStreamDifferential, ReplayToACommittedOffsetThenLivePolls)
{
    const std::string path = tempPath("differential_replay.tpp");
    Rng rng(777);
    for (int trial = 0; trial < kMutants; ++trial) {
        std::string bytes = baseStream(rng);
        mutate(rng, bytes);
        const Outcome batch = readBatch(bytes, /*salvage=*/true);
        std::vector<std::uint64_t> commits;
        readTail(rng, path, bytes, /*salvage=*/true, &commits);

        // Recover from one journal offset: replay up to it, then
        // follow the (by now complete) file live.
        const std::uint64_t limit =
            commits[rng.nextBounded(commits.size())];
        TailReader reader(path);
        Outcome replayed;
        reader.poll(collect(replayed), nullptr, limit);
        ASSERT_EQ(reader.bytesConsumed(), limit) << "trial " << trial;
        reader.poll(collect(replayed));
        tailVerdict(reader, replayed);
        ASSERT_EQ(batch, replayed) << "trial " << trial;
    }
    std::remove(path.c_str());
}

TEST(RecordStreamDifferential, StrictAgreesOnPrefixAndVerdict)
{
    const std::string path = tempPath("differential_strict.tpp");
    Rng rng(4242);
    for (int trial = 0; trial < kMutants; ++trial) {
        std::string bytes = baseStream(rng);
        mutate(rng, bytes);
        const Outcome batch = readBatch(bytes, /*salvage=*/false);
        const Outcome tail =
            readTail(rng, path, bytes, /*salvage=*/false);
        ASSERT_EQ(batch.payloads, tail.payloads) << "trial " << trial;
        ASSERT_EQ(batch.verdict, tail.verdict) << "trial " << trial;
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace tpupoint
