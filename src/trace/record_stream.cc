#include "trace/record_stream.hh"

#include <algorithm>
#include <cstring>

#include "core/logging.hh"
#include "trace/bytes.hh"
#include "trace/checksum.hh"
#include "trace/wire.hh"

namespace tpupoint {

namespace {

using wire::kChunkMarker;
using wire::kEndMarker;
using wire::kMagic;
using wire::kMaxChunkPayload;
using wire::kMinVersion;
using wire::kVersion;

void
putU32(std::ostream &out, std::uint32_t v)
{
    char bytes[4];
    for (int i = 0; i < 4; ++i)
        bytes[i] = static_cast<char>(v >> (8 * i));
    out.write(bytes, sizeof(bytes));
}

void
putU64(std::ostream &out, std::uint64_t v)
{
    char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<char>(v >> (8 * i));
    out.write(bytes, sizeof(bytes));
}

} // namespace

RecordStreamWriter::RecordStreamWriter(
    std::ostream &out, const RecordStreamOptions &options)
    : stream(out), opts(options)
{
    if (opts.chunk_records == 0 || opts.chunk_bytes == 0)
        fatal("RecordStreamWriter: chunk limits must be positive");
    stream.write(kMagic, sizeof(kMagic));
    putU32(stream, kVersion);
    written_bytes += sizeof(kMagic) + 4;
    if (!stream)
        fatal("RecordStreamWriter: stream write failed");
}

RecordStreamWriter::~RecordStreamWriter()
{
    try {
        finish();
    } catch (...) {
        // A failing stream was already reported by the explicit
        // API; destruction must not throw on the unwind path.
    }
}

void
RecordStreamWriter::append(std::string_view payload)
{
    if (finished)
        fatal("RecordStreamWriter: append after finish");
    char length[4];
    const auto size = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i)
        length[i] = static_cast<char>(size >> (8 * i));
    chunk.append(length, sizeof(length));
    chunk.append(payload.data(), payload.size());
    ++chunk_records;
    ++total_records;
    if (chunk_records >= opts.chunk_records ||
        chunk.size() >= opts.chunk_bytes)
        flush();
}

void
RecordStreamWriter::flush()
{
    if (chunk.empty())
        return;
    putU32(stream, kChunkMarker);
    putU32(stream, static_cast<std::uint32_t>(chunk_records));
    putU32(stream, static_cast<std::uint32_t>(chunk.size()));
    putU32(stream, crc32(chunk));
    stream.write(chunk.data(),
                 static_cast<std::streamsize>(chunk.size()));
    written_bytes += 16 + chunk.size();
    ++flushed_chunks;
    chunk.clear();
    chunk_records = 0;
    if (!stream)
        fatal("RecordStreamWriter: stream write failed");
}

void
RecordStreamWriter::finish()
{
    if (finished)
        return;
    flush();
    putU32(stream, kEndMarker);
    putU64(stream, total_records);
    written_bytes += 12;
    finished = true;
    if (!stream)
        fatal("RecordStreamWriter: stream write failed");
}

RecordStreamParser::RecordStreamParser(bool salvage, bool growing)
    : salvage_mode(salvage), growing_stream(growing)
{
}

void
RecordStreamParser::attach(std::istream &in, std::uint64_t in_end)
{
    source = &in;
    cursor = offset;
    end = in_end;
}

std::uint64_t
RecordStreamParser::readSome(char *into, std::uint64_t at,
                             std::uint64_t size)
{
    const std::uint64_t from = offset + at;
    if (from != cursor) {
        // Only a resync moves backwards or skips: the steady state
        // reads each unit right where the previous one ended.
        source->clear();
        source->seekg(static_cast<std::streamoff>(from) -
                          static_cast<std::streamoff>(cursor),
                      std::ios::cur);
        cursor = from;
    }
    source->read(into, static_cast<std::streamsize>(size));
    const auto got = static_cast<std::uint64_t>(source->gcount());
    cursor += got;
    return got;
}

bool
RecordStreamParser::cutOff(const char *where)
{
    if (growing_stream)
        return false; // Pending: the unit stays unconsumed.
    if (salvage_mode) {
        truncated_tail = true;
        state = StreamStatus::End;
        return false;
    }
    detail = std::string("stream ended ") + where;
    state = StreamStatus::Truncated;
    return false;
}

bool
RecordStreamParser::salvageOr(std::string why)
{
    detail = std::move(why);
    if (!salvage_mode)
        state = StreamStatus::Corrupt;
    return salvage_mode;
}

RecordStreamParser::Step
RecordStreamParser::step(std::string_view &payload)
{
    for (;;) {
        if (state != StreamStatus::Ok)
            return Step::Stop;
        bool more = true;
        switch (stage) {
          case Stage::Header: more = parseHeader(); break;
          case Stage::Marker: more = parseUnit(); break;
          case Stage::Resync: more = resync(); break;
          case Stage::Records: return nextRecord(payload);
        }
        if (!more)
            return state == StreamStatus::Ok ? Step::Pending
                                             : Step::Stop;
    }
}

bool
RecordStreamParser::parseHeader()
{
    char header[8];
    if (!read(header, 0, sizeof(header)))
        return cutOff("inside the header");
    if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
        // A damaged header loses nothing but the version: scan for
        // the first chunk marker and carry on.
        if (!salvageOr("bad magic (not a TPUPoint profile)"))
            return false;
        stage = Stage::Resync;
        return true;
    }
    stream_version = loadLE32(header + 4);
    if (stream_version < kMinVersion || stream_version > kVersion) {
        if (!salvage_mode) {
            detail = "unsupported profile version " +
                std::to_string(stream_version) + " (supported: " +
                std::to_string(kMinVersion) + ".." +
                std::to_string(kVersion) + ")";
            state = StreamStatus::Corrupt;
            return false;
        }
        detail = "version " + std::to_string(stream_version) +
            " salvaged as " + std::to_string(kVersion);
    }
    if (!fits(sizeof(header)))
        return cutOff("inside the header");
    offset += sizeof(header);
    stage = Stage::Marker;
    return true;
}

bool
RecordStreamParser::parseUnit()
{
    char head[16];
    if (!read(head, 0, 4))
        return cutOff("without an end marker");
    const std::uint32_t marker = loadLE32(head);
    if (marker == kEndMarker) {
        if (!read(head + 4, 4, 8))
            return cutOff("inside the end marker");
        const std::uint64_t declared = loadLE64(head + 4);
        if (declared != produced && !salvage_mode) {
            detail = "end marker declares " +
                std::to_string(declared) + " records but " +
                std::to_string(produced) + " were read";
            state = StreamStatus::Corrupt;
            return false;
        }
        if (!fits(12))
            return cutOff("inside the end marker");
        if (declared > produced)
            dropped_records = declared - produced;
        offset += 12;
        state = StreamStatus::End;
        return false;
    }
    if (marker != kChunkMarker) {
        if (!salvageOr("bad chunk marker"))
            return false;
        ++dropped_chunks;
        stage = Stage::Resync; // Starting at the rejected bytes.
        return true;
    }

    if (!read(head + 4, 4, 12))
        return cutOff("inside a chunk header");
    const std::uint32_t record_count = loadLE32(head + 4);
    const std::uint32_t payload_size = loadLE32(head + 8);
    if (record_count == 0 || payload_size > kMaxChunkPayload) {
        // The header fields cannot be trusted to skip by (or to
        // wait on): drop the marker and rescan from just past it.
        if (!salvageOr(record_count == 0
                           ? std::string("empty chunk")
                           : "implausible chunk payload size " +
                               std::to_string(payload_size)))
            return false;
        if (!fits(4))
            return cutOff("inside a chunk header");
        ++dropped_chunks;
        offset += 4;
        skipped_bytes += 4;
        stage = Stage::Resync;
        return true;
    }
    const std::uint64_t unit = 16 + std::uint64_t{payload_size};
    if (!fits(unit))
        return cutOff("inside a chunk payload");
    // The one buffer the parser owns: capacity is retained across
    // chunks, so growth happens only until the largest chunk has
    // been seen — the steady state reads without touching the heap.
    if (payload_size > chunk.capacity())
        ++buffer_growths;
    chunk.resize(payload_size);
    if (!read(chunk.data(), 16, payload_size))
        return cutOff("inside a chunk payload");
    if (crc32(chunk) != loadLE32(head + 12)) {
        // The framing around the chunk is intact, so the next
        // marker follows it: drop exactly this chunk.
        if (!salvageOr("chunk checksum mismatch"))
            return false;
        ++dropped_chunks;
        offset += unit;
        skipped_bytes += unit;
        return true;
    }
    offset += unit;
    chunk_at = 0;
    chunk_remaining = record_count;
    stage = Stage::Records;
    return true;
}

RecordStreamParser::Step
RecordStreamParser::nextRecord(std::string_view &payload)
{
    const char *why = nullptr;
    if (chunk_remaining == 0) {
        if (chunk_at != chunk.size())
            why = "trailing bytes after the last chunk record";
    } else if (chunk.size() - chunk_at < 4) {
        why = "record length field overruns its chunk";
    } else {
        const std::uint32_t length = loadLE32(chunk.data() + chunk_at);
        if (length > chunk.size() - chunk_at - 4) {
            why = "record payload overruns its chunk";
        } else {
            payload = std::string_view(chunk.data() + chunk_at + 4,
                                       length);
            chunk_at += 4 + std::size_t{length};
            --chunk_remaining;
            ++produced;
            return Step::Record;
        }
    }
    if (why) {
        // The CRC passed but the record framing disagrees with the
        // header: the records already delivered stand, the rest of
        // the chunk is lost.
        if (!salvageOr(why))
            return Step::Stop;
        ++dropped_chunks;
        skipped_bytes += chunk.size() - chunk_at;
    }
    stage = Stage::Marker;
    return Step::Chunk;
}

bool
RecordStreamParser::resync()
{
    // Scan for the literal "CHNK"/"ENDS" bytes (both markers are
    // little-endian, so they appear in stream order as ASCII).
    // Everything before a match is skipped; without one, the last
    // three bytes stay unconsumed so a marker cut across the end
    // of the input is still found once more bytes arrive.
    char block[4096];
    const std::uint64_t got = readSome(block, 0, sizeof(block));
    const std::uint64_t room = std::min(got, end - offset);
    std::uint64_t skip = got < 4 ? 0 : std::min(got - 3, room);
    for (std::uint64_t i = 0; i < room && i + 4 <= got; ++i) {
        const std::uint32_t window = loadLE32(block + i);
        if (window == kChunkMarker || window == kEndMarker) {
            skip = i;
            stage = Stage::Marker;
            break;
        }
    }
    offset += skip;
    skipped_bytes += skip;
    if (stage == Stage::Resync && skip == 0)
        return cutOff("while resynchronizing");
    return true;
}

RecordStreamReader::RecordStreamReader(std::istream &stream,
                                       bool salvage)
    : RecordStreamParser(salvage, /*growing=*/false)
{
    attach(stream, ~0ull);
    parseHeader();
}

StreamStatus
RecordStreamReader::next(std::string_view &payload)
{
    Step outcome = step(payload);
    while (outcome == Step::Chunk)
        outcome = step(payload);
    return outcome == Step::Record ? StreamStatus::Ok : state;
}

} // namespace tpupoint
