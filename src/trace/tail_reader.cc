#include "trace/tail_reader.hh"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "trace/checksum.hh"
#include "trace/wire.hh"

namespace tpupoint {

namespace {

/** Fixed-size prefix of every chunk: marker, count, size, crc. */
constexpr std::uint64_t kChunkHeaderBytes = 16;

/** Fixed size of the end unit: marker plus declared total. */
constexpr std::uint64_t kEndBytes = 12;

/** Read-block size while resynchronizing. */
constexpr std::size_t kResyncBlock = 64 * 1024;

std::uint32_t
loadU32(const char *bytes)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes[i]))
            << (8 * i);
    return v;
}

std::uint64_t
loadU64(const char *bytes)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[i]))
            << (8 * i);
    return v;
}

/** Read exactly @p size bytes at @p at, or report failure. */
bool
readAt(std::ifstream &in, std::uint64_t at, char *into,
       std::uint64_t size)
{
    in.clear();
    in.seekg(static_cast<std::streamoff>(at));
    in.read(into, static_cast<std::streamsize>(size));
    return in.gcount() == static_cast<std::streamsize>(size);
}

} // namespace

TailReader::TailReader(std::string path,
                       const TailReaderOptions &options)
    : file_path(std::move(path)), opts(options)
{
}

bool
TailReader::failOrResync(const std::string &why)
{
    detail = why;
    if (opts.salvage) {
        stage = Stage::Resync;
        return true;
    }
    stage = Stage::Broken;
    return false;
}

TailPoll
TailReader::poll(const PayloadHook &on_record,
                 const ChunkHook &on_chunk,
                 std::uint64_t offset_limit)
{
    TailPoll out;
    if (stage == Stage::Done) {
        out.status = TailStatus::Complete;
        return out;
    }
    if (stage == Stage::Broken) {
        out.status = TailStatus::Damaged;
        return out;
    }

    std::ifstream in(file_path, std::ios::binary);
    if (!in)
        return out; // Not spooled yet: Pending, nothing consumed.
    in.seekg(0, std::ios::end);
    const auto end_pos = in.tellg();
    if (end_pos < 0)
        return out;
    // A limit caps what this pass may see, never what was already
    // consumed — clamping to `offset` keeps `avail` at zero
    // (Pending) instead of underflowing when a caller passes a
    // limit at or below the current position.
    const auto size = std::max(
        offset,
        std::min(static_cast<std::uint64_t>(end_pos),
                 offset_limit));
    if (static_cast<std::uint64_t>(end_pos) < offset) {
        // The file shrank under us — a writer never truncates, so
        // the consumed prefix is gone. Strict mode gives up;
        // salvage waits for the file to grow back past the offset
        // (a copy-then-rename spooler can look like this briefly).
        if (!opts.salvage) {
            detail = "file shrank below the consumed offset";
            stage = Stage::Broken;
            out.status = TailStatus::Damaged;
        }
        return out;
    }

    const auto consume = [&](std::uint64_t bytes) {
        offset += bytes;
        out.bytes += bytes;
    };

    char header[kChunkHeaderBytes];
    for (;;) {
        const std::uint64_t avail = size - offset;
        switch (stage) {
          case Stage::Header: {
            if (avail < 8)
                return out;
            if (!readAt(in, offset, header, 8))
                return out;
            if (std::memcmp(header, wire::kMagic,
                            sizeof(wire::kMagic)) != 0) {
                // A damaged header loses nothing but the version:
                // scan for the first chunk marker and carry on.
                if (!failOrResync("bad magic (not a TPUPoint "
                                  "profile)")) {
                    out.status = TailStatus::Damaged;
                    return out;
                }
                continue;
            }
            stream_version = loadU32(header + 4);
            if (stream_version < wire::kMinVersion ||
                stream_version > wire::kVersion) {
                if (!opts.salvage) {
                    detail = "unsupported profile version " +
                        std::to_string(stream_version);
                    stage = Stage::Broken;
                    out.status = TailStatus::Damaged;
                    return out;
                }
                detail = "version " +
                    std::to_string(stream_version) +
                    " salvaged as " +
                    std::to_string(wire::kVersion);
            }
            consume(8);
            stage = Stage::Chunks;
            continue;
          }

          case Stage::Chunks: {
            if (avail < 4)
                return out;
            if (!readAt(in, offset, header, 4))
                return out;
            const std::uint32_t marker = loadU32(header);

            if (marker == wire::kEndMarker) {
                if (avail < kEndBytes)
                    return out; // End marker still flushing.
                if (!readAt(in, offset + 4, header, 8))
                    return out;
                const std::uint64_t declared = loadU64(header);
                if (declared != produced && !opts.salvage) {
                    detail = "end marker declares " +
                        std::to_string(declared) +
                        " records, stream produced " +
                        std::to_string(produced);
                    stage = Stage::Broken;
                    out.status = TailStatus::Damaged;
                    return out;
                }
                if (declared > produced)
                    dropped_records += declared - produced;
                consume(kEndBytes);
                stage = Stage::Done;
                out.status = TailStatus::Complete;
                return out;
            }

            if (marker != wire::kChunkMarker) {
                ++dropped_chunks;
                if (!failOrResync("bad chunk marker")) {
                    out.status = TailStatus::Damaged;
                    return out;
                }
                continue;
            }

            if (avail < kChunkHeaderBytes)
                return out; // Chunk header mid-write.
            if (!readAt(in, offset, header, kChunkHeaderBytes))
                return out;
            const std::uint32_t record_count = loadU32(header + 4);
            const std::uint32_t payload_size = loadU32(header + 8);
            const std::uint32_t checksum = loadU32(header + 12);

            if (record_count == 0 ||
                payload_size > wire::kMaxChunkPayload) {
                // An implausible header is damage, not a short
                // tail: the declared size cannot be trusted to
                // wait on. Skip the marker and rescan.
                ++dropped_chunks;
                if (!failOrResync("implausible chunk header")) {
                    out.status = TailStatus::Damaged;
                    return out;
                }
                consume(4);
                skipped_bytes += 4;
                continue;
            }

            if (avail < kChunkHeaderBytes + payload_size)
                return out; // Payload mid-write: wait for it.

            buffer.resize(payload_size);
            if (!readAt(in, offset + kChunkHeaderBytes,
                        buffer.data(), payload_size))
                return out;
            if (crc32(buffer) != checksum) {
                // The framing around a bad-checksum chunk is
                // intact, so skip exactly this chunk and keep
                // going — no rescan needed.
                ++dropped_chunks;
                if (!opts.salvage) {
                    detail = "chunk checksum mismatch";
                    stage = Stage::Broken;
                    out.status = TailStatus::Damaged;
                    return out;
                }
                detail = "chunk checksum mismatch";
                consume(kChunkHeaderBytes + payload_size);
                skipped_bytes += kChunkHeaderBytes + payload_size;
                continue;
            }

            // The chunk is whole and verified: deliver its records.
            std::size_t at = 0;
            std::uint32_t remaining = record_count;
            std::size_t delivered = 0;
            bool framing_ok = true;
            while (remaining > 0) {
                if (at + 4 > buffer.size()) {
                    framing_ok = false;
                    break;
                }
                const std::uint32_t record_size =
                    loadU32(buffer.data() + at);
                if (at + 4 + record_size > buffer.size()) {
                    framing_ok = false;
                    break;
                }
                if (on_record)
                    on_record(std::string_view(
                        buffer.data() + at + 4, record_size));
                at += 4 + static_cast<std::size_t>(record_size);
                --remaining;
                ++produced;
                ++delivered;
            }
            if (!framing_ok || at != buffer.size()) {
                // Checksum passed but the record framing inside
                // disagrees with the header counts — writer bug or
                // version skew. The records already delivered
                // stand; the rest of the chunk is lost.
                ++dropped_chunks;
                if (!opts.salvage) {
                    detail = "chunk record framing is inconsistent";
                    stage = Stage::Broken;
                    out.status = TailStatus::Damaged;
                    return out;
                }
                detail = "chunk record framing is inconsistent";
                skipped_bytes += buffer.size() - at;
            }
            consume(kChunkHeaderBytes + payload_size);
            ++chunks_consumed;
            ++out.chunks;
            out.records += delivered;
            if (on_chunk)
                on_chunk(delivered);
            continue;
          }

          case Stage::Resync: {
            // Scan the available bytes for the literal "CHNK" or
            // "ENDS" byte sequence. Everything skipped over is
            // damage; a marker candidate hands control back to the
            // chunk loop (which re-validates it structurally). No
            // match keeps the last 3 bytes unconsumed so a marker
            // torn across polls is still found.
            if (avail < 4)
                return out;
            char block[kResyncBlock];
            bool found = false;
            while (size - offset >= 4 && !found) {
                const std::uint64_t want = std::min<std::uint64_t>(
                    size - offset, kResyncBlock);
                if (!readAt(in, offset, block, want))
                    return out;
                for (std::uint64_t i = 0; i + 4 <= want; ++i) {
                    const std::uint32_t window =
                        loadU32(block + i);
                    if (window == wire::kChunkMarker ||
                        window == wire::kEndMarker) {
                        consume(i);
                        skipped_bytes += i;
                        found = true;
                        break;
                    }
                }
                if (!found) {
                    // Keep a 3-byte overlap for a split marker.
                    const std::uint64_t advance = want - 3;
                    consume(advance);
                    skipped_bytes += advance;
                }
            }
            if (!found)
                return out;
            stage = Stage::Chunks;
            continue;
          }

          case Stage::Done:
            out.status = TailStatus::Complete;
            return out;
          case Stage::Broken:
            out.status = TailStatus::Damaged;
            return out;
        }
    }
}

} // namespace tpupoint
