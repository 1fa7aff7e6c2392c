/**
 * @file
 * The trace transport layer: a chunked, versioned, checksummed
 * container for streams of opaque record payloads.
 *
 * TPUPoint-Profiler stays under its overhead budget by streaming
 * statistical records to storage instead of buffering raw traces
 * (Section III-A). This layer is the stand-in for that transport:
 * the writer groups record payloads into CRC-32-guarded chunks and
 * the reader yields one record at a time with bounded memory (one
 * chunk resident at any moment), classifying damage as truncation
 * or corruption instead of silently returning a partial profile.
 *
 * The payload encoding is owned by the caller (`proto/serialize`
 * for ProfileRecords); this layer only frames bytes:
 *
 *   stream  := header chunk* end
 *   header  := "TPPF" u32(version)    (writers emit v5; readers
 *                                      accept v3..v5)
 *   chunk   := u32(CHUNK_MARKER) u32(record_count)
 *              u32(payload_size) u32(crc32 payload) payload
 *   payload := { u32(record_size) record_bytes }*
 *   end     := u32(END_MARKER) u64(total_records)
 *
 * All integers are little-endian. A stream that stops before the
 * end marker — even at a chunk boundary — reads as Truncated.
 * RecordStreamParser below is the only code that parses it.
 */

#ifndef TPUPOINT_TRACE_RECORD_STREAM_HH
#define TPUPOINT_TRACE_RECORD_STREAM_HH

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

namespace tpupoint {

/** Outcome of a record-stream read step. */
enum class StreamStatus {
    Ok,        ///< A record payload was produced.
    End,       ///< Clean end of stream (end marker verified).
    Truncated, ///< Stream stopped before the end marker.
    Corrupt,   ///< Structural damage (marker, checksum, counts).
};

/** Chunk-sizing knobs for the writer. */
struct RecordStreamOptions
{
    /** Flush the open chunk after this many records. */
    std::size_t chunk_records = 32;

    /** Flush the open chunk once its payload reaches this size. */
    std::size_t chunk_bytes = 64 * 1024;
};

/**
 * Streaming writer. Appended payloads buffer into the open chunk;
 * finish() (or destruction) seals the stream with the end marker.
 * Memory is bounded by one chunk.
 */
class RecordStreamWriter
{
  public:
    explicit RecordStreamWriter(std::ostream &out,
                                const RecordStreamOptions &options =
                                    {});

    RecordStreamWriter(const RecordStreamWriter &) = delete;
    RecordStreamWriter &operator=(const RecordStreamWriter &) =
        delete;

    /** Flushes and writes the end marker if finish() was missed. */
    ~RecordStreamWriter();

    /** Append one record payload. */
    void append(std::string_view payload);

    /** Write out the open chunk, if any. */
    void flush();

    /** Seal the stream with the end marker. Idempotent. */
    void finish();

    /** Records appended so far. */
    std::uint64_t records() const { return total_records; }

    /** Bytes pushed to the underlying stream (header included). */
    std::uint64_t bytesWritten() const { return written_bytes; }

    /** Sealed chunks written to the stream. */
    std::uint64_t chunksWritten() const { return flushed_chunks; }

    /** Bytes buffered in the open, unflushed chunk. */
    std::size_t pendingBytes() const { return chunk.size(); }

    /** Records buffered in the open, unflushed chunk. */
    std::size_t pendingRecords() const { return chunk_records; }

  private:
    std::ostream &stream;
    RecordStreamOptions opts;
    std::string chunk;
    std::size_t chunk_records = 0;
    std::uint64_t total_records = 0;
    std::uint64_t written_bytes = 0;
    std::uint64_t flushed_chunks = 0;
    bool finished = false;
};

/**
 * The one parser of the container, shared by RecordStreamReader
 * (a finished stream, read once) and TailReader (a file that may
 * still grow). It owns the parse state — stage, absolute byte
 * offset, the reusable chunk buffer, the salvage counters and the
 * error detail — and reads from whatever std::istream its driver
 * attaches.
 *
 * One rule separates the two drivers: when the bytes stop inside a
 * unit (header, chunk, end marker, or a resync scan's last three
 * bytes), a growing stream leaves that unit unconsumed and reports
 * Pending, while a finished one reports Truncated (strict) or ends
 * with truncatedTail() (salvage). Either way the cut-off unit is not
 * counted as dropped or skipped.
 *
 * In salvage mode damage never stops the parse: the damaged unit is
 * dropped and counted whole (chunksDropped(), and every one of its
 * bytes in bytesSkipped()), and a scan for the next chunk or end
 * marker starts at the rejected bytes, so every chunk whose CRC
 * verifies is recovered.
 */
class RecordStreamParser
{
  public:
    /** Container version from the header (0 until read). */
    std::uint32_t version() const { return stream_version; }

    /** Detail of the last damage (or the terminal error). */
    const std::string &error() const { return detail; }

    /** True when parsing in salvage mode. */
    bool salvaging() const { return salvage_mode; }

    /** Salvage: chunks dropped to structural damage. */
    std::uint64_t chunksDropped() const { return dropped_chunks; }

    /** Salvage: bytes of dropped units and resync scans. */
    std::uint64_t bytesSkipped() const { return skipped_bytes; }

    /**
     * Salvage: records known lost — the end marker's declared
     * count minus the records produced, when the marker survived.
     */
    std::uint64_t recordsDropped() const { return dropped_records; }

    /**
     * Times the reusable chunk buffer had to grow its capacity.
     * The parser keeps exactly one buffer and reuses it for every
     * chunk, so in steady state (after the largest chunk has been
     * seen) this stops advancing — the allocation-counting hook the
     * zero-allocation tests assert on.
     */
    std::uint64_t bufferGrowths() const { return buffer_growths; }

  protected:
    /** What one step() produced. */
    enum class Step {
        Record,  ///< A payload, valid until the next step().
        Chunk,   ///< The current chunk's records are all out.
        Pending, ///< The next unit is incomplete; more may come.
        Stop,    ///< Terminal: state holds End/Truncated/Corrupt.
    };

    RecordStreamParser(bool salvage, bool growing);

    /**
     * Read from @p in, positioned at the parse offset, consuming
     * nothing at or past absolute byte @p end. The parser may look
     * past @p end (to classify the bytes before it) but treats a
     * unit that would cross it as cut off, so a replay bounded by
     * an offset an earlier parse committed stops exactly there.
     */
    void attach(std::istream &in, std::uint64_t end);

    /** Parse up to the next payload or chunk boundary. */
    Step step(std::string_view &payload);

    /** Parse the container header only (the first step). */
    bool parseHeader();

    /** Ok while parsing, else the terminal status. */
    StreamStatus state = StreamStatus::Ok;

    /** Bytes consumed: the start of the next unit. */
    std::uint64_t offset = 0;

    std::uint64_t produced = 0;
    bool truncated_tail = false;
    std::string detail;

  private:
    enum class Stage { Header, Marker, Records, Resync };

    bool parseUnit();
    bool resync();
    Step nextRecord(std::string_view &payload);

    /** The input stopped inside the unit at the offset. */
    bool cutOff(const char *where);

    /** Damage: salvage counts it and goes on, strict stops. */
    bool salvageOr(std::string why);

    /** Read up to @p size bytes at offset + @p at. */
    std::uint64_t readSome(char *into, std::uint64_t at,
                           std::uint64_t size);
    bool
    read(char *into, std::uint64_t at, std::uint64_t size)
    {
        return readSome(into, at, size) == size;
    }

    /** @p bytes more may be consumed below the end. */
    bool
    fits(std::uint64_t bytes) const
    {
        return bytes <= end - offset;
    }

    bool salvage_mode;
    bool growing_stream;
    Stage stage = Stage::Header;
    std::istream *source = nullptr;
    std::uint64_t cursor = 0; ///< Absolute position of source.
    std::uint64_t end = 0; ///< Consume nothing at or past this.

    std::string chunk;
    std::size_t chunk_at = 0;
    std::uint32_t chunk_remaining = 0;

    std::uint32_t stream_version = 0;
    std::uint64_t buffer_growths = 0;
    std::uint64_t dropped_chunks = 0;
    std::uint64_t skipped_bytes = 0;
    std::uint64_t dropped_records = 0;
};

/**
 * Incremental reader for RecordStreamWriter output: the parser
 * driven over a finished stream. Holds at most one chunk in memory;
 * next() yields payload views valid until the following next()
 * call. Reads sequentially, seeking only to resync after damage.
 *
 * In salvage mode the reader never reports Corrupt or Truncated:
 * damage drops the affected unit and the parser resynchronizes on
 * the next chunk (or end) marker, a truncated tail ends the stream
 * early, and the salvage counters report exactly what was lost.
 */
class RecordStreamReader : public RecordStreamParser
{
  public:
    /**
     * Reads and validates the header. Never throws: header damage
     * parks the reader in Truncated/Corrupt state, which the first
     * next() call (and status()) reports. With @p salvage true a
     * damaged header instead scans for the first chunk marker.
     */
    explicit RecordStreamReader(std::istream &in,
                                bool salvage = false);

    /**
     * Advance to the next record payload.
     * @return Ok with @p payload pointing into the current chunk
     *     (valid until the next call), or the terminal status.
     */
    StreamStatus next(std::string_view &payload);

    /** Terminal status, or Ok while records keep arriving. */
    StreamStatus status() const { return state; }

    /** Records successfully produced so far. */
    std::uint64_t records() const { return produced; }

    /** Bytes consumed from the underlying stream so far. */
    std::uint64_t bytesRead() const { return offset; }

    /** Salvage: the stream ended without a (valid) end marker. */
    bool truncatedTail() const { return truncated_tail; }

    /** Salvage: any damage was encountered at all. */
    bool
    sawDamage() const
    {
        return chunksDropped() > 0 || bytesSkipped() > 0 ||
            truncated_tail;
    }
};

} // namespace tpupoint

#endif // TPUPOINT_TRACE_RECORD_STREAM_HH
