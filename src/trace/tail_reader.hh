/**
 * @file
 * TailReader: the incremental, tail-following complement to
 * RecordStreamReader. A batch reader owns an open stream and walks
 * it to the end marker in one pass; a serve session instead watches
 * a profile that is still being written — the file appears, grows
 * chunk by chunk, may pause for seconds between flushes, and only
 * eventually (if the writer survives) gains its end marker.
 *
 * TailReader parses nothing itself: it is a poll loop over the
 * same RecordStreamParser the batch reader drives. Each poll opens
 * the file, caps its size at the caller's offset limit, and feeds
 * the parser every byte past the consumed offset. The one rule that
 * differs from a batch read is the parser's "growing" mode: a unit
 * the bytes stop inside is "pending, more may come"
 * (TailStatus::Pending, nothing of it consumed) rather than a
 * truncation. Damage is handled exactly as batch salvage handles it
 * — drop the unit, resynchronize on the next marker, count what was
 * lost — so a live session and an offline salvage of the same bytes
 * deliver the same records and the same tallies.
 */

#ifndef TPUPOINT_TRACE_TAIL_READER_HH
#define TPUPOINT_TRACE_TAIL_READER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "trace/record_stream.hh"

namespace tpupoint {

/** Outcome of one TailReader::poll() pass. */
enum class TailStatus {
    /** No end marker yet; the tail may still grow. */
    Pending,

    /** The end marker was consumed; the stream is finished. */
    Complete,

    /**
     * Structural damage in strict (non-salvage) mode. Terminal:
     * further polls return Damaged without consuming bytes.
     */
    Damaged,
};

/** What one poll() pass did. */
struct TailPoll
{
    TailStatus status = TailStatus::Pending;

    /** Record payloads delivered by this poll. */
    std::uint64_t records = 0;

    /** Whole chunks consumed by this poll. */
    std::uint64_t chunks = 0;

    /** Bytes consumed (offset advance) by this poll. */
    std::uint64_t bytes = 0;
};

/**
 * Incremental reader over a growing record-stream file: the
 * RecordStreamParser driven by a poll loop. Not thread-safe; a serve
 * session owns one and polls it from one task at a time.
 */
class TailReader : public RecordStreamParser
{
  public:
    /** Called once per record payload (view valid for the call). */
    using PayloadHook = std::function<void(std::string_view)>;

    /**
     * Called after each whole chunk's records were delivered, with
     * the record count of that chunk — the per-chunk ingest-latency
     * measurement point.
     */
    using ChunkHook = std::function<void(std::size_t records)>;

    /**
     * @param salvage Drop damaged chunks and resynchronize instead
     *     of parking the reader in Damaged. On for serve sessions —
     *     a live trace that tore one chunk should keep streaming.
     */
    explicit TailReader(std::string path, bool salvage = true);

    /** poll() with no byte limit. */
    static constexpr std::uint64_t kNoLimit = ~0ull;

    /**
     * Consume everything complete that the file holds beyond the
     * current offset. A file that does not exist yet, or whose tail
     * stops mid-header/mid-chunk, reports Pending and consumes
     * nothing of the incomplete unit — the next poll re-examines it.
     *
     * @param offset_limit Treat the file as ending at this byte
     *     offset: nothing at or past it is consumed. The crash-
     *     recovery replay bound — a restarted serve session replays
     *     its spool file up to the journal's committed offset
     *     (every commit is a unit boundary, so the reader lands
     *     exactly on the limit), then continues live past it.
     */
    TailPoll poll(const PayloadHook &on_record,
                  const ChunkHook &on_chunk = nullptr,
                  std::uint64_t offset_limit = kNoLimit);

    /** Terminal: the end marker was consumed. */
    bool complete() const { return state == StreamStatus::End; }

    /** Terminal: strict-mode structural damage. */
    bool damaged() const { return state == StreamStatus::Corrupt; }

    /** Record payloads delivered over the reader's lifetime. */
    std::uint64_t recordsProduced() const { return produced; }

    /** Current byte offset into the file (consumed prefix). */
    std::uint64_t bytesConsumed() const { return offset; }

    /** Whole chunks consumed over the reader's lifetime. */
    std::uint64_t chunksConsumed() const { return chunks_consumed; }

    /** Any damage was encountered at all. */
    bool
    sawDamage() const
    {
        return chunksDropped() > 0 || bytesSkipped() > 0 ||
            recordsDropped() > 0;
    }

    /** The watched path. */
    const std::string &path() const { return file_path; }

  private:
    std::string file_path;
    std::uint64_t chunks_consumed = 0;
};

} // namespace tpupoint

#endif // TPUPOINT_TRACE_TAIL_READER_HH
