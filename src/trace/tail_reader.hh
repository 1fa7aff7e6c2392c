/**
 * @file
 * TailReader: the incremental, tail-following complement to
 * RecordStreamReader. A batch reader owns an open stream and walks
 * it to the end marker in one pass; a serve session instead watches
 * a profile that is still being written — the file appears, grows
 * chunk by chunk, may pause for seconds between flushes, and only
 * eventually (if the writer survives) gains its end marker.
 *
 * TailReader keeps a byte offset into the file and, on each poll(),
 * consumes every *complete* chunk that has appeared since the last
 * poll without re-reading anything before the offset. The crucial
 * distinction it draws — the one a batch reader cannot — is between
 * "the bytes stop mid-chunk, more may come" (TailStatus::Pending:
 * keep watching, nothing is consumed past the last whole chunk) and
 * "the bytes present are structurally wrong" (damage: a corrupt
 * CRC, a bad marker). Damage is handled with the salvage semantics
 * of the batch reader — drop the chunk, resynchronize on the next
 * marker, count what was lost — so a live session survives a torn
 * write the same way offline salvage survives a damaged file.
 */

#ifndef TPUPOINT_TRACE_TAIL_READER_HH
#define TPUPOINT_TRACE_TAIL_READER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

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

/** TailReader knobs. */
struct TailReaderOptions
{
    /**
     * Drop damaged chunks and resynchronize instead of parking the
     * reader in Damaged. On for serve sessions — a live trace that
     * tore one chunk should keep streaming.
     */
    bool salvage = true;
};

/**
 * Incremental reader over a growing record-stream file. Not
 * thread-safe; a serve session owns one and polls it from one task
 * at a time.
 */
class TailReader
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

    explicit TailReader(std::string path,
                        const TailReaderOptions &options = {});

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
    bool complete() const { return stage == Stage::Done; }

    /** Terminal: strict-mode structural damage. */
    bool damaged() const { return stage == Stage::Broken; }

    /** Human-readable detail for damage/salvage events. */
    const std::string &error() const { return detail; }

    /** Container version (0 until the header has been read). */
    std::uint32_t version() const { return stream_version; }

    /** Record payloads delivered over the reader's lifetime. */
    std::uint64_t recordsProduced() const { return produced; }

    /** Current byte offset into the file (consumed prefix). */
    std::uint64_t bytesConsumed() const { return offset; }

    /** Whole chunks consumed over the reader's lifetime. */
    std::uint64_t chunksConsumed() const { return chunks_consumed; }

    /** Salvage: chunks dropped to structural damage. */
    std::uint64_t chunksDropped() const { return dropped_chunks; }

    /** Salvage: bytes skipped while resynchronizing. */
    std::uint64_t bytesSkipped() const { return skipped_bytes; }

    /** Salvage: records the end marker declared but we never saw. */
    std::uint64_t recordsDropped() const { return dropped_records; }

    /** Any damage was encountered at all. */
    bool
    sawDamage() const
    {
        return dropped_chunks > 0 || skipped_bytes > 0 ||
            dropped_records > 0;
    }

    /** The watched path. */
    const std::string &path() const { return file_path; }

  private:
    enum class Stage {
        Header, ///< Waiting for the 8-byte container header.
        Chunks, ///< At a marker boundary (the steady state).
        Resync, ///< Salvage: scanning forward for a marker.
        Done,   ///< End marker consumed.
        Broken, ///< Strict-mode damage; terminal.
    };

    /** Enter Broken (strict) or Resync (salvage) on damage. */
    bool failOrResync(const std::string &why);

    std::string file_path;
    TailReaderOptions opts;

    Stage stage = Stage::Header;
    std::uint64_t offset = 0;
    std::uint32_t stream_version = 0;
    std::string detail;

    /** Reusable chunk payload buffer (capacity retained). */
    std::string buffer;

    std::uint64_t produced = 0;
    std::uint64_t chunks_consumed = 0;
    std::uint64_t dropped_chunks = 0;
    std::uint64_t skipped_bytes = 0;
    std::uint64_t dropped_records = 0;
};

} // namespace tpupoint

#endif // TPUPOINT_TRACE_TAIL_READER_HH
