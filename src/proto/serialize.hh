/**
 * @file
 * Profile-record serialization. TPUPoint-Profiler's recording thread
 * streams records into cloud storage; this module defines the
 * compact binary wire format (the stand-in for the Protobuf
 * messages the real toolchain uses) plus a JSON form for
 * interoperability and debugging.
 *
 * The record encoding lives here; container framing (chunking,
 * versioning, checksums, truncation detection) is delegated to the
 * trace transport layer (`trace/record_stream`). ProfileWriter and
 * ProfileReader are the typed convenience wrappers every producer
 * and consumer goes through.
 */

#ifndef TPUPOINT_PROTO_SERIALIZE_HH
#define TPUPOINT_PROTO_SERIALIZE_HH

#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "proto/columnar.hh"
#include "proto/record.hh"
#include "trace/record_stream.hh"

namespace tpupoint {

/** Encode one record's wire payload (no container framing). */
std::string encodeProfileRecord(const ProfileRecord &record);

/**
 * Decode one record from its wire payload.
 * @return false when the payload is malformed or has slack bytes.
 */
bool decodeProfileRecord(std::string_view payload,
                         ProfileRecord &record);

/**
 * Streaming binary writer. Records can be appended one at a time —
 * the recording thread persists each profile response as it
 * arrives. finish() (or destruction) seals the stream; a profile
 * without its end marker reads back as truncated.
 */
class ProfileWriter
{
  public:
    /** Writes the container header immediately. */
    explicit ProfileWriter(std::ostream &out);

    /** Append one record. */
    void write(const ProfileRecord &record);

    /** Flush buffered chunks and write the end marker. */
    void finish() { framing.finish(); }

    /** Records written so far. */
    std::uint64_t written() const { return framing.records(); }

    /** Bytes pushed to the underlying stream so far. */
    std::uint64_t bytesWritten() const
    {
        return framing.bytesWritten();
    }

  private:
    RecordStreamWriter framing;
};

/**
 * Streaming binary reader for files produced by ProfileWriter.
 * Incremental with bounded memory: one chunk is resident at a
 * time, however large the profile.
 *
 * In salvage mode damage never throws: corrupt chunks and payloads
 * that fail to decode are dropped (and counted), a missing end
 * marker just ends the stream, and every record the CRCs vouch for
 * is still produced.
 */
class ProfileReader
{
  public:
    /**
     * Validates the header; throws via fatal() on mismatch unless
     * @p salvage is set, in which case the reader scans forward to
     * the first intact chunk instead.
     */
    explicit ProfileReader(std::istream &in, bool salvage = false);

    /**
     * Read the next record. Truncated or corrupt streams throw
     * via fatal() with the transport layer's diagnosis (salvage
     * mode drops the damage and reads on instead).
     * @return false at end of stream.
     */
    bool read(ProfileRecord &record);

    /**
     * The analyzer's read: the next record straight into a
     * reusable ColumnarRecord, interning op names into
     * @p interner (the process-global one by default) through the
     * reader's own ColumnarDecoder, whose name cache carries over
     * from record to record. With one record reused across calls,
     * the steady-state loop — chunk buffer, record columns,
     * interner — does no heap allocation.
     * @return false at end of stream.
     */
    bool read(ColumnarRecord &record,
              StringInterner &interner = StringInterner::global());

    /** Read every remaining record. */
    std::vector<ProfileRecord> readAll();

    /** Bytes consumed from the underlying stream so far. */
    std::uint64_t bytesRead() const { return framing.bytesRead(); }

    /** Reusable-chunk-buffer capacity growths (see
     * RecordStreamReader::bufferGrowths()). */
    std::uint64_t bufferGrowths() const
    {
        return framing.bufferGrowths();
    }

    /** Records produced so far. */
    std::uint64_t recordsRead() const { return framing.records(); }

    /** True when constructed in salvage mode. */
    bool salvaging() const { return framing.salvaging(); }

    /** Salvage: chunks dropped to structural damage. */
    std::uint64_t chunksDropped() const
    {
        return framing.chunksDropped();
    }

    /** Salvage: records whose payloads failed to decode. */
    std::uint64_t recordsDropped() const
    {
        return framing.recordsDropped() + undecodable;
    }

    /** Salvage: bytes skipped while resynchronizing. */
    std::uint64_t bytesSkipped() const
    {
        return framing.bytesSkipped();
    }

    /** Salvage: the stream ended without a (valid) end marker. */
    bool truncatedTail() const { return framing.truncatedTail(); }

    /** Salvage: any damage was encountered at all. */
    bool
    sawDamage() const
    {
        return framing.sawDamage() || undecodable > 0;
    }

  private:
    RecordStreamReader framing;
    ColumnarDecoder decoder;
    std::uint64_t undecodable = 0;
};

/** Serialize one record as a JSON object into @p out. */
void profileRecordToJson(const ProfileRecord &record,
                         std::ostream &out, bool pretty = false);

} // namespace tpupoint

#endif // TPUPOINT_PROTO_SERIALIZE_HH
