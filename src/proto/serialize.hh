/**
 * @file
 * Profile-record serialization. TPUPoint-Profiler's recording thread
 * streams records into cloud storage; this module defines the
 * compact binary wire format (the stand-in for the Protobuf
 * messages the real toolchain uses).
 *
 * The profiler writes payloads straight from its accumulators, and
 * a profile in memory is its payloads; the row codec here
 * (ProfileRecord) serves tpupoint-salvage, the benchmark and the
 * decoder oracle. Container framing (chunking, versioning,
 * checksums, truncation detection) is delegated to the trace
 * transport layer (`trace/record_stream`); ProfileReader is the
 * typed reader every consumer goes through.
 */

#ifndef TPUPOINT_PROTO_SERIALIZE_HH
#define TPUPOINT_PROTO_SERIALIZE_HH

#include <istream>
#include <string>
#include <string_view>

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
 * The wire payload of an attempt-boundary record (container v4): a
 * stepless record announcing that attempt @p attempt of a resilient
 * run resumes at checkpoint step @p resume_step after the previous
 * attempt was preempted at @p preempted_at_step, at simulated time
 * @p at. Steps in (resume_step, preempted_at_step] are replays.
 */
std::string encodeAttemptBoundary(std::uint32_t attempt,
                                  StepId preempted_at_step,
                                  StepId resume_step, SimTime at);

/**
 * Streaming binary reader for files framed by RecordStreamWriter.
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
    /**
     * The next payload @p decode accepts: the framing switch plus
     * the salvage drop-and-count, shared by both read()s.
     */
    template <typename Decode>
    bool readNext(Decode &&decode);

    RecordStreamReader framing;
    ColumnarDecoder decoder;
    std::uint64_t undecodable = 0;
};

} // namespace tpupoint

#endif // TPUPOINT_PROTO_SERIALIZE_HH
