/**
 * @file
 * The record-stream wire constants: magic, markers, version window
 * and payload cap. The container's writer and its one parser
 * (record_stream; the batch and tail readers both drive that
 * parser) use them, and so does everything else that frames bytes
 * the same way — the serve journal's chunk-framed entries and the
 * benchmark's stream splicing — so they live here, apart from the
 * parser.
 *
 * The format itself is documented in record_stream.hh.
 */

#ifndef TPUPOINT_TRACE_WIRE_HH
#define TPUPOINT_TRACE_WIRE_HH

#include <cstdint>

namespace tpupoint {
namespace wire {

/** Stream header magic: the literal bytes "TPPF". */
constexpr char kMagic[4] = {'T', 'P', 'P', 'F'};

/**
 * Current container version, the one writers emit. v4: profile
 * records carry attempt-continuity meta-data (attempt index,
 * attempt-boundary markers). v5: records count events the collector
 * dropped after a transport cap. Each tail is appended to the
 * previous layout, so readers accept every version back to v3.
 */
constexpr std::uint32_t kVersion = 5;

/** Oldest container version readers still accept. */
constexpr std::uint32_t kMinVersion = 3;

/** Chunk marker; little-endian, so the wire bytes read "CHNK". */
constexpr std::uint32_t kChunkMarker = 0x4b4e4843u;

/** End marker; little-endian, so the wire bytes read "ENDS". */
constexpr std::uint32_t kEndMarker = 0x53444e45u;

/** Upper bound a chunk's declared payload size must respect; a
 *  corrupt length field must not drive a multi-gigabyte resize. */
constexpr std::uint32_t kMaxChunkPayload = 64u * 1024 * 1024;

} // namespace wire
} // namespace tpupoint

#endif // TPUPOINT_TRACE_WIRE_HH
