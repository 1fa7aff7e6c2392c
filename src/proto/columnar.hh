/**
 * @file
 * Columnar profile records: how the analyzer reads a record
 * payload. ColumnarRecord stores one struct-of-arrays block per
 * record — contiguous per-step columns plus a CSR-style (offsets +
 * flat entries) layout for the per-step operator lists, with
 * operator names replaced by dense StringInterner ids.
 *
 * The decode path is built for reuse: ColumnarDecoder writes into a
 * caller-owned record whose `clear()` retains vector capacity, and
 * it reads op names as `string_view`s borrowed from the payload,
 * matching them against its positional name cache before falling
 * back to the interner — so after the vocabulary stabilizes,
 * steady-state decoding performs no heap allocation at all.
 *
 * ColumnarRecord is the only record form the analyzer and the
 * tuner accept. A profile in memory is its wire payloads (the live
 * profiler retains copies of what it spools), so in-process
 * analysis decodes exactly the bytes an analysis of the written
 * profile reads.
 */

#ifndef TPUPOINT_PROTO_COLUMNAR_HH
#define TPUPOINT_PROTO_COLUMNAR_HH

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/interner.hh"
#include "core/types.hh"

namespace tpupoint {

/** One operator's accumulated stats, name replaced by its id. */
struct ColumnarOpStats
{
    std::uint32_t op = 0;        ///< StringInterner id.
    std::uint64_t count = 0;     ///< Invocations.
    SimTime total_duration = 0;  ///< Sum of elapsed times.
};

/** A borrowed view of one step's id-sorted operator entries. */
using OpStatsSpan = std::span<const ColumnarOpStats>;

/**
 * One profile response in columnar form. Scalar fields mirror the
 * payload's header and tail; steps are parallel arrays indexed
 * 0..stepCount(), and each step's host/TPU operator entries live
 * in flat arrays addressed by offset columns (entries id-sorted
 * within a step).
 */
struct ColumnarRecord
{
    std::uint64_t sequence = 0;
    SimTime window_begin = 0;
    SimTime window_end = 0;
    std::uint64_t event_count = 0;
    bool truncated = false;
    std::uint64_t events_dropped = 0;
    double tpu_idle_fraction = 0.0;
    double mxu_utilization = 0.0;
    std::uint64_t retries = 0;
    SimTime retry_time = 0;
    std::uint32_t attempt = 0;
    bool attempt_boundary = false;
    StepId preempted_at_step = 0;
    StepId resume_step = 0;

    /** Per-step columns (parallel arrays). */
    std::vector<StepId> step;
    std::vector<SimTime> begin;
    std::vector<SimTime> end;
    std::vector<SimTime> tpu_busy;
    std::vector<SimTime> tpu_idle;
    std::vector<SimTime> mxu_active;

    /** CSR: step i's entries are ops[offsets[i] .. offsets[i+1]). */
    std::vector<std::uint32_t> host_offsets; ///< stepCount()+1.
    std::vector<std::uint32_t> tpu_offsets;  ///< stepCount()+1.
    std::vector<ColumnarOpStats> host_ops;
    std::vector<ColumnarOpStats> tpu_ops;

    std::size_t stepCount() const { return step.size(); }

    OpStatsSpan
    hostOps(std::size_t i) const
    {
        return OpStatsSpan(host_ops.data() + host_offsets[i],
                           host_offsets[i + 1] - host_offsets[i]);
    }

    OpStatsSpan
    tpuOps(std::size_t i) const
    {
        return OpStatsSpan(tpu_ops.data() + tpu_offsets[i],
                           tpu_offsets[i + 1] - tpu_offsets[i]);
    }

    /** Wall-clock span of step @p i. */
    SimTime
    stepSpan(std::size_t i) const
    {
        return end[i] > begin[i] ? end[i] - begin[i] : 0;
    }

    /**
     * Reset to an empty record, retaining every vector's capacity
     * so a reused record stops allocating once it has seen the
     * largest record of the stream.
     */
    void clear();
};

class ByteReader;

/**
 * Decodes record wire payloads (the format decodeProfileRecord
 * reads) into columnar form. A long-lived decoder — one per
 * ProfileReader and per serve session — keeps a positional op-name
 * cache: for each of the host and TPU op lists and each position i
 * in it, the (interned name, id) pair last decoded there. Steps of
 * one stream repeat their operator lists in the same (name) order,
 * so a name usually matches the cached bytes at its position and
 * takes its id without touching the interner's lock or hash. A step
 * that lacks an op shifts every later position, so a positional
 * miss looks in a small open-addressing table of every name this
 * decoder has resolved before it falls back to the interner.
 *
 * The cached names are views into the interner's storage, bound to
 * one interner (by its serial(), not its address): decoding against
 * a different interner drops the cache first, so ids of one
 * interner never leak into a decode against another. The cache is
 * purely an accelerator — a decode's result equals a fresh
 * decoder's on every payload, valid or not.
 */
class ColumnarDecoder
{
  public:
    /**
     * Decode one payload into @p record, interning operator names
     * into @p interner as they stream past. @p record is cleared
     * first; capacity is reused.
     * @return false when the payload is malformed or has slack
     *     bytes.
     */
    bool decode(std::string_view payload, ColumnarRecord &record,
                StringInterner &interner);

  private:
    /** One cache slot; id kNoId marks a slot never filled. */
    struct CachedName
    {
        std::string_view name;
        std::uint32_t id = kNoId;
    };

    static constexpr std::uint32_t kNoId = ~std::uint32_t{0};

    bool decodeOps(ByteReader &in, std::vector<ColumnarOpStats> &ops,
                   std::vector<CachedName> &cache,
                   StringInterner &interner);
    CachedName resolve(std::string_view name, StringInterner &interner);

    /** serial() of the interner the caches' ids belong to. */
    std::uint64_t bound_serial = 0;
    std::vector<CachedName> host_names;
    std::vector<CachedName> tpu_names;
    /** Every resolved name, hashed; a power of two of slots, at
     * most half full (empty until the first miss). */
    std::vector<CachedName> known;
    std::size_t known_used = 0;
};

} // namespace tpupoint

#endif // TPUPOINT_PROTO_COLUMNAR_HH
