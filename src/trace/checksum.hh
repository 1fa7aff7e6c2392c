/**
 * @file
 * CRC-32 (IEEE 802.3 polynomial) used to checksum every chunk of
 * the record-stream transport so corruption of a persisted profile
 * is detected at read time rather than surfacing as nonsense
 * analysis output.
 *
 * On x86-64 CPUs with carry-less multiply (PCLMULQDQ), crc32()
 * folds whole 16-byte blocks with it and finishes the tail with
 * the portable slice-by-8 tables; every other CPU runs the tables
 * alone. The choice is a runtime CPU check made once, and both
 * paths give the same CRC.
 */

#ifndef TPUPOINT_TRACE_CHECKSUM_HH
#define TPUPOINT_TRACE_CHECKSUM_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace tpupoint {

/** CRC-32 of @p size bytes at @p data. */
std::uint32_t crc32(const void *data, std::size_t size);

/** crc32() on the portable slice-by-8 path alone, whatever the
 * CPU (the fallback, exposed so tests can check it directly). */
std::uint32_t crc32Portable(const void *data, std::size_t size);

/** True when crc32() uses the carry-less-multiply kernel here. */
bool crc32Accelerated();

/** CRC-32 of a byte string. */
inline std::uint32_t
crc32(std::string_view bytes)
{
    return crc32(bytes.data(), bytes.size());
}

} // namespace tpupoint

#endif // TPUPOINT_TRACE_CHECKSUM_HH
