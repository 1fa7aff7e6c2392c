#include "trace/checksum.hh"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TPUPOINT_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace tpupoint {

namespace {

/**
 * Slice-by-8 CRC-32 tables, built once at first use: table[0] is
 * the classic reflected byte table, table[k][b] extends it by k
 * more zero bytes. Eight bytes fold per iteration with eight
 * independent loads; the computed CRC is bit-identical to the
 * bytewise form.
 */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables
makeTables()
{
    CrcTables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t value = i;
        for (int bit = 0; bit < 8; ++bit) {
            value = (value & 1) ? 0xedb88320u ^ (value >> 1)
                                : value >> 1;
        }
        tables[0][i] = value;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t value = tables[0][i];
        for (std::size_t k = 1; k < 8; ++k) {
            value = tables[0][value & 0xffu] ^ (value >> 8);
            tables[k][i] = value;
        }
    }
    return tables;
}

/** Advance the (pre-inverted) CRC register @p crc over @p size
 * bytes with the slice-by-8 tables. */
std::uint32_t
updatePortable(std::uint32_t crc, const unsigned char *bytes,
               std::size_t size)
{
    static const CrcTables tables = makeTables();
    // The 8-byte folding loads u32s little-endian; fall back to
    // the byte loop elsewhere (same CRC either way).
    while (std::endian::native == std::endian::little &&
           size >= 8) {
        std::uint32_t low;
        std::uint32_t high;
        std::memcpy(&low, bytes, 4);
        std::memcpy(&high, bytes + 4, 4);
        low ^= crc;
        crc = tables[7][low & 0xffu] ^
              tables[6][(low >> 8) & 0xffu] ^
              tables[5][(low >> 16) & 0xffu] ^
              tables[4][(low >> 24) & 0xffu] ^
              tables[3][high & 0xffu] ^
              tables[2][(high >> 8) & 0xffu] ^
              tables[1][(high >> 16) & 0xffu] ^
              tables[0][(high >> 24) & 0xffu];
        bytes += 8;
        size -= 8;
    }
    for (std::size_t i = 0; i < size; ++i)
        crc = tables[0][(crc ^ bytes[i]) & 0xffu] ^ (crc >> 8);
    return crc;
}

#ifdef TPUPOINT_CRC32_CLMUL

/** The carry-less-multiply kernel needs at least this many bytes. */
constexpr std::size_t kClmulMinimum = 64;

/** An unaligned 16-byte load. */
__attribute__((target("pclmul,sse4.1"))) inline __m128i
load128(const unsigned char *at)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(at));
}

/** One 128-bit fold step: a * k.low ^ a * k.high ^ next. */
__attribute__((target("pclmul,sse4.1"))) inline __m128i
fold128(__m128i a, __m128i k, __m128i next)
{
    return _mm_xor_si128(
        _mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                      _mm_clmulepi64_si128(a, k, 0x11)),
        next);
}

/**
 * Advance the (pre-inverted) CRC register @p crc over @p size bytes
 * by carry-less-multiply folding — the fold-by-4 method of Gopal et
 * al., "Fast CRC Computation for Generic Polynomials Using
 * PCLMULQDQ Instruction" (Intel, 2009), with the bit-reflected
 * constants for 0xEDB88320 that zlib's SIMD CRC also uses. Four
 * 128-bit lanes fold 64 bytes per iteration, collapse into one lane
 * that folds 16 bytes at a time, and a Barrett reduction yields the
 * 32-bit register. @p size is a multiple of 16, at least 64.
 */
__attribute__((target("pclmul,sse4.1"))) std::uint32_t
updateClmul(std::uint32_t crc, const unsigned char *bytes,
            std::size_t size)
{
    // Bit-reflected powers of x modulo P: k1k2 folds a lane 512
    // bits ahead, k3k4 128 bits ahead, k5 reduces 64 to 32 bits,
    // and poly holds P and the Barrett constant mu.
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_xor_si128(
        load128(bytes), _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x2 = load128(bytes + 16);
    __m128i x3 = load128(bytes + 32);
    __m128i x4 = load128(bytes + 48);
    bytes += 64;
    size -= 64;
    while (size >= 64) {
        x1 = fold128(x1, k1k2, load128(bytes));
        x2 = fold128(x2, k1k2, load128(bytes + 16));
        x3 = fold128(x3, k1k2, load128(bytes + 32));
        x4 = fold128(x4, k1k2, load128(bytes + 48));
        bytes += 64;
        size -= 64;
    }

    // Collapse the four lanes into one, then fold 16 bytes at a
    // time.
    x1 = fold128(x1, k3k4, x2);
    x1 = fold128(x1, k3k4, x3);
    x1 = fold128(x1, k3k4, x4);
    while (size >= 16) {
        x1 = fold128(x1, k3k4, load128(bytes));
        bytes += 16;
        size -= 16;
    }

    // 128 -> 64 bits.
    x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
    // 64 -> 32 bits.
    x2 = _mm_srli_si128(x1, 4);
    x1 = _mm_and_si128(x1, mask32);
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5, 0x00), x2);
    // Barrett reduction to the 32-bit register.
    x2 = _mm_and_si128(x1, mask32);
    x2 = _mm_clmulepi64_si128(x2, poly, 0x10);
    x2 = _mm_and_si128(x2, mask32);
    x2 = _mm_clmulepi64_si128(x2, poly, 0x00);
    x1 = _mm_xor_si128(x1, x2);
    return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

/** Whether this CPU runs updateClmul, decided once. */
bool
clmulSupported()
{
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
            __builtin_cpu_supports("sse4.1");
    }();
    return supported;
}

#endif // TPUPOINT_CRC32_CLMUL

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint32_t crc = 0xffffffffu;
#ifdef TPUPOINT_CRC32_CLMUL
    if (size >= kClmulMinimum && clmulSupported()) {
        // The kernel takes whole 16-byte blocks; the tables finish
        // the tail.
        const std::size_t blocks = size & ~std::size_t{15};
        crc = updateClmul(crc, bytes, blocks);
        bytes += blocks;
        size -= blocks;
    }
#endif
    return updatePortable(crc, bytes, size) ^ 0xffffffffu;
}

std::uint32_t
crc32Portable(const void *data, std::size_t size)
{
    return updatePortable(0xffffffffu,
                          static_cast<const unsigned char *>(data),
                          size) ^
        0xffffffffu;
}

bool
crc32Accelerated()
{
#ifdef TPUPOINT_CRC32_CLMUL
    return clmulSupported();
#else
    return false;
#endif
}

} // namespace tpupoint
