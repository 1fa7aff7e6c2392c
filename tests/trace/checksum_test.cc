/**
 * @file
 * CRC-32 against a bytewise reference: the dispatching crc32() (the
 * carry-less-multiply kernel where the CPU has one) and the portable
 * slice-by-8 path, over every length to 1 KiB at every 16-byte
 * alignment offset and over seeded buffers up to 256 KiB.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hh"
#include "trace/checksum.hh"

namespace tpupoint {
namespace {

/** Plain one-table, one-byte-per-step CRC-32 (reflected 0xEDB88320). */
std::uint32_t
referenceCrc32(const unsigned char *bytes, std::size_t size)
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> out{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t value = i;
            for (int bit = 0; bit < 8; ++bit)
                value = (value & 1) ? 0xedb88320u ^ (value >> 1)
                                    : value >> 1;
            out[i] = value;
        }
        return out;
    }();
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i)
        crc = table[(crc ^ bytes[i]) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

std::vector<unsigned char>
randomBytes(Rng &rng, std::size_t size)
{
    std::vector<unsigned char> out(size);
    for (unsigned char &byte : out)
        byte = static_cast<unsigned char>(rng.nextBounded(256));
    return out;
}

TEST(Crc32Test, CheckValue)
{
    const std::string check = "123456789";
    EXPECT_EQ(crc32(check), 0xCBF43926u);
    EXPECT_EQ(crc32Portable(check.data(), check.size()), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
    EXPECT_EQ(crc32Portable(nullptr, 0), 0u);
}

// The kernel must actually run wherever the CPU can run it, or the
// cases below only test the fallback.
TEST(Crc32Test, KernelSelectedWhereSupported)
{
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    __builtin_cpu_init();
    EXPECT_EQ(crc32Accelerated(),
              __builtin_cpu_supports("pclmul") &&
                  __builtin_cpu_supports("sse4.1"));
#else
    EXPECT_FALSE(crc32Accelerated());
#endif
}

TEST(Crc32Test, EveryLengthAndOffsetMatchesReference)
{
    constexpr std::size_t kMaxLength = 1024;
    constexpr std::size_t kOffsets = 16;
    Rng rng(0x43524333ULL); // "CRC3"
    const std::vector<unsigned char> buffer =
        randomBytes(rng, kMaxLength + kOffsets);
    for (std::size_t offset = 0; offset < kOffsets; ++offset) {
        for (std::size_t length = 0; length <= kMaxLength; ++length) {
            const unsigned char *at = buffer.data() + offset;
            const std::uint32_t expected = referenceCrc32(at, length);
            ASSERT_EQ(crc32(at, length), expected)
                << "offset " << offset << " length " << length;
            ASSERT_EQ(crc32Portable(at, length), expected)
                << "offset " << offset << " length " << length;
        }
    }
}

TEST(Crc32Test, SeededLargeBuffersMatchReference)
{
    Rng rng(0x4c415247ULL); // "LARG"
    const std::vector<unsigned char> buffer =
        randomBytes(rng, 256 * 1024 + 16);
    for (int trial = 0; trial < 24; ++trial) {
        const std::size_t offset = rng.nextBounded(16);
        // Every trial size up to the full 256 KiB, the last exactly.
        const std::size_t length =
            trial == 0 ? 256 * 1024 : rng.nextBounded(256 * 1024 + 1);
        const unsigned char *at = buffer.data() + offset;
        const std::uint32_t expected = referenceCrc32(at, length);
        EXPECT_EQ(crc32(at, length), expected)
            << "offset " << offset << " length " << length;
        EXPECT_EQ(crc32Portable(at, length), expected)
            << "offset " << offset << " length " << length;
    }
}

// All-zero and all-one runs stress the folding's carries.
TEST(Crc32Test, UniformBuffersMatchReference)
{
    for (const unsigned char fill : {0x00, 0xff}) {
        const std::vector<unsigned char> buffer(4096 + 7, fill);
        for (const std::size_t length :
             {std::size_t{63}, std::size_t{64}, std::size_t{65},
              std::size_t{127}, std::size_t{128}, std::size_t{4096},
              buffer.size()}) {
            const std::uint32_t expected =
                referenceCrc32(buffer.data(), length);
            EXPECT_EQ(crc32(buffer.data(), length), expected)
                << "fill " << int{fill} << " length " << length;
            EXPECT_EQ(crc32Portable(buffer.data(), length), expected)
                << "fill " << int{fill} << " length " << length;
        }
    }
}

} // namespace
} // namespace tpupoint
