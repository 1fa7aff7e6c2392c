/**
 * @file
 * ByteWriter against a byte-by-byte reference encoder: seeded
 * sequences of puts and patches (empty strings, strings over 64 KiB,
 * moves, writers over larger reused buffers) must produce the same
 * bytes, and ByteReader must read every field back.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hh"
#include "trace/bytes.hh"

namespace tpupoint {
namespace {

/** Appends one byte at a time, least significant first. */
void
referencePut(std::string &out, std::uint64_t v, int width)
{
    for (int i = 0; i < width; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
referencePatch(std::string &out, std::size_t offset, std::uint64_t v,
               int width)
{
    for (int i = 0; i < width; ++i)
        out[offset + static_cast<std::size_t>(i)] =
            static_cast<char>((v >> (8 * i)) & 0xff);
}

/** One written field, as the reader should see it. */
struct Field
{
    enum Kind { U32, U64, I64, F64, String, Bytes } kind;
    std::size_t offset = 0;
    std::uint64_t value = 0; ///< Fixed-width fields.
    std::string text;        ///< String and Bytes.
};

std::string
randomText(Rng &rng)
{
    std::size_t length = 0;
    const std::uint64_t pick = rng.nextBounded(16);
    if (pick == 0)
        length = 64 * 1024 + 1 + rng.nextBounded(8 * 1024);
    else if (pick > 3)
        length = rng.nextBounded(40);
    std::string text(length, '\0');
    for (std::size_t i = 0; i < length; i += 8) {
        const std::uint64_t bits = rng.nextU64();
        for (std::size_t j = i; j < length && j < i + 8; ++j)
            text[j] = static_cast<char>(bits >> (8 * (j - i)));
    }
    return text;
}

/** A writer, possibly over a reused buffer full of stale bytes. */
ByteWriter
makeWriter(Rng &rng)
{
    if (rng.nextBounded(2) == 0)
        return ByteWriter();
    std::string stale(1 + rng.nextBounded(4096), 'x');
    if (rng.nextBounded(2) == 0)
        stale.reserve(stale.size() + rng.nextBounded(100000));
    return ByteWriter(std::move(stale));
}

void
runSequence(std::uint64_t seed)
{
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ByteWriter writer = makeWriter(rng);
    std::string reference;
    std::vector<Field> fields;

    const std::size_t ops = 1 + rng.nextBounded(300);
    for (std::size_t op = 0; op < ops; ++op) {
        Field field;
        field.offset = reference.size();
        switch (rng.nextBounded(10)) {
          case 0: {
            field.kind = Field::U32;
            field.value = rng.nextU64() & 0xffffffffu;
            writer.putU32(static_cast<std::uint32_t>(field.value));
            referencePut(reference, field.value, 4);
            break;
          }
          case 1: {
            field.kind = Field::U64;
            field.value = rng.nextU64();
            writer.putU64(field.value);
            referencePut(reference, field.value, 8);
            break;
          }
          case 2: {
            field.kind = Field::I64;
            field.value = rng.nextU64();
            writer.putI64(static_cast<std::int64_t>(field.value));
            referencePut(reference, field.value, 8);
            break;
          }
          case 3: {
            field.kind = Field::F64;
            const double v = rng.gaussian(0.0, 1e6);
            field.value = std::bit_cast<std::uint64_t>(v);
            writer.putF64(v);
            referencePut(reference, field.value, 8);
            break;
          }
          case 4:
          case 5: {
            field.kind = Field::String;
            field.text = randomText(rng);
            writer.putString(field.text);
            referencePut(reference, field.text.size(), 4);
            reference += field.text;
            break;
          }
          case 6: {
            field.kind = Field::Bytes;
            field.text = randomText(rng);
            writer.putBytes(field.text);
            reference += field.text;
            break;
          }
          case 7: {
            // Patch an earlier fixed-width field in place.
            if (fields.empty())
                continue;
            Field &target = fields[rng.nextBounded(fields.size())];
            const std::uint64_t v = rng.nextU64();
            if (target.kind == Field::U32) {
                target.value = v & 0xffffffffu;
                writer.patchU32(target.offset,
                                static_cast<std::uint32_t>(v));
                referencePatch(reference, target.offset, target.value,
                               4);
            } else if (target.kind != Field::String &&
                       target.kind != Field::Bytes) {
                target.value = v;
                writer.patchU64(target.offset, v);
                referencePatch(reference, target.offset, v, 8);
            }
            continue;
          }
          case 8: {
            // Move construct: the new writer carries on, the old
            // one is empty.
            ByteWriter moved(std::move(writer));
            EXPECT_EQ(writer.size(), 0u);
            writer = std::move(moved);
            EXPECT_EQ(moved.size(), 0u);
            continue;
          }
          default: {
            // A moved-from writer is reusable and starts empty.
            ByteWriter other(std::move(writer));
            writer.putU32(7);
            ASSERT_EQ(writer.str(), std::string("\7\0\0\0", 4));
            writer = std::move(other);
            continue;
          }
        }
        fields.push_back(std::move(field));
        ASSERT_EQ(writer.size(), reference.size());
    }

    ASSERT_EQ(writer.size(), reference.size());
    const std::string copy = writer.str();
    ASSERT_EQ(copy, reference);

    ByteReader reader(copy);
    for (const Field &field : fields) {
        switch (field.kind) {
          case Field::U32: {
            std::uint32_t v = 0;
            ASSERT_TRUE(reader.getU32(v));
            EXPECT_EQ(v, field.value);
            break;
          }
          case Field::U64: {
            std::uint64_t v = 0;
            ASSERT_TRUE(reader.getU64(v));
            EXPECT_EQ(v, field.value);
            break;
          }
          case Field::I64: {
            std::int64_t v = 0;
            ASSERT_TRUE(reader.getI64(v));
            EXPECT_EQ(static_cast<std::uint64_t>(v), field.value);
            break;
          }
          case Field::F64: {
            double v = 0;
            ASSERT_TRUE(reader.getF64(v));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(v), field.value);
            break;
          }
          case Field::String: {
            std::string v;
            ASSERT_TRUE(reader.getString(v));
            EXPECT_EQ(v, field.text);
            break;
          }
          case Field::Bytes: {
            const char *block = reader.block(field.text.size());
            ASSERT_NE(block, nullptr);
            EXPECT_EQ(std::string(block, field.text.size()),
                      field.text);
            break;
          }
        }
    }
    EXPECT_TRUE(reader.atEnd());

    // Taking the bytes trims the slack and leaves the writer empty.
    const std::string taken = std::move(writer).str();
    EXPECT_EQ(taken, reference);
    EXPECT_EQ(writer.size(), 0u);
}

TEST(ByteWriterTest, MatchesBytewiseReferenceProperty)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed)
        runSequence(seed);
}

TEST(ByteWriterTest, ReusedBufferNeverLeaksStaleBytes)
{
    // Reuse a large buffer, write less than it held: neither str()
    // nor size() may show what was there before.
    std::string stale(10000, 'z');
    ByteWriter writer(std::move(stale));
    EXPECT_EQ(writer.size(), 0u);
    EXPECT_EQ(writer.str(), "");
    writer.putString("ab");
    writer.putU32(0x01020304);
    const std::string expected("\2\0\0\0ab\4\3\2\1", 10);
    EXPECT_EQ(writer.str(), expected);
    EXPECT_EQ(std::move(writer).str(), expected);
}

TEST(ByteWriterTest, SmallWriterStaysInTheSmallStringBuffer)
{
    // A writer of a few bytes takes no more storage than appending
    // them to a plain string would: growth starts from the string's
    // own capacity, not from a large minimum block.
    ByteWriter writer;
    writer.putU32(1);
    writer.putU32(2);
    const std::string out = std::move(writer).str();
    std::string plain;
    plain.append(out);
    EXPECT_EQ(out.size(), 8u);
    EXPECT_LE(out.capacity(), plain.capacity());
}

} // namespace
} // namespace tpupoint
