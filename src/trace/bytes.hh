/**
 * @file
 * Little-endian byte-buffer codecs shared by the record-stream
 * transport and the profile-record wire format. ByteWriter appends
 * fixed-width fields to a growable buffer; ByteReader consumes them
 * from a borrowed byte span with explicit bounds checking, so a
 * malformed payload turns into a decode failure instead of a read
 * past the end of the chunk.
 */

#ifndef TPUPOINT_TRACE_BYTES_HH
#define TPUPOINT_TRACE_BYTES_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

namespace tpupoint {

/** The little-endian u32 at @p bytes (no alignment needed). */
inline std::uint32_t
loadLE32(const char *bytes)
{
    std::uint32_t v;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, bytes, sizeof(v));
    } else {
        v = 0;
        for (int i = 3; i >= 0; --i)
            v = (v << 8) | static_cast<unsigned char>(bytes[i]);
    }
    return v;
}

/** The little-endian u64 at @p bytes (no alignment needed). */
inline std::uint64_t
loadLE64(const char *bytes)
{
    std::uint64_t v;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, bytes, sizeof(v));
    } else {
        v = 0;
        for (int i = 7; i >= 0; --i)
            v = (v << 8) | static_cast<unsigned char>(bytes[i]);
    }
    return v;
}

/** Append-only little-endian encoder over an owned buffer. */
class ByteWriter
{
  public:
    ByteWriter() = default;

    /** Write into @p reuse's storage: its contents are dropped, its
     * capacity kept. */
    explicit ByteWriter(std::string reuse) : buffer(std::move(reuse))
    {
        buffer.clear();
    }

    void
    putU32(std::uint32_t v)
    {
        char bytes[4];
        for (int i = 0; i < 4; ++i)
            bytes[i] = static_cast<char>(v >> (8 * i));
        buffer.append(bytes, sizeof(bytes));
    }

    /** Overwrite the four bytes at @p offset with @p v. */
    void
    patchU32(std::size_t offset, std::uint32_t v)
    {
        for (std::size_t i = 0; i < 4; ++i)
            buffer[offset + i] = static_cast<char>(v >> (8 * i));
    }

    /** Overwrite the eight bytes at @p offset with @p v. */
    void
    patchU64(std::size_t offset, std::uint64_t v)
    {
        for (std::size_t i = 0; i < 8; ++i)
            buffer[offset + i] = static_cast<char>(v >> (8 * i));
    }

    void
    putU64(std::uint64_t v)
    {
        char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<char>(v >> (8 * i));
        buffer.append(bytes, sizeof(bytes));
    }

    void putI64(std::int64_t v)
    {
        putU64(static_cast<std::uint64_t>(v));
    }

    void
    putF64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        putU64(bits);
    }

    void
    putString(std::string_view s)
    {
        putU32(static_cast<std::uint32_t>(s.size()));
        buffer.append(s.data(), s.size());
    }

    void putBytes(std::string_view s)
    {
        buffer.append(s.data(), s.size());
    }

    std::size_t size() const { return buffer.size(); }

    const std::string &str() const & { return buffer; }

    std::string str() && { return std::move(buffer); }

  private:
    std::string buffer;
};

/**
 * Bounds-checked little-endian decoder over a borrowed span. Every
 * accessor returns false once the span is exhausted; the caller
 * treats that as a malformed payload.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view bytes)
        : cursor(bytes.data()), limit(bytes.data() + bytes.size())
    {
    }

    bool
    getU32(std::uint32_t &v)
    {
        if (remaining() < 4)
            return false;
        v = loadLE32(cursor);
        cursor += 4;
        return true;
    }

    bool
    getU64(std::uint64_t &v)
    {
        if (remaining() < 8)
            return false;
        v = loadLE64(cursor);
        cursor += 8;
        return true;
    }

    bool
    getI64(std::int64_t &v)
    {
        std::uint64_t u;
        if (!getU64(u))
            return false;
        v = static_cast<std::int64_t>(u);
        return true;
    }

    bool
    getF64(double &v)
    {
        std::uint64_t bits;
        if (!getU64(bits))
            return false;
        std::memcpy(&v, &bits, sizeof(v));
        return true;
    }

    bool
    getString(std::string &s)
    {
        std::uint32_t length;
        if (!getU32(length) || remaining() < length)
            return false;
        s.assign(cursor, length);
        cursor += length;
        return true;
    }

    /**
     * Consume a fixed-size block of @p length bytes with one bounds
     * check; its fields are then read with loadLE32/loadLE64.
     * @return the block's first byte, or nullptr (nothing consumed)
     *     when fewer than @p length bytes remain.
     */
    const char *
    block(std::size_t length)
    {
        if (remaining() < length)
            return nullptr;
        const char *start = cursor;
        cursor += length;
        return start;
    }

    std::size_t remaining() const
    {
        return static_cast<std::size_t>(limit - cursor);
    }

    bool atEnd() const { return cursor == limit; }

  private:
    const char *cursor;
    const char *limit;
};

} // namespace tpupoint

#endif // TPUPOINT_TRACE_BYTES_HH
