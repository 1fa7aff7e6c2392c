/**
 * @file
 * Little-endian byte-buffer codecs shared by the record-stream
 * transport and the profile-record wire format. ByteWriter appends
 * fixed-width fields to a growable buffer; ByteReader consumes them
 * from a borrowed byte span with explicit bounds checking, so a
 * malformed payload turns into a decode failure instead of a read
 * past the end of the chunk.
 *
 * ByteWriter sits on the producer's hot path (every profile window,
 * every serve journal entry), so each put is inline: one capacity
 * check, then a store through a `char *`. Its string grows
 * geometrically by `resize` and may hold bytes past what was
 * written; `size()` counts only the written bytes, and `str()` trims
 * to them, so stale bytes of a reused buffer never leak out.
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

/** Store @p v little-endian at @p bytes (no alignment needed). */
inline void
storeLE32(char *bytes, std::uint32_t v)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(bytes, &v, sizeof(v));
    } else {
        for (int i = 0; i < 4; ++i)
            bytes[i] = static_cast<char>(v >> (8 * i));
    }
}

/** Store @p v little-endian at @p bytes (no alignment needed). */
inline void
storeLE64(char *bytes, std::uint64_t v)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(bytes, &v, sizeof(v));
    } else {
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<char>(v >> (8 * i));
    }
}

/** Append-only little-endian encoder over an owned buffer. */
class ByteWriter
{
  public:
    ByteWriter() = default;

    /** Write into @p reuse's storage: its contents are dropped (never
     * read back or returned), its capacity kept. */
    explicit ByteWriter(std::string reuse) : buffer(std::move(reuse)) {}

    ByteWriter(const ByteWriter &) = default;
    ByteWriter &operator=(const ByteWriter &) = default;

    /** A moved-from writer is empty. */
    ByteWriter(ByteWriter &&other) noexcept
        : buffer(std::move(other.buffer)),
          used(std::exchange(other.used, 0))
    {
    }

    ByteWriter &
    operator=(ByteWriter &&other) noexcept
    {
        buffer = std::move(other.buffer);
        used = std::exchange(other.used, 0);
        return *this;
    }

    void putU32(std::uint32_t v) { storeLE32(claim(4), v); }

    /** Overwrite the four bytes at @p offset with @p v.
     * @pre offset + 4 <= size() */
    void
    patchU32(std::size_t offset, std::uint32_t v)
    {
        storeLE32(buffer.data() + offset, v);
    }

    /** Overwrite the eight bytes at @p offset with @p v.
     * @pre offset + 8 <= size() */
    void
    patchU64(std::size_t offset, std::uint64_t v)
    {
        storeLE64(buffer.data() + offset, v);
    }

    void putU64(std::uint64_t v) { storeLE64(claim(8), v); }

    void putI64(std::int64_t v)
    {
        putU64(static_cast<std::uint64_t>(v));
    }

    void putF64(double v) { putU64(std::bit_cast<std::uint64_t>(v)); }

    void
    putString(std::string_view s)
    {
        char *at = claim(4 + s.size());
        storeLE32(at, static_cast<std::uint32_t>(s.size()));
        if (!s.empty())
            std::memcpy(at + 4, s.data(), s.size());
    }

    void
    putBytes(std::string_view s)
    {
        if (!s.empty())
            std::memcpy(claim(s.size()), s.data(), s.size());
    }

    /** Bytes written so far. */
    std::size_t size() const { return used; }

    /** A copy of the bytes written. */
    std::string str() const & { return buffer.substr(0, used); }

    /** The bytes written, in the writer's storage; the writer is
     * left empty. */
    std::string
    str() &&
    {
        buffer.resize(used);
        used = 0;
        return std::move(buffer);
    }

  private:
    /** Make room for @p n more bytes and return where they go. */
    char *
    claim(std::size_t n)
    {
        if (buffer.size() - used < n) [[unlikely]]
            grow(n);
        char *at = buffer.data() + used;
        used += n;
        return at;
    }

    /** Geometric growth, using any capacity the string already has
     * (a reused buffer's, or the small-string buffer). */
    [[gnu::noinline]] void
    grow(std::size_t n)
    {
        std::size_t target = 2 * buffer.size();
        if (target < used + n)
            target = used + n;
        if (target < buffer.capacity())
            target = buffer.capacity();
        buffer.resize(target);
    }

    /** The first `used` bytes are the output; the rest is slack. */
    std::string buffer;
    std::size_t used = 0;
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
