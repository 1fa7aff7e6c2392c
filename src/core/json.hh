/**
 * @file
 * A small streaming JSON writer. TPUPoint emits chrome://tracing
 * files and analysis summaries as JSON; a streaming writer keeps the
 * memory footprint flat even for traces with millions of events.
 *
 * Tokens go into an owned buffer: escaping appends straight into
 * it and numbers are formatted with std::to_chars. The buffer
 * reaches the stream when the root value closes, whenever it passes
 * kFlushBytes, on flush(), and on destruction. A writer can instead
 * append straight to a caller's string.
 */

#ifndef TPUPOINT_CORE_JSON_HH
#define TPUPOINT_CORE_JSON_HH

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace tpupoint {

/**
 * Streaming JSON writer with structural validation.
 *
 * Usage:
 * @code
 *   JsonWriter w(stream);
 *   w.beginObject();
 *   w.key("traceEvents");
 *   w.beginArray();
 *   ...
 *   w.endArray();
 *   w.endObject();
 * @endcode
 *
 * Misuse (e.g. a value without a pending key inside an object) is a
 * programming error and triggers panic().
 */
class JsonWriter
{
  public:
    /**
     * Write to @p out; the stream must outlive the writer. A
     * pretty writer indents as if its root sat @p depth
     * containers deep, which renders a value for rawValue() to
     * splice at that depth.
     */
    explicit JsonWriter(std::ostream &out, bool pretty = false,
                        std::size_t depth = 0);

    /**
     * Append straight to @p out instead of buffering for a stream
     * (flush() is then a no-op); @p out must outlive the writer.
     */
    explicit JsonWriter(std::string &out, bool pretty = false,
                        std::size_t depth = 0);

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    /** Flushes whatever is still buffered, even an unfinished
     * document. */
    ~JsonWriter();

    /** Open an object value. */
    void beginObject();

    /** Close the innermost object. */
    void endObject();

    /** Open an array value. */
    void beginArray();

    /** Close the innermost array. */
    void endArray();

    /** Emit an object key; next call must produce its value. */
    void key(std::string_view name);

    /** Emit a string value (escaped). */
    void value(std::string_view text);
    void value(const char *text) { value(std::string_view(text)); }

    /** Emit numeric and boolean values. */
    void value(double number);
    void value(std::int64_t number);
    void value(std::uint64_t number);
    void value(int number) { value(static_cast<std::int64_t>(number)); }
    void value(bool flag);

    /** Emit a JSON null. */
    void nullValue();

    /**
     * Splice @p json verbatim as the next value: one complete
     * value rendered by a writer with the same pretty setting
     * constructed at this value's depth (the number of containers
     * open around it), so the bytes equal rendering it in place.
     * The bytes are trusted, not validated.
     */
    void rawValue(std::string_view json);

    /** Convenience: key + value in one call. */
    template <typename T>
    void
    field(std::string_view name, T &&v)
    {
        key(name);
        value(std::forward<T>(v));
    }

    /** True when every container has been closed. */
    bool complete() const;

    /** Write the buffered bytes to the stream now. */
    void flush();

    /** Escape a string per JSON rules (exposed for tests). */
    static std::string escape(std::string_view text);

    /** Buffered bytes past which the writer flushes. */
    static constexpr std::size_t kFlushBytes = 64 * 1024;

  private:
    enum class Scope { Object, Array };

    void beforeValue();
    void afterValue();
    void newlineIndent();
    void quoted(std::string_view text);
    template <typename Integer> void appendInteger(Integer number);

    std::ostream *stream;  ///< Null when writing to a string.
    std::string own_buffer;
    std::string &buffer;   ///< own_buffer, or the target string.
    bool pretty_print;
    std::size_t base_depth;
    bool key_pending = false;
    bool root_written = false;
    std::vector<Scope> scopes;
    std::vector<bool> has_items;
};

/**
 * Validate that @p text is one complete JSON value (RFC 8259
 * grammar; no trailing content beyond whitespace). The complement
 * of JsonWriter: everything the writer emits round-trips through
 * this check, and tests/CI use it to gate exported trace files.
 *
 * @param error When non-null, receives a byte offset + reason on
 *     failure.
 */
bool validateJson(std::string_view text,
                  std::string *error = nullptr);

} // namespace tpupoint

#endif // TPUPOINT_CORE_JSON_HH
