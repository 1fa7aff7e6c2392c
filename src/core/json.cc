#include "core/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>

#include "core/logging.hh"

namespace tpupoint {

JsonWriter::JsonWriter(std::ostream &out, bool pretty,
                       std::size_t depth)
    : stream(&out), buffer(own_buffer), pretty_print(pretty),
      base_depth(depth)
{
}

JsonWriter::JsonWriter(std::string &out, bool pretty,
                       std::size_t depth)
    : stream(nullptr), buffer(out), pretty_print(pretty),
      base_depth(depth)
{
}

JsonWriter::~JsonWriter()
{
    flush();
}

void
JsonWriter::flush()
{
    if (stream == nullptr || buffer.empty())
        return;
    stream->write(buffer.data(),
                  static_cast<std::streamsize>(buffer.size()));
    buffer.clear();
}

void
JsonWriter::newlineIndent()
{
    if (!pretty_print)
        return;
    buffer += '\n';
    buffer.append(2 * (base_depth + scopes.size()), ' ');
}

void
JsonWriter::beforeValue()
{
    if (scopes.empty()) {
        if (root_written)
            panic("JsonWriter: more than one root value");
        root_written = true;
        return;
    }
    if (scopes.back() == Scope::Object) {
        if (!key_pending)
            panic("JsonWriter: object value without a key");
        key_pending = false;
        return;
    }
    // Array element.
    if (has_items.back())
        buffer += ',';
    has_items.back() = true;
    newlineIndent();
}

void
JsonWriter::afterValue()
{
    if (scopes.empty() || buffer.size() >= kFlushBytes)
        flush();
}

void
JsonWriter::beginObject()
{
    beforeValue();
    buffer += '{';
    scopes.push_back(Scope::Object);
    has_items.push_back(false);
}

void
JsonWriter::endObject()
{
    if (scopes.empty() || scopes.back() != Scope::Object)
        panic("JsonWriter: endObject without matching beginObject");
    if (key_pending)
        panic("JsonWriter: dangling key at endObject");
    scopes.pop_back();
    const bool had_items = has_items.back();
    has_items.pop_back();
    if (had_items)
        newlineIndent();
    buffer += '}';
    afterValue();
}

void
JsonWriter::beginArray()
{
    beforeValue();
    buffer += '[';
    scopes.push_back(Scope::Array);
    has_items.push_back(false);
}

void
JsonWriter::endArray()
{
    if (scopes.empty() || scopes.back() != Scope::Array)
        panic("JsonWriter: endArray without matching beginArray");
    scopes.pop_back();
    const bool had_items = has_items.back();
    has_items.pop_back();
    if (had_items)
        newlineIndent();
    buffer += ']';
    afterValue();
}

void
JsonWriter::key(std::string_view name)
{
    if (scopes.empty() || scopes.back() != Scope::Object)
        panic("JsonWriter: key outside of an object");
    if (key_pending)
        panic("JsonWriter: two keys in a row");
    if (has_items.back())
        buffer += ',';
    has_items.back() = true;
    newlineIndent();
    quoted(name);
    buffer += pretty_print ? ": " : ":";
    key_pending = true;
}

void
JsonWriter::value(std::string_view text)
{
    beforeValue();
    quoted(text);
    afterValue();
}

void
JsonWriter::value(double number)
{
    beforeValue();
    if (!std::isfinite(number)) {
        // JSON has no NaN/Inf; emit null as browsers' tracing does.
        buffer += "null";
    } else {
        // The standard defines general format with a precision as
        // printf's "%.12g" in the C locale.
        char digits[32];
        const char *const end =
            std::to_chars(digits, digits + sizeof(digits), number,
                          std::chars_format::general, 12)
                .ptr;
        buffer.append(digits, static_cast<std::size_t>(end - digits));
    }
    afterValue();
}

template <typename Integer>
void
JsonWriter::appendInteger(Integer number)
{
    char digits[24];
    const char *const end =
        std::to_chars(digits, digits + sizeof(digits), number).ptr;
    buffer.append(digits, static_cast<std::size_t>(end - digits));
}

void
JsonWriter::value(std::int64_t number)
{
    beforeValue();
    appendInteger(number);
    afterValue();
}

void
JsonWriter::value(std::uint64_t number)
{
    beforeValue();
    appendInteger(number);
    afterValue();
}

void
JsonWriter::value(bool flag)
{
    beforeValue();
    buffer += flag ? "true" : "false";
    afterValue();
}

void
JsonWriter::nullValue()
{
    beforeValue();
    buffer += "null";
    afterValue();
}

void
JsonWriter::rawValue(std::string_view json)
{
    beforeValue();
    buffer.append(json);
    afterValue();
}

bool
JsonWriter::complete() const
{
    return scopes.empty() && root_written && !key_pending;
}

namespace {

/** Recursive-descent JSON validator over a byte range. */
class JsonValidator
{
  public:
    explicit JsonValidator(std::string_view input) : text(input) {}

    bool
    validate(std::string *error)
    {
        if (!value() || !atEndAfterSpace()) {
            if (error) {
                *error = "invalid JSON at byte " +
                         std::to_string(pos) + ": " + reason;
            }
            return false;
        }
        return true;
    }

  private:
    bool
    fail(const char *why)
    {
        if (reason.empty())
            reason = why;
        return false;
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    atEndAfterSpace()
    {
        skipSpace();
        return pos == text.size() ||
            fail("trailing content after value");
    }

    bool
    literal(std::string_view word)
    {
        if (text.substr(pos, word.size()) != word)
            return fail("bad literal");
        pos += word.size();
        return true;
    }

    bool
    number()
    {
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        const std::size_t digits_begin = pos;
        while (pos < text.size() && text[pos] >= '0' &&
               text[pos] <= '9')
            ++pos;
        if (pos == digits_begin)
            return fail("digit expected");
        // No leading zeros: "0" alone is fine, "01" is not.
        if (text[digits_begin] == '0' &&
            pos - digits_begin > 1)
            return fail("leading zero");
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            const std::size_t frac_begin = pos;
            while (pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9')
                ++pos;
            if (pos == frac_begin)
                return fail("digit expected after '.'");
        }
        if (pos < text.size() &&
            (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            const std::size_t exp_begin = pos;
            while (pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9')
                ++pos;
            if (pos == exp_begin)
                return fail("digit expected in exponent");
        }
        return true;
    }

    bool
    string()
    {
        if (pos >= text.size() || text[pos] != '"')
            return fail("'\"' expected");
        ++pos;
        while (pos < text.size()) {
            const unsigned char c =
                static_cast<unsigned char>(text[pos]);
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c < 0x20)
                return fail("raw control character in string");
            if (c == '\\') {
                ++pos;
                if (pos >= text.size())
                    return fail("dangling escape");
                const char esc = text[pos];
                if (esc == 'u') {
                    for (int i = 1; i <= 4; ++i) {
                        if (pos + static_cast<std::size_t>(i) >=
                                text.size() ||
                            !std::isxdigit(static_cast<
                                unsigned char>(text[pos +
                                static_cast<std::size_t>(i)])))
                            return fail("bad \\u escape");
                    }
                    pos += 4;
                } else if (esc != '"' && esc != '\\' &&
                           esc != '/' && esc != 'b' &&
                           esc != 'f' && esc != 'n' &&
                           esc != 'r' && esc != 't') {
                    return fail("unknown escape");
                }
            }
            ++pos;
        }
        return fail("unterminated string");
    }

    bool
    value()
    {
        if (++depth > kMaxDepth)
            return fail("nesting too deep");
        skipSpace();
        if (pos >= text.size()) {
            --depth;
            return fail("value expected");
        }
        bool ok = false;
        switch (text[pos]) {
          case '{': ok = object(); break;
          case '[': ok = array(); break;
          case '"': ok = string(); break;
          case 't': ok = literal("true"); break;
          case 'f': ok = literal("false"); break;
          case 'n': ok = literal("null"); break;
          default: ok = number(); break;
        }
        --depth;
        return ok;
    }

    bool
    object()
    {
        ++pos; // '{'
        skipSpace();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            skipSpace();
            if (!string())
                return false;
            skipSpace();
            if (pos >= text.size() || text[pos] != ':')
                return fail("':' expected");
            ++pos;
            if (!value())
                return false;
            skipSpace();
            if (pos >= text.size())
                return fail("unterminated object");
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("',' or '}' expected");
        }
    }

    bool
    array()
    {
        ++pos; // '['
        skipSpace();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            return true;
        }
        for (;;) {
            if (!value())
                return false;
            skipSpace();
            if (pos >= text.size())
                return fail("unterminated array");
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == ']') {
                ++pos;
                return true;
            }
            return fail("',' or ']' expected");
        }
    }

    static constexpr int kMaxDepth = 256;

    std::string_view text;
    std::size_t pos = 0;
    int depth = 0;
    std::string reason;
};

} // namespace

bool
validateJson(std::string_view text, std::string *error)
{
    return JsonValidator(text).validate(error);
}

namespace {

/**
 * Append @p text to @p out escaped per JSON rules. Runs of bytes
 * that need no escape are copied in one append.
 */
void
appendEscaped(std::string &out, std::string_view text)
{
    static constexpr char kHex[] = "0123456789abcdef";
    const char *run = text.data();
    const char *const end = run + text.size();
    for (const char *at = run; at != end; ++at) {
        const auto c = static_cast<unsigned char>(*at);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(run, static_cast<std::size_t>(at - run));
        run = at + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            out += "\\u00";
            out += kHex[c >> 4];
            out += kHex[c & 0xf];
        }
    }
    out.append(run, static_cast<std::size_t>(end - run));
}

} // namespace

void
JsonWriter::quoted(std::string_view text)
{
    buffer += '"';
    appendEscaped(buffer, text);
    buffer += '"';
}

std::string
JsonWriter::escape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    appendEscaped(out, text);
    return out;
}

} // namespace tpupoint
