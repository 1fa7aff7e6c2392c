/** @file Streaming JSON writer structure and escaping. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/json.hh"
#include "core/rng.hh"

namespace tpupoint {
namespace {

TEST(JsonWriterTest, EmptyObject)
{
    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    w.endObject();
    EXPECT_EQ(out.str(), "{}");
    EXPECT_TRUE(w.complete());
}

TEST(JsonWriterTest, SimpleFields)
{
    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    w.field("name", "tpu");
    w.field("count", std::int64_t{3});
    w.field("ratio", 0.5);
    w.field("ok", true);
    w.key("none");
    w.nullValue();
    w.endObject();
    EXPECT_EQ(out.str(),
              "{\"name\":\"tpu\",\"count\":3,\"ratio\":0.5,"
              "\"ok\":true,\"none\":null}");
}

TEST(JsonWriterTest, NestedArrays)
{
    std::ostringstream out;
    JsonWriter w(out);
    w.beginArray();
    w.value(std::int64_t{1});
    w.beginArray();
    w.value(std::int64_t{2});
    w.endArray();
    w.beginObject();
    w.field("x", std::int64_t{3});
    w.endObject();
    w.endArray();
    EXPECT_EQ(out.str(), "[1,[2],{\"x\":3}]");
    EXPECT_TRUE(w.complete());
}

TEST(JsonWriterTest, EscapesSpecialCharacters)
{
    EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(JsonWriter::escape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(JsonWriter::escape("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(JsonWriter::escape("tab\there"), "tab\\there");
    EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')),
              "\\u0001");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull)
{
    std::ostringstream out;
    JsonWriter w(out);
    w.beginArray();
    w.value(std::nan(""));
    w.endArray();
    EXPECT_EQ(out.str(), "[null]");
}

TEST(JsonWriterTest, ValueWithoutKeyPanics)
{
    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    EXPECT_THROW(w.value("oops"), std::logic_error);
}

TEST(JsonWriterTest, DoubleKeyPanics)
{
    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    w.key("a");
    EXPECT_THROW(w.key("b"), std::logic_error);
}

TEST(JsonWriterTest, MismatchedClosePanics)
{
    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    EXPECT_THROW(w.endArray(), std::logic_error);
}

TEST(JsonWriterTest, DanglingKeyAtClosePanics)
{
    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    w.key("k");
    EXPECT_THROW(w.endObject(), std::logic_error);
}

TEST(JsonWriterTest, SecondRootPanics)
{
    std::ostringstream out;
    JsonWriter w(out);
    w.value("one");
    EXPECT_THROW(w.value("two"), std::logic_error);
}

TEST(JsonWriterTest, PrettyPrintingIndents)
{
    std::ostringstream out;
    JsonWriter w(out, /*pretty=*/true);
    w.beginObject();
    w.field("a", std::int64_t{1});
    w.endObject();
    EXPECT_EQ(out.str(), "{\n  \"a\": 1\n}");
}

TEST(JsonWriterTest, RawValueSplicesAsIfRenderedInPlace)
{
    // One value rendered for depth two, then spliced there, must
    // give the bytes of rendering it in place.
    const auto element = [](JsonWriter &w) {
        w.beginObject();
        w.field("name", "a\nb");
        w.key("list");
        w.beginArray();
        w.value(std::int64_t{1});
        w.endArray();
        w.endObject();
    };
    for (const bool pretty : {false, true}) {
        std::ostringstream fragment;
        {
            JsonWriter w(fragment, pretty, /*depth=*/2);
            element(w);
        }
        std::ostringstream direct;
        std::ostringstream spliced;
        {
            JsonWriter d(direct, pretty);
            JsonWriter s(spliced, pretty);
            for (JsonWriter *w : {&d, &s}) {
                w->beginObject();
                w->key("items");
                w->beginArray();
                w->value(std::int64_t{0});
            }
            element(d);
            s.rawValue(fragment.str());
            for (JsonWriter *w : {&d, &s}) {
                w->endArray();
                w->endObject();
            }
        }
        EXPECT_EQ(spliced.str(), direct.str()) << "pretty=" << pretty;
        EXPECT_TRUE(validateJson(spliced.str()));
    }
}

TEST(JsonWriterTest, StringTargetGetsTheStreamBytes)
{
    std::ostringstream stream;
    std::string target = "kept:";
    {
        JsonWriter s(stream, /*pretty=*/true);
        JsonWriter t(target, /*pretty=*/true);
        for (JsonWriter *w : {&s, &t}) {
            w->beginObject();
            w->field("a", std::int64_t{1});
            w->key("big");
            w->beginArray();
            // Past the flush threshold: a string target never
            // flushes, it just grows.
            const std::string item(100, 'x');
            for (std::size_t i = 0; i < JsonWriter::kFlushBytes / 50;
                 ++i)
                w->value(item);
            w->endArray();
            w->endObject();
        }
    }
    EXPECT_EQ(target, "kept:" + stream.str());
}

TEST(JsonWriterTest, CompleteOnlyWhenBalanced)
{
    std::ostringstream out;
    JsonWriter w(out);
    EXPECT_FALSE(w.complete());
    w.beginArray();
    EXPECT_FALSE(w.complete());
    w.endArray();
    EXPECT_TRUE(w.complete());
}

/** One value written as a root document. */
template <typename T>
std::string
written(T value)
{
    std::ostringstream out;
    JsonWriter w(out);
    w.value(value);
    return out.str();
}

/** The writer's former number format, kept as the oracle. */
std::string
printfG12(double number)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", number);
    return buf;
}

TEST(JsonWriterTest, DoublesMatchPrintfG12)
{
    const double max = std::numeric_limits<double>::max();
    const double min_normal = std::numeric_limits<double>::min();
    const double denorm = std::numeric_limits<double>::denorm_min();
    std::vector<double> values = {
        0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1e-3, 1.5e3, 123456.789,
        denorm, -denorm, denorm * 3, min_normal, min_normal / 2,
        -min_normal, 2.2250738585072009e-308, 1e308, -1e308, max,
        -max, 1e-308, 1e-5, 1e-4, 99999999999.9, 999999999999.0,
        999999999999.4, 999999999999.5, 1e12, 1e15, 1e16, 1e17, 1e21,
        // Integers above 2^53.
        9007199254740992.0, 9007199254740994.0, 18014398509481990.0,
        1152921504606846976.0, 9223372036854775808.0,
        18446744073709551616.0, -9007199254740994.0,
        // Exact 13-digit values: 12-digit rounding ties.
        100000000000.5, 100000000001.5, 999999999999.5,
        1234567890125.0, 1234567890135.0, 0.1234567890125,
        2.5, 0.000030517578125, 1.00000000000005, 3.14159265358979};
    Rng rng(0x47313221ULL); // "G12!"
    for (int i = 0; i < 20000; ++i) {
        // Random bit patterns cover every exponent; scaled uniform
        // draws cover the everyday magnitudes.
        const std::uint64_t bits = rng.nextU64();
        double number;
        std::memcpy(&number, &bits, sizeof(number));
        if (std::isfinite(number))
            values.push_back(number);
        values.push_back((rng.nextDouble() - 0.5) *
                         std::pow(10.0, static_cast<double>(
                                            rng.nextBounded(40)) -
                                            20.0));
        values.push_back(static_cast<double>(rng.nextU64() >>
                                             rng.nextBounded(64)));
    }
    for (const double number : values) {
        ASSERT_EQ(written(number), printfG12(number))
            << std::hexfloat << number;
    }
}

TEST(JsonWriterTest, IntegersMatchStreamFormatting)
{
    for (const std::int64_t number :
         {std::int64_t{0}, std::int64_t{-1}, std::int64_t{42},
          std::numeric_limits<std::int64_t>::min(),
          std::numeric_limits<std::int64_t>::max()}) {
        std::ostringstream expected;
        expected << number;
        EXPECT_EQ(written(number), expected.str());
    }
    for (const std::uint64_t number :
         {std::uint64_t{0}, std::uint64_t{9007199254740993ULL},
          std::numeric_limits<std::uint64_t>::max()}) {
        std::ostringstream expected;
        expected << number;
        EXPECT_EQ(written(number), expected.str());
    }
}

/** The writer's former escape(), kept as the oracle. */
std::string
legacyEscape(std::string_view text)
{
    std::string out;
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

TEST(JsonWriterTest, EveryByteEscapesAsBefore)
{
    std::string all;
    for (int byte = 0; byte < 256; ++byte) {
        const std::string one(1, static_cast<char>(byte));
        EXPECT_EQ(JsonWriter::escape(one), legacyEscape(one))
            << "byte " << byte;
        EXPECT_EQ(written(std::string_view(one)),
                  "\"" + legacyEscape(one) + "\"")
            << "byte " << byte;
        all += one;
    }
    // Runs of plain bytes between escapes, in both directions.
    const std::string mixed = "plain" + all + "tail\"x\\" + all;
    EXPECT_EQ(JsonWriter::escape(mixed), legacyEscape(mixed));
    EXPECT_EQ(JsonWriter::escape(""), "");
}

TEST(JsonWriterTest, BuffersUntilTheRootCloses)
{
    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    w.field("a", std::int64_t{1});
    EXPECT_EQ(out.str(), "");
    w.flush();
    EXPECT_EQ(out.str(), "{\"a\":1");
    w.field("b", true);
    w.endObject();
    EXPECT_EQ(out.str(), "{\"a\":1,\"b\":true}");
}

TEST(JsonWriterTest, UnfinishedDocumentReachesStreamOnDestruction)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        w.key("list");
        w.beginArray();
        w.value("x");
        EXPECT_EQ(out.str(), "");
    }
    EXPECT_EQ(out.str(), "{\"list\":[\"x\"");
}

TEST(JsonWriterTest, LargeDocumentsFlushAsTheyGrow)
{
    std::ostringstream out;
    std::size_t written_before_close = 0;
    {
        JsonWriter w(out);
        w.beginArray();
        const std::string item(100, 'x');
        for (std::size_t i = 0; i < 4 * JsonWriter::kFlushBytes / 100;
             ++i)
            w.value(item);
        written_before_close = out.str().size();
        // Nothing more than one flush threshold stays buffered.
        EXPECT_GT(written_before_close, 2 * JsonWriter::kFlushBytes);
        w.endArray();
    }
    const std::string json = out.str();
    EXPECT_GT(json.size(), written_before_close);
    EXPECT_EQ(json.back(), ']');
    EXPECT_TRUE(validateJson(json));
}

TEST(JsonValidatorTest, AcceptsWellFormedDocuments)
{
    EXPECT_TRUE(validateJson("{}"));
    EXPECT_TRUE(validateJson("[]"));
    EXPECT_TRUE(validateJson("null"));
    EXPECT_TRUE(validateJson("true"));
    EXPECT_TRUE(validateJson("-12.5e3"));
    EXPECT_TRUE(validateJson("\"text with \\\"quotes\\\"\""));
    EXPECT_TRUE(validateJson(
        "{\"a\":[1,2,{\"b\":null}],\"c\":\"\\u00e9\"}"));
    EXPECT_TRUE(validateJson("  [1, 2]  \n")); // edge whitespace
}

TEST(JsonValidatorTest, RejectsMalformedDocuments)
{
    EXPECT_FALSE(validateJson(""));
    EXPECT_FALSE(validateJson("{"));
    EXPECT_FALSE(validateJson("[1,]"));
    EXPECT_FALSE(validateJson("{\"a\":1,}"));
    EXPECT_FALSE(validateJson("{'a':1}"));
    EXPECT_FALSE(validateJson("nul"));
    EXPECT_FALSE(validateJson("01"));
    EXPECT_FALSE(validateJson("\"unterminated"));
    EXPECT_FALSE(validateJson("{} trailing"));
    EXPECT_FALSE(validateJson("NaN"));
}

TEST(JsonValidatorTest, ErrorCarriesAnOffsetAndReason)
{
    std::string error;
    EXPECT_FALSE(validateJson("{\"a\":}", &error));
    EXPECT_FALSE(error.empty());
}

TEST(JsonValidatorTest, WriterOutputAlwaysValidates)
{
    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    w.field("name", "a\"b\\c\nnewline");
    w.field("nan", std::nan("")); // emitted as null
    w.key("list");
    w.beginArray();
    w.value(std::int64_t{-1});
    w.value(0.25);
    w.endArray();
    w.endObject();
    std::string error;
    EXPECT_TRUE(validateJson(out.str(), &error)) << error;
}

} // namespace
} // namespace tpupoint
