#include "lognic/io/json.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace lognic::io {
namespace {

TEST(Json, ScalarRoundTrips)
{
    EXPECT_EQ(Json::parse("null").type(), Json::Type::kNull);
    EXPECT_TRUE(Json::parse("true").as_bool());
    EXPECT_FALSE(Json::parse("false").as_bool());
    EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
    EXPECT_DOUBLE_EQ(Json::parse("-3.5e2").as_number(), -350.0);
    EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, StringEscapes)
{
    const Json v = Json::parse(R"("a\"b\\c\nd\teA")");
    EXPECT_EQ(v.as_string(), "a\"b\\c\nd\teA");
    // Round trip through dump.
    const Json back = Json::parse(v.dump());
    EXPECT_EQ(back.as_string(), v.as_string());
}

TEST(Json, UnicodeEscapesEncodeUtf8)
{
    EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");  // é
    EXPECT_EQ(Json::parse(R"("€")").as_string(),
              "\xe2\x82\xac"); // €
}

TEST(Json, ArraysAndObjects)
{
    const Json v = Json::parse(R"({"a": [1, 2, 3], "b": {"c": true}})");
    EXPECT_EQ(v.at("a").as_array().size(), 3u);
    EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_number(), 2.0);
    EXPECT_TRUE(v.at("b").at("c").as_bool());
    EXPECT_TRUE(v.contains("a"));
    EXPECT_FALSE(v.contains("z"));
    EXPECT_THROW(v.at("z"), std::runtime_error);
    // A repeated key keeps its last value, wherever it repeats.
    EXPECT_EQ(Json::parse(R"({"b": 1, "a": 2, "b": 3, "a": 4})").dump(-1),
              R"({"a":4,"b":3})");
}

TEST(Json, NumberOrFallback)
{
    const Json v = Json::parse(R"({"x": 5})");
    EXPECT_DOUBLE_EQ(v.number_or("x", 1.0), 5.0);
    EXPECT_DOUBLE_EQ(v.number_or("y", 1.0), 1.0);
}

TEST(Json, Builders)
{
    Json obj;
    obj.set("name", "test").set("count", 3);
    Json arr;
    arr.push_back(1.5).push_back("two");
    obj.set("items", arr);
    const Json round = Json::parse(obj.dump());
    EXPECT_EQ(round.at("name").as_string(), "test");
    EXPECT_DOUBLE_EQ(round.at("count").as_number(), 3.0);
    EXPECT_EQ(round.at("items").as_array().size(), 2u);
}

TEST(Json, TypeMismatchThrows)
{
    const Json v = Json::parse("42");
    EXPECT_THROW(v.as_string(), std::runtime_error);
    EXPECT_THROW(v.as_array(), std::runtime_error);
    EXPECT_THROW(v.as_object(), std::runtime_error);
    EXPECT_THROW(v.as_bool(), std::runtime_error);
}

TEST(Json, MalformedInputThrows)
{
    EXPECT_THROW(Json::parse(""), std::runtime_error);
    EXPECT_THROW(Json::parse("{"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(Json::parse("{\"a\" 1}"), std::runtime_error);
    EXPECT_THROW(Json::parse("tru"), std::runtime_error);
    EXPECT_THROW(Json::parse("1 2"), std::runtime_error);
    EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
    EXPECT_THROW(Json::parse("1e999"), std::runtime_error); // not finite
}

TEST(Json, WhitespaceTolerant)
{
    const Json v = Json::parse("  {\n\t\"a\" :\r [ 1 , 2 ]\n} ");
    EXPECT_EQ(v.at("a").as_array().size(), 2u);
}

TEST(Json, CompactAndPrettyDump)
{
    const Json v = Json::parse(R"({"a":[1,2],"b":"x"})");
    const std::string compact = v.dump(-1);
    EXPECT_EQ(compact.find('\n'), std::string::npos);
    const std::string pretty = v.dump(2);
    EXPECT_NE(pretty.find('\n'), std::string::npos);
    // Both parse back to the same document.
    EXPECT_EQ(Json::parse(compact).dump(-1), Json::parse(pretty).dump(-1));
}

TEST(Json, DeepNestingRoundTrip)
{
    std::string text = "1";
    for (int i = 0; i < 50; ++i)
        text = "[" + text + "]";
    Json v = Json::parse(text);
    for (int i = 0; i < 50; ++i)
        v = v.as_array()[0];
    EXPECT_DOUBLE_EQ(v.as_number(), 1.0);

    // The object case: assigning a value one of its own members.
    text = "2";
    for (int i = 0; i < 50; ++i)
        text = "{\"k\": " + text + "}";
    v = Json::parse(text);
    for (int i = 0; i < 50; ++i)
        v = v.at("k");
    EXPECT_DOUBLE_EQ(v.as_number(), 2.0);
}

TEST(Json, PreservesNumberPrecision)
{
    const double value = 1.2345678901234567e-3;
    Json v;
    v.set("x", value);
    EXPECT_DOUBLE_EQ(Json::parse(v.dump()).at("x").as_number(), value);
}

TEST(Json, NonFiniteNumbersSerializeAsNullAndRoundTrip)
{
    // RFC 8259 has no token for inf/nan; the writer used to emit them
    // bare, producing documents this very parser (and jq) rejected. They
    // must serialize as null so any document built from runtime metrics
    // stays machine-readable.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(Json{inf}.dump(), "null");
    EXPECT_EQ(Json{-inf}.dump(), "null");
    EXPECT_EQ(Json{nan}.dump(), "null");

    Json doc;
    doc.set("ok", 1.5);
    doc.set("undefined_stat", inf);
    Json arr;
    arr.push_back(Json{nan});
    arr.push_back(Json{2.0});
    doc.set("list", arr);
    const Json back = Json::parse(doc.dump(2)); // must not throw
    EXPECT_DOUBLE_EQ(back.at("ok").as_number(), 1.5);
    EXPECT_EQ(back.at("undefined_stat").type(), Json::Type::kNull);
    EXPECT_EQ(back.at("list").as_array()[0].type(), Json::Type::kNull);
    EXPECT_DOUBLE_EQ(back.at("list").as_array()[1].as_number(), 2.0);
}

TEST(JsonUint, AcceptsIntegralNumbersAndHexOrDecimalStrings)
{
    const Json j = Json::parse(
        R"({"n": 4, "zero": 0, "hex": "0xa6531e5b0f3ddcfe", "dec": "12"})");
    EXPECT_EQ(uint_at<std::uint32_t>(j, "n"), 4u);
    EXPECT_EQ(uint_at<std::uint32_t>(j, "zero"), 0u);
    EXPECT_EQ(uint_at<std::uint64_t>(j, "hex"), 0xa6531e5b0f3ddcfeULL);
    EXPECT_EQ(uint_or<std::size_t>(j, "dec", 3), 12u);
    EXPECT_EQ(uint_or<std::size_t>(j, "absent", 3), 3u);
    EXPECT_THROW(uint_at<std::size_t>(j, "absent"), std::runtime_error);
}

TEST(JsonUint, RejectsFractionsSignsRangeAndOtherTypesNamingTheField)
{
    const Json j = Json::parse(
        R"({"frac": 2.5, "neg": -1, "big": 4294967296, "huge": 1e20,
            "text": "abc", "flag": true, "null": null})");
    for (const char* key : {"frac", "neg", "big", "text", "flag", "null"}) {
        try {
            uint_at<std::uint32_t>(j, key);
            ADD_FAILURE() << key << " accepted";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(uint_at<std::uint64_t>(j, "big"), 4294967296u);
    EXPECT_THROW(uint_at<std::uint64_t>(j, "huge"), std::runtime_error);
}

TEST(JsonUint, WriterRoundTripsEverySeedExactly)
{
    const std::uint64_t two53 = std::uint64_t{1} << 53;
    for (const std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{31337}, two53, two53 + 1,
          std::uint64_t{11984929618412882174ULL},
          std::numeric_limits<std::uint64_t>::max()}) {
        Json doc;
        doc.set("seed", uint_to_json(v));
        EXPECT_EQ(uint_at<std::uint64_t>(Json::parse(doc.dump()), "seed"), v);
        // Numbers while a double holds them exactly (byte-stable corpora).
        EXPECT_EQ(doc.at("seed").is_number(), v <= two53) << v;
    }
}

TEST(Json, CopyOnWriteIsolation)
{
    Json a;
    a.set("k", 1);
    Json b = a; // shares the object node
    b.set("k", 2);
    EXPECT_DOUBLE_EQ(a.at("k").as_number(), 1.0);
    EXPECT_DOUBLE_EQ(b.at("k").as_number(), 2.0);
}

/// The parser's number rule, written out: a token is a number when strtod
/// consumes all of it and the result is finite.
std::optional<double>
strtod_rule(const std::string& token)
{
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0' || !std::isfinite(v))
        return std::nullopt;
    return v;
}

/// @p token, parsed bare and as the one element of an array, is accepted
/// exactly when strtod_rule() accepts it, with strtod's bit pattern.
void
expect_strtod_rule(const std::string& token)
{
    const std::optional<double> want = strtod_rule(token);
    for (const bool in_array : {false, true}) {
        const std::string doc = in_array ? "[" + token + "]" : token;
        try {
            const Json v = Json::parse(doc);
            const double got =
                in_array ? v.as_array().at(0).as_number() : v.as_number();
            ASSERT_TRUE(want.has_value()) << doc << " parsed to " << got;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                      std::bit_cast<std::uint64_t>(*want))
                << doc;
        } catch (const std::runtime_error& e) {
            ASSERT_FALSE(want.has_value()) << doc << ": " << e.what();
            EXPECT_EQ(e.what(), "Json parse error at offset "
                                    + std::to_string(token.size() + in_array)
                                    + ": malformed number '" + token + "'");
        }
    }
}

TEST(JsonParse, NumbersMatchStrtod)
{
    for (const char* token :
         {"+5", "1e-400", "4e-320", "1.", ".5", "-", "1e", "01",
          "1.7976931348623159e308", "1.7976931348623157e308", "-0",
          "2.2250738585072011e-308", "4.9406564584124654e-324", "1e+2",
          "1E-2", "--1", "1..2", "1e2e3", "0.1e", "9007199254740993"})
        expect_strtod_rule(token);

    constexpr char kBytes[] = "0123456789.eE+-";
    std::mt19937_64 rng(19);
    std::uniform_int_distribution<std::size_t> length(1, 24);
    std::uniform_int_distribution<std::size_t> byte(0, sizeof(kBytes) - 2);
    int accepted = 0;
    for (int i = 0; i < 200000; ++i) {
        std::string token(length(rng), '0');
        for (char& c : token)
            c = kBytes[byte(rng)];
        accepted += strtod_rule(token).has_value();
        expect_strtod_rule(token);
    }
    EXPECT_GT(accepted, 10000); // both sides of the rule are exercised

    char buf[40];
    for (int i = 0; i < 20000; ++i) {
        const double v = std::bit_cast<double>(rng());
        if (!std::isfinite(v))
            continue; // "nan" and "inf" are not number tokens
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        expect_strtod_rule(buf);
    }
}

/// The writer's number rule, written out with printf.
std::string
printf_rule(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  v == std::floor(v) && std::abs(v) < 1e15 ? "%.0f"
                                                           : "%.17g",
                  v);
    return buf;
}

void
expect_printf_rule(double v)
{
    if (std::isfinite(v)) {
        EXPECT_EQ(format_double(v), printf_rule(v));
        EXPECT_EQ(Json(v).dump(), printf_rule(v));
    } else {
        EXPECT_EQ(format_double(v),
                  std::isnan(v) ? "nan" : v > 0 ? "inf" : "-inf");
        EXPECT_EQ(Json(v).dump(), "null");
    }
}

TEST(FormatDouble, MatchesPrintf)
{
    std::mt19937_64 rng(15);
    std::vector<double> values = {
        0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1e15, -1e15, 1e15 - 1,
        -(1e15 - 1), 1e15 - 0.5, 1e15 + 2, 999999999999999.9,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    for (int i = 0; i < 200000; ++i)
        values.push_back(std::bit_cast<double>(rng()));
    for (int i = -3000; i <= 3000; ++i) {
        values.push_back(1e15 + i);
        values.push_back(-1e15 + i);
        values.push_back(static_cast<double>(i));
    }
    for (int i = 0; i < 20000; ++i) {
        // Subnormals: a zero exponent field under a random mantissa.
        values.push_back(std::bit_cast<double>(rng() & 0x800fffffffffffffULL));
        // Three-decimal values, the shape of most measured inputs.
        values.push_back(static_cast<double>(static_cast<std::int64_t>(
                             rng() % 20000001) - 10000000)
                         / 1000.0);
    }
    for (const double v : values)
        expect_printf_rule(v);
}

/// The writer's string rule, written out: quote, backslash, newline,
/// carriage return and tab get their short escapes, other bytes below
/// 0x20 get \u00xx, and every other byte is copied.
std::string
escape_rule(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"') {
            out += "\\\"";
        } else if (c == '\\') {
            out += "\\\\";
        } else if (c == '\n') {
            out += "\\n";
        } else if (c == '\r') {
            out += "\\r";
        } else if (c == '\t') {
            out += "\\t";
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out + "\"";
}

TEST(Json, EscapesEveryByteAsBefore)
{
    std::vector<std::string> strings;
    for (int b = 0; b < 256; ++b)
        strings.emplace_back(1, static_cast<char>(b));
    std::mt19937_64 rng(256);
    std::string mixed;
    for (int i = 0; i < 20000; ++i) {
        // Mostly plain runs, with escapes and high bytes between them.
        const auto r = rng();
        mixed.push_back(r % 4 == 0 ? static_cast<char>(r >> 8)
                                   : static_cast<char>('a' + (r >> 8) % 26));
    }
    strings.push_back(mixed);
    for (const std::string& s : strings) {
        const std::string dumped = Json(s).dump();
        EXPECT_EQ(dumped, escape_rule(s));
        EXPECT_EQ(Json::parse(dumped).as_string(), s);
        Json obj;
        obj.set(s, 1);
        EXPECT_EQ(obj.dump(-1), "{" + escape_rule(s) + ":1}");
    }
}

} // namespace
} // namespace lognic::io
