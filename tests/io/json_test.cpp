#include "lognic/io/json.hpp"

#include <limits>

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

} // namespace
} // namespace lognic::io
