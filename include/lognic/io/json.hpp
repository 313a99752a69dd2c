/**
 * @file
 * A minimal self-contained JSON value, parser, and writer.
 *
 * LogNIC takes hardware models, execution graphs, and traffic profiles "in
 * predefined formats" (S3.1); this module provides that interchange format
 * without external dependencies. Supports the full JSON data model minus
 * exotica: no surrogate-pair escapes, numbers are IEEE doubles.
 */
#ifndef LOGNIC_IO_JSON_HPP_
#define LOGNIC_IO_JSON_HPP_

#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace lognic::io {

class Json;
using JsonArray = std::vector<Json>;
/// std::map keeps key order deterministic for stable round-trips.
using JsonObject = std::map<std::string, Json>;

/**
 * Round-trip double formatting, shared with the JSON writer's number rule:
 * integral values below 1e15 print without a fraction ("12"), everything
 * else uses %.17g so the exact bit pattern survives a parse. Non-finite
 * values — which the JSON writer encodes as null — print as "nan", "inf",
 * or "-inf" for use in human-readable strings.
 */
std::string format_double(double value);

class Json {
  public:
    enum class Type {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    Json() : type_(Type::kNull) {}
    Json(std::nullptr_t) : type_(Type::kNull) {}
    Json(bool b) : type_(Type::kBool), bool_(b) {}
    Json(double n) : type_(Type::kNumber), number_(n) {}
    Json(int n) : type_(Type::kNumber), number_(n) {}
    Json(unsigned n) : type_(Type::kNumber), number_(n) {}
    Json(long long n)
        : type_(Type::kNumber), number_(static_cast<double>(n))
    {
    }
    Json(const char* s) : type_(Type::kString), string_(s) {}
    Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
    Json(JsonArray a)
        : type_(Type::kArray), array_(std::make_shared<JsonArray>(std::move(a)))
    {
    }
    Json(JsonObject o)
        : type_(Type::kObject),
          object_(std::make_shared<JsonObject>(std::move(o)))
    {
    }

    Json(const Json&) = default;
    Json(Json&&) noexcept = default;
    /// Copy first, then take the copy: @p other may be an element of this
    /// value (`v = v.as_array()[0]`, `v = v.at(k)`), which releasing the
    /// old contents would free mid-assignment.
    Json& operator=(const Json& other)
    {
        Json copy(other);
        return *this = std::move(copy);
    }
    /// Elements are reachable only through const references, so a moved
    /// right-hand side can never be owned by this value.
    Json& operator=(Json&&) noexcept = default;

    Type type() const { return type_; }
    bool is_null() const { return type_ == Type::kNull; }
    bool is_bool() const { return type_ == Type::kBool; }
    bool is_number() const { return type_ == Type::kNumber; }
    bool is_string() const { return type_ == Type::kString; }
    bool is_array() const { return type_ == Type::kArray; }
    bool is_object() const { return type_ == Type::kObject; }

    /// Typed accessors; throw std::runtime_error on type mismatch.
    bool as_bool() const;
    double as_number() const;
    const std::string& as_string() const;
    const JsonArray& as_array() const;
    const JsonObject& as_object() const;

    /// Object member access; throws when absent or not an object.
    const Json& at(const std::string& key) const;
    /// True when this is an object containing @p key.
    bool contains(const std::string& key) const;
    /// Optional member: returns @p fallback when absent.
    double number_or(const std::string& key, double fallback) const;

    /// Mutable object/array builders.
    Json& set(const std::string& key, Json value);
    Json& push_back(Json value);

    /// Serialize; @p indent < 0 means compact single-line output.
    std::string dump(int indent = 2) const;

    /// Parse a JSON document. @throws std::runtime_error with position
    /// info on malformed input.
    static Json parse(const std::string& text);

  private:
    void dump_to(std::string& out, int indent, int depth) const;

    Type type_;
    bool bool_{false};
    double number_{0.0};
    std::string string_;
    std::shared_ptr<JsonArray> array_;
    std::shared_ptr<JsonObject> object_;
};

/**
 * The one reader of integer fields in input documents: @p v, the value of
 * field @p key, must be a non-negative integral JSON number no greater
 * than @p max, or a string parse_u64() accepts (decimal or 0x-hex, the
 * encoding of values above 2^53 that a double cannot carry exactly).
 * @throws std::runtime_error naming the field on anything else, so a
 * "parallelism" of 2.5 is not truncated to 2, nor -1 wrapped to
 * 4294967295.
 */
std::uint64_t to_uint(const Json& v, const std::string& key,
                      std::uint64_t max);

/// to_uint() of the required member @p key of @p j, ranged to @p T.
template <std::unsigned_integral T>
T
uint_at(const Json& j, const std::string& key)
{
    return static_cast<T>(
        to_uint(j.at(key), key, std::numeric_limits<T>::max()));
}

/// uint_at(), or @p fallback when @p j has no member @p key.
template <std::unsigned_integral T>
T
uint_or(const Json& j, const std::string& key, T fallback)
{
    return j.contains(key) ? uint_at<T>(j, key) : fallback;
}

/// The exact encoding of @p value that to_uint() reads back: a number up
/// to 2^53, a hex string above it (where a double would round it).
Json uint_to_json(std::uint64_t value);

} // namespace lognic::io

#endif // LOGNIC_IO_JSON_HPP_
