#include "lognic/io/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "lognic/io/checkpoint.hpp"

namespace lognic::io {

namespace {

/// The digits format_double() gives a finite @p value, appended to @p out.
/// std::to_chars with a precision is specified as printf with that
/// precision, so these are the bytes "%.0f" and "%.17g" print.
void
append_double(std::string& out, double value)
{
    char buf[32]; // "%.17g" needs at most 24 bytes, "%.0f" below 1e15 17
    const std::to_chars_result r =
        value == std::floor(value) && std::abs(value) < 1e15
            ? std::to_chars(buf, buf + sizeof(buf), value,
                            std::chars_format::fixed, 0)
            : std::to_chars(buf, buf + sizeof(buf), value,
                            std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

[[noreturn]] void
type_error(const char* want, Json::Type have)
{
    const char* names[] = {"null", "bool", "number", "string", "array",
                           "object"};
    throw std::runtime_error(std::string("Json: expected ") + want
                             + ", have " + names[static_cast<int>(have)]);
}

/// The C locale's isspace() bytes: ' ', '\t', '\n', '\v', '\f', '\r'.
bool
is_space(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/// The bytes a number token runs over; strtod decides what they mean.
bool
is_number_char(char c)
{
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E'
        || c == '+' || c == '-';
}

/// Recursive-descent JSON parser over a string.
class Parser {
  public:
    /// The deepest array/object nesting accepted. The recursion costs
    /// stack per level, so without a cap a run of '[' overflows it; the
    /// deepest documents the repository writes (check journals holding a
    /// failure's minimal_spec) nest 11 levels.
    static constexpr int kMaxDepth = 512;

    explicit Parser(const std::string& text) : text_(text) {}

    Json parse_document()
    {
        const Json v = parse_value();
        skip_ws();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string& why)
    {
        throw std::runtime_error("Json parse error at offset "
                                 + std::to_string(pos_) + ": " + why);
    }

    void skip_ws()
    {
        while (pos_ < text_.size() && is_space(text_[pos_]))
            ++pos_;
    }

    char peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    char take()
    {
        const char c = peek();
        ++pos_;
        return c;
    }

    void expect(char c)
    {
        if (take() != c)
            fail(std::string("expected '") + c + "'");
    }

    bool try_take(char c)
    {
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void expect_keyword(const char* kw)
    {
        for (const char* p = kw; *p; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fail(std::string("expected '") + kw + "'");
            ++pos_;
        }
    }

    Json parse_value()
    {
        skip_ws();
        switch (peek()) {
          case 'n':
            expect_keyword("null");
            return Json{};
          case 't':
            expect_keyword("true");
            return Json{true};
          case 'f':
            expect_keyword("false");
            return Json{false};
          case '"':
            return Json{parse_string()};
          case '[':
          case '{': {
            if (depth_ == kMaxDepth)
                fail("nesting deeper than " + std::to_string(kMaxDepth));
            ++depth_;
            Json v = text_[pos_] == '[' ? parse_array() : parse_object();
            --depth_;
            return v;
          }
          default:
            return parse_number();
        }
    }

    std::string parse_string()
    {
        expect('"');
        std::string out;
        for (;;) {
            const std::size_t run = pos_;
            while (pos_ < text_.size() && text_[pos_] != '"'
                   && text_[pos_] != '\\')
                ++pos_;
            out.append(text_, run, pos_ - run);
            if (take() == '"')
                return out;
            switch (take()) {
              case '"':
                out.push_back('"');
                break;
              case '\\':
                out.push_back('\\');
                break;
              case '/':
                out.push_back('/');
                break;
              case 'b':
                out.push_back('\b');
                break;
              case 'f':
                out.push_back('\f');
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'u': {
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = take();
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // Encode the BMP code point as UTF-8 (no surrogates).
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(
                        static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
              }
              default:
                fail("bad escape");
            }
        }
    }

    /// A number is the longest run of number bytes that strtod consumes
    /// whole to a finite double. std::from_chars reads the same grammar
    /// minus a leading '+' and, like strtod, rounds correctly, so where it
    /// takes the whole token the two agree; anything else it rejects (a
    /// '+', an underflow to zero, a malformed token) gets strtod's rule.
    Json parse_number()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() && is_number_char(text_[pos_]))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        const char* first = text_.data() + start;
        const char* last = text_.data() + pos_;
        double v = 0.0;
        const std::from_chars_result r = std::from_chars(first, last, v);
        if (r.ec == std::errc{} && r.ptr == last && std::isfinite(v))
            return Json{v};
        const std::string token(first, last);
        char* end = nullptr;
        v = std::strtod(token.c_str(), &end);
        if (end == token.c_str() || *end != '\0' || !std::isfinite(v))
            fail("malformed number '" + token + "'");
        return Json{v};
    }

    Json parse_array()
    {
        expect('[');
        JsonArray out;
        if (try_take(']'))
            return Json{std::move(out)};
        for (;;) {
            out.push_back(parse_value());
            skip_ws();
            if (try_take(']'))
                return Json{std::move(out)};
            expect(',');
        }
    }

    Json parse_object()
    {
        expect('{');
        JsonObject out;
        if (try_take('}'))
            return Json{std::move(out)};
        for (;;) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            // Hinted at the end: amortized O(1) for the sorted keys the
            // writer emits. A repeated key still takes the last value.
            out.insert_or_assign(out.end(), std::move(key), parse_value());
            skip_ws();
            if (try_take('}'))
                return Json{std::move(out)};
            expect(',');
        }
    }

    const std::string& text_;
    std::size_t pos_{0};
    int depth_{0};
};

void
escape_into(std::string& out, const std::string& s)
{
    out.push_back('"');
    // Bytes that need no escape are copied a run at a time.
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s, run, i - run);
        run = i + 1;
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default: {
            constexpr char kHex[] = "0123456789abcdef";
            const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                 kHex[c & 0xF]};
            out.append(code, sizeof(code));
          }
        }
    }
    out.append(s, run, s.size() - run);
    out.push_back('"');
}

} // namespace

std::string
format_double(double value)
{
    if (std::isnan(value))
        return "nan";
    if (std::isinf(value))
        return value > 0 ? "inf" : "-inf";
    std::string out;
    append_double(out, value);
    return out;
}

bool
Json::as_bool() const
{
    if (type_ != Type::kBool)
        type_error("bool", type_);
    return bool_;
}

double
Json::as_number() const
{
    if (type_ != Type::kNumber)
        type_error("number", type_);
    return number_;
}

const std::string&
Json::as_string() const
{
    if (type_ != Type::kString)
        type_error("string", type_);
    return string_;
}

const JsonArray&
Json::as_array() const
{
    if (type_ != Type::kArray)
        type_error("array", type_);
    return *array_;
}

const JsonObject&
Json::as_object() const
{
    if (type_ != Type::kObject)
        type_error("object", type_);
    return *object_;
}

const Json&
Json::at(const std::string& key) const
{
    const auto& obj = as_object();
    const auto it = obj.find(key);
    if (it == obj.end())
        throw std::runtime_error("Json: missing key '" + key + "'");
    return it->second;
}

bool
Json::contains(const std::string& key) const
{
    return type_ == Type::kObject
        && object_->find(key) != object_->end();
}

double
Json::number_or(const std::string& key, double fallback) const
{
    if (!contains(key))
        return fallback;
    return at(key).as_number();
}

Json&
Json::set(const std::string& key, Json value)
{
    if (type_ == Type::kNull) {
        type_ = Type::kObject;
        object_ = std::make_shared<JsonObject>();
    }
    if (type_ != Type::kObject)
        type_error("object", type_);
    if (object_.use_count() > 1)
        object_ = std::make_shared<JsonObject>(*object_);
    (*object_)[key] = std::move(value);
    return *this;
}

Json&
Json::push_back(Json value)
{
    if (type_ == Type::kNull) {
        type_ = Type::kArray;
        array_ = std::make_shared<JsonArray>();
    }
    if (type_ != Type::kArray)
        type_error("array", type_);
    if (array_.use_count() > 1)
        array_ = std::make_shared<JsonArray>(*array_);
    array_->push_back(std::move(value));
    return *this;
}

void
Json::dump_to(std::string& out, int indent, int depth) const
{
    const auto newline = [&](int d) {
        if (indent >= 0) {
            out.push_back('\n');
            out.append(static_cast<std::size_t>(indent * d), ' ');
        }
    };
    switch (type_) {
      case Type::kNull:
        out += "null";
        break;
      case Type::kBool:
        out += bool_ ? "true" : "false";
        break;
      case Type::kNumber: {
        // RFC 8259 has no token for non-finite numbers; emitting bare
        // inf/nan produced documents our own parser (and jq) rejected.
        // null is the standard lossy encoding — readers using number_or()
        // fall back to their defaults, which is the honest outcome for a
        // statistic that was undefined in the first place.
        if (!std::isfinite(number_)) {
            out += "null";
            break;
        }
        append_double(out, number_);
        break;
      }
      case Type::kString:
        escape_into(out, string_);
        break;
      case Type::kArray: {
        if (array_->empty()) {
            out += "[]";
            break;
        }
        out.push_back('[');
        bool first = true;
        for (const auto& v : *array_) {
            if (!first)
                out.push_back(',');
            first = false;
            newline(depth + 1);
            v.dump_to(out, indent, depth + 1);
        }
        newline(depth);
        out.push_back(']');
        break;
      }
      case Type::kObject: {
        if (object_->empty()) {
            out += "{}";
            break;
        }
        out.push_back('{');
        bool first = true;
        for (const auto& [key, v] : *object_) {
            if (!first)
                out.push_back(',');
            first = false;
            newline(depth + 1);
            escape_into(out, key);
            out += indent >= 0 ? ": " : ":";
            v.dump_to(out, indent, depth + 1);
        }
        newline(depth);
        out.push_back('}');
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dump_to(out, indent, 0);
    return out;
}

Json
Json::parse(const std::string& text)
{
    Parser p(text);
    return p.parse_document();
}

std::uint64_t
to_uint(const Json& v, const std::string& key, std::uint64_t max)
{
    // Named only on the error paths: scenario parsing reads several
    // integer fields per vertex and edge.
    const auto field = [&key] { return "field \"" + key + "\""; };
    std::uint64_t value = 0;
    if (v.is_string()) {
        value = parse_u64(v.as_string(), field());
    } else {
        const double n = v.is_number() ? v.as_number() : -1.0;
        if (!(n >= 0.0) || n != std::floor(n) || n >= 0x1p64)
            throw std::runtime_error(field()
                                     + " must be a non-negative integer, "
                                       "got " + v.dump(-1));
        value = static_cast<std::uint64_t>(n);
    }
    if (value > max)
        throw std::runtime_error(field() + " must be at most "
                                 + std::to_string(max) + ", got "
                                 + v.dump(-1));
    return value;
}

Json
uint_to_json(std::uint64_t value)
{
    if (value <= (std::uint64_t{1} << 53))
        return Json(static_cast<double>(value));
    return Json(u64_to_hex(value));
}

} // namespace lognic::io
