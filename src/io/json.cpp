#include "lognic/io/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "lognic/io/checkpoint.hpp"

namespace lognic::io {

std::string
format_double(double value)
{
    if (std::isnan(value))
        return "nan";
    if (std::isinf(value))
        return value > 0 ? "inf" : "-inf";
    char buf[32];
    if (value == std::floor(value) && std::abs(value) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", value);
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", value);
    }
    return buf;
}

namespace {

[[noreturn]] void
type_error(const char* want, Json::Type have)
{
    const char* names[] = {"null", "bool", "number", "string", "array",
                           "object"};
    throw std::runtime_error(std::string("Json: expected ") + want
                             + ", have " + names[static_cast<int>(have)]);
}

/// Recursive-descent JSON parser over a string view.
class Parser {
  public:
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
        while (pos_ < text_.size()
               && std::isspace(static_cast<unsigned char>(text_[pos_])))
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
            return parse_array();
          case '{':
            return parse_object();
          default:
            return parse_number();
        }
    }

    std::string parse_string()
    {
        expect('"');
        std::string out;
        for (;;) {
            const char c = take();
            if (c == '"')
                return out;
            if (c == '\\') {
                const char esc = take();
                switch (esc) {
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
                        out.push_back(
                            static_cast<char>(0xC0 | (code >> 6)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3F)));
                    } else {
                        out.push_back(
                            static_cast<char>(0xE0 | (code >> 12)));
                        out.push_back(static_cast<char>(
                            0x80 | ((code >> 6) & 0x3F)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3F)));
                    }
                    break;
                  }
                  default:
                    fail("bad escape");
                }
            } else {
                out.push_back(c);
            }
        }
    }

    Json parse_number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size()
               && (std::isdigit(static_cast<unsigned char>(text_[pos_]))
                   || text_[pos_] == '.' || text_[pos_] == 'e'
                   || text_[pos_] == 'E' || text_[pos_] == '+'
                   || text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        const std::string token = text_.substr(start, pos_ - start);
        char* end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
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
            out[std::move(key)] = parse_value();
            skip_ws();
            if (try_take('}'))
                return Json{std::move(out)};
            expect(',');
        }
    }

    const std::string& text_;
    std::size_t pos_{0};
};

void
escape_into(std::string& out, const std::string& s)
{
    out.push_back('"');
    for (char c : s) {
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
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

} // namespace

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
        out += format_double(number_);
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
