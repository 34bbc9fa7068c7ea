#include "src/support/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/support/error.hpp"

namespace adapt {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_quote(const std::string& s) {
  // Appended rather than `"\"" + ...`: inserting at the front of a
  // temporary trips GCC 12's -Wrestrict false positive in Release.
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

bool JsonValue::as_bool() const {
  ADAPT_CHECK(is_bool()) << "JSON value is not a bool";
  return std::get<bool>(value_);
}

double JsonValue::as_number() const {
  ADAPT_CHECK(is_number()) << "JSON value is not a number";
  return std::get<double>(value_);
}

std::int64_t JsonValue::as_int() const {
  const double d = as_number();
  const auto i = static_cast<std::int64_t>(d);
  ADAPT_CHECK(static_cast<double>(i) == d) << "JSON number " << d
                                           << " is not integral";
  return i;
}

const std::string& JsonValue::as_string() const {
  ADAPT_CHECK(is_string()) << "JSON value is not a string";
  return std::get<std::string>(value_);
}

const JsonValue::Array& JsonValue::as_array() const {
  ADAPT_CHECK(is_array()) << "JSON value is not an array";
  return std::get<Array>(value_);
}

const JsonValue::Object& JsonValue::as_object() const {
  ADAPT_CHECK(is_object()) << "JSON value is not an object";
  return std::get<Object>(value_);
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const Object& obj = as_object();
  const auto it = obj.find(key);
  ADAPT_CHECK(it != obj.end()) << "JSON object has no key \"" << key << "\"";
  return it->second;
}

bool JsonValue::has(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

namespace {

/// Recursive-descent parser over a string; tracks the byte offset so errors
/// point at the offending character.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    ADAPT_CHECK(pos_ == text_.size())
        << "trailing garbage in JSON at byte " << pos_;
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    ADAPT_CHECK(pos_ < text_.size()) << "unexpected end of JSON input";
    return text_[pos_];
  }

  void expect(char c) {
    ADAPT_CHECK(peek() == c) << "expected '" << c << "' at byte " << pos_
                             << ", got '" << text_[pos_] << "'";
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't':
        ADAPT_CHECK(consume_literal("true")) << "bad literal at byte " << pos_;
        return JsonValue(true);
      case 'f':
        ADAPT_CHECK(consume_literal("false")) << "bad literal at byte " << pos_;
        return JsonValue(false);
      case 'n':
        ADAPT_CHECK(consume_literal("null")) << "bad literal at byte " << pos_;
        return JsonValue(nullptr);
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue(std::move(obj));
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue(std::move(arr));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      ADAPT_CHECK(pos_ < text_.size()) << "unterminated JSON string";
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      ADAPT_CHECK(pos_ < text_.size()) << "unterminated JSON escape";
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          ADAPT_CHECK(pos_ + 4 <= text_.size()) << "truncated \\u escape";
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          ADAPT_CHECK(end == hex.c_str() + 4)
              << "bad \\u escape \"" << hex << "\"";
          // The repo's own artifacts only escape control characters; encode
          // the BMP code point as UTF-8 without surrogate-pair handling.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          ADAPT_CHECK(false) << "bad JSON escape '\\" << esc << "'";
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    ADAPT_CHECK(end == token.c_str() + token.size() && !token.empty())
        << "bad JSON number \"" << token << "\" at byte " << start;
    ADAPT_CHECK(std::isfinite(value)) << "non-finite JSON number";
    return JsonValue(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse_document();
}

}  // namespace adapt
