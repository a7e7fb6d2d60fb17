// Small recursive-descent JSON parser for configuration documents.
//
// The tuning cache gets away with a flat brace-depth scanner because its
// rows are one level deep; scenario files are not (arrays of case
// objects, nested default blocks), so this header supplies a real tree:
// parse() -> Value, with typed accessors that throw descriptive
// std::runtime_errors naming the path that went wrong.  It is a strict
// reader for the repo's own config files, not a general serialization
// framework: numbers are doubles, object key order is preserved for
// deterministic iteration, duplicate keys take the last value (like
// every lenient reader), and there is deliberately no writer — the few
// places that emit JSON keep their hand-rolled printers.
#pragma once

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace tb::util::json {

class Value;

using Array = std::vector<Value>;
/// Object entries in document order (duplicate keys: last wins on
/// lookup, both preserved in iteration order).
using Object = std::vector<std::pair<std::string, Value>>;

/// One JSON value.  Accessors come in two flavours: is_*/as_* pairs that
/// throw on a type mismatch, and get(key) helpers for objects that throw
/// naming the missing key.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  explicit Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit Value(double d) : kind_(Kind::kNumber), num_(d) {}
  explicit Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  explicit Value(Array a) : kind_(Kind::kArray), arr_(std::move(a)) {}
  explicit Value(Object o) : kind_(Kind::kObject), obj_(std::move(o)) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool() const {
    require(Kind::kBool, "bool");
    return bool_;
  }
  [[nodiscard]] double as_number() const {
    require(Kind::kNumber, "number");
    return num_;
  }
  /// Number narrowed to int; throws when the value has a fractional part
  /// (config integers are exact — 2.5 threads is a typo, not a rounding
  /// decision this layer should make).
  [[nodiscard]] int as_int() const {
    const double d = as_number();
    // The range check also keeps the cast below defined.
    if (d != std::floor(d) || d < std::numeric_limits<int>::min() ||
        d > std::numeric_limits<int>::max())
      throw std::runtime_error("json: expected an integer, got " +
                               std::to_string(d));
    return static_cast<int>(d);
  }
  [[nodiscard]] const std::string& as_string() const {
    require(Kind::kString, "string");
    return str_;
  }
  [[nodiscard]] const Array& as_array() const {
    require(Kind::kArray, "array");
    return arr_;
  }
  [[nodiscard]] const Object& as_object() const {
    require(Kind::kObject, "object");
    return obj_;
  }

  /// Object member lookup; nullptr when absent (or when this is not an
  /// object — optional sections read naturally through it).
  [[nodiscard]] const Value* find(const std::string& key) const {
    if (kind_ != Kind::kObject) return nullptr;
    const Value* hit = nullptr;
    for (const auto& [k, v] : obj_)
      if (k == key) hit = &v;  // duplicate keys: last wins
    return hit;
  }

  /// Object member lookup that throws naming the missing key.
  [[nodiscard]] const Value& get(const std::string& key) const {
    require(Kind::kObject, "object");
    if (const Value* v = find(key)) return *v;
    throw std::runtime_error("json: missing required key '" + key + "'");
  }

 private:
  void require(Kind want, const char* name) const {
    if (kind_ != want)
      throw std::runtime_error(std::string("json: expected a ") + name +
                               ", got " + kind_name(kind_));
  }
  [[nodiscard]] static const char* kind_name(Kind k) {
    switch (k) {
      case Kind::kNull: return "null";
      case Kind::kBool: return "bool";
      case Kind::kNumber: return "number";
      case Kind::kString: return "string";
      case Kind::kArray: return "array";
      case Kind::kObject: return "object";
    }
    return "?";
  }

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

namespace detail {

class Parser {
 public:
  Parser(const std::string& text, std::string origin)
      : begin_(text.data()),
        p_(begin_),
        end_(begin_ + text.size()),
        origin_(std::move(origin)) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (p_ != end_) fail("trailing content after the document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    // Re-derive line/column from the byte offset only on the error path.
    int line = 1, col = 1;
    for (const char* q = begin_; q < p_ && q < end_; ++q) {
      if (*q == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw std::runtime_error(origin_ + ":" + std::to_string(line) + ":" +
                             std::to_string(col) + ": " + what);
  }

  void skip_ws() {
    while (p_ < end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r'))
      ++p_;
  }

  [[nodiscard]] char peek() {
    skip_ws();
    if (p_ >= end_) fail("unexpected end of document");
    return *p_;
  }

  void expect(char c) {
    if (peek() != c)
      fail(std::string("expected '") + c + "', got '" + *p_ + "'");
    ++p_;
  }

  bool consume_if(char c) {
    if (p_ < end_ && peek() == c) {
      ++p_;
      return true;
    }
    return false;
  }

  Value parse_value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      // Bounded recursion: a pathologically deep document fails like any
      // malformed one instead of overflowing the stack.
      if (++depth_ > kMaxDepth)
        fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      Value v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    switch (c) {
      case '"': return Value(parse_string());
      case 't':
      case 'f': return parse_bool();
      case 'n':
        parse_literal("null");
        return Value();
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    if (consume_if('}')) return Value(std::move(obj));
    while (true) {
      if (peek() != '"') fail("object keys must be strings");
      std::string key = parse_string();
      expect(':');
      obj.emplace_back(std::move(key), parse_value());
      if (consume_if('}')) return Value(std::move(obj));
      expect(',');
    }
  }

  Value parse_array() {
    expect('[');
    Array arr;
    if (consume_if(']')) return Value(std::move(arr));
    while (true) {
      arr.push_back(parse_value());
      if (consume_if(']')) return Value(std::move(arr));
      expect(',');
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the plain run up to the next quote or escape in one append.
      const char* run = p_;
      while (p_ < end_ && *p_ != '"' && *p_ != '\\') ++p_;
      out.append(run, p_);
      if (p_ >= end_) fail("unterminated string");
      if (*p_++ == '"') return out;
      if (p_ >= end_) fail("unterminated escape");
      const char e = *p_++;
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // Config files are ASCII in practice; decode the BMP escape to
          // UTF-8 so the parser is still correct when they are not.
          if (end_ - p_ < 4) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *p_++;
            cp <<= 4;
            if (h >= '0' && h <= '9')
              cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("invalid \\u escape digit");
          }
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: fail(std::string("unknown escape '\\") + e + "'");
      }
    }
  }

  Value parse_bool() {
    if (*p_ == 't') {
      parse_literal("true");
      return Value(true);
    }
    parse_literal("false");
    return Value(false);
  }

  void parse_literal(const char* lit) {
    for (const char* l = lit; *l != '\0'; ++l) {
      if (p_ >= end_ || *p_ != *l) fail(std::string("expected '") + lit + "'");
      ++p_;
    }
  }

  Value parse_number() {
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') ++p_;
    while (p_ < end_ && ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' ||
                         *p_ == 'e' || *p_ == 'E' || *p_ == '+' ||
                         *p_ == '-'))
      ++p_;
    const std::string tok(start, p_);
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0')
      fail("invalid number '" + tok + "'");
    return Value(d);
  }

  static constexpr int kMaxDepth = 256;  ///< max open arrays/objects

  // Scanned through raw pointers: a checked std::string::operator[] per
  // character dominates unoptimized (sanitizer) builds.
  const char* begin_;
  const char* p_;
  const char* end_;
  std::string origin_;
  int depth_ = 0;
};

}  // namespace detail

/// Parses a complete JSON document.  `origin` names the source in error
/// messages ("<string>" by default, the file path for parse_file).
[[nodiscard]] inline Value parse(const std::string& text,
                                 const std::string& origin = "<string>") {
  return detail::Parser(text, origin).parse_document();
}

/// Reads and parses a JSON file; throws std::runtime_error naming the
/// path on read or parse failure.
[[nodiscard]] inline Value parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("json: cannot read '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str(), path);
}

}  // namespace tb::util::json
