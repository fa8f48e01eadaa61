#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "common/macros.h"
#include "common/string_util.h"

namespace skyrise {

Json::Json(JsonArray a)
    : type_(Type::kArray), array_(std::make_shared<JsonArray>(std::move(a))) {}
Json::Json(JsonObject o)
    : type_(Type::kObject),
      object_(std::make_shared<JsonObject>(std::move(o))) {}

bool Json::AsBool() const {
  SKYRISE_CHECK(is_bool());
  return bool_;
}
double Json::AsDouble() const {
  SKYRISE_CHECK(is_number());
  return number_;
}
int64_t Json::AsInt() const {
  SKYRISE_CHECK(is_number());
  return static_cast<int64_t>(std::llround(number_));
}
const std::string& Json::AsString() const {
  SKYRISE_CHECK(is_string());
  return string_;
}
const JsonArray& Json::AsArray() const {
  SKYRISE_CHECK(is_array());
  return *array_;
}
JsonArray& Json::AsArray() {
  SKYRISE_CHECK(is_array());
  return *array_;
}
const JsonObject& Json::AsObject() const {
  SKYRISE_CHECK(is_object());
  return *object_;
}
JsonObject& Json::AsObject() {
  SKYRISE_CHECK(is_object());
  return *object_;
}

const Json& Json::Get(const std::string& key) const {
  static const Json kNull;
  if (!is_object()) return kNull;
  auto it = object_->find(key);
  return it == object_->end() ? kNull : it->second;
}

bool Json::Has(const std::string& key) const {
  return is_object() && object_->count(key) > 0;
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) {
    type_ = Type::kObject;
    object_ = std::make_shared<JsonObject>();
  }
  SKYRISE_CHECK(is_object());
  return (*object_)[key];
}

int64_t Json::GetInt(const std::string& key, int64_t def) const {
  const Json& v = Get(key);
  return v.is_number() ? v.AsInt() : def;
}
double Json::GetDouble(const std::string& key, double def) const {
  const Json& v = Get(key);
  return v.is_number() ? v.AsDouble() : def;
}
std::string Json::GetString(const std::string& key,
                            const std::string& def) const {
  const Json& v = Get(key);
  return v.is_string() ? v.AsString() : def;
}
bool Json::GetBool(const std::string& key, bool def) const {
  const Json& v = Get(key);
  return v.is_bool() ? v.AsBool() : def;
}

void Json::Append(Json value) {
  if (is_null()) {
    type_ = Type::kArray;
    array_ = std::make_shared<JsonArray>();
  }
  SKYRISE_CHECK(is_array());
  array_->push_back(std::move(value));
}

size_t Json::size() const {
  if (is_array()) return array_->size();
  if (is_object()) return object_->size();
  return 0;
}

namespace {

void EscapeString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(double n, std::string* out) {
  if (std::isfinite(n) && n == std::floor(n) && std::fabs(n) < 1e15) {
    *out += StrFormat("%lld", static_cast<long long>(n));
  } else {
    *out += StrFormat("%.17g", n);
  }
}

void Indent(std::string* out, int indent, int depth) {
  if (indent < 0) return;
  out->push_back('\n');
  out->append(static_cast<size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::DumpTo(std::string* out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      AppendNumber(number_, out);
      break;
    case Type::kString:
      EscapeString(string_, out);
      break;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& v : *array_) {
        if (!first) out->push_back(',');
        first = false;
        Indent(out, indent, depth + 1);
        v.DumpTo(out, indent, depth + 1);
      }
      if (!array_->empty()) Indent(out, indent, depth);
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : *object_) {
        if (!first) out->push_back(',');
        first = false;
        Indent(out, indent, depth + 1);
        EscapeString(k, out);
        out->push_back(':');
        if (indent >= 0) out->push_back(' ');
        v.DumpTo(out, indent, depth + 1);
      }
      if (!object_->empty()) Indent(out, indent, depth);
      out->push_back('}');
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return *array_ == *other.array_;
    case Type::kObject:
      return *object_ == *other.object_;
  }
  return false;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Json> Parse() {
    SkipWhitespace();
    auto value = ParseValue();
    if (!value.ok()) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument(
        StrFormat("JSON parse error at offset %zu: %s", pos_, what.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<Json> ParseValue() {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        // Bounds the recursion: far deeper than any document the simulator
        // writes, far shallower than the stack allows.
        constexpr int kMaxDepth = 256;
        if (depth_ == kMaxDepth) return Fail("nesting too deep");
        ++depth_;
        Result<Json> nested = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return nested;
      }
      case '"': {
        auto s = ParseString();
        if (!s.ok()) return s.status();
        return Json(std::move(s).ValueUnsafe());
      }
      case 't':
        return ParseLiteral("true", Json(true));
      case 'f':
        return ParseLiteral("false", Json(false));
      case 'n':
        return ParseLiteral("null", Json());
      default:
        return ParseNumber();
    }
  }

  Result<Json> ParseLiteral(const char* lit, Json value) {
    const size_t len = std::string(lit).size();
    if (text_.compare(pos_, len, lit) != 0) return Fail("invalid literal");
    pos_ += len;
    return value;
  }

  Result<Json> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("invalid number");
    char* end = nullptr;
    const double v = std::strtod(text_.c_str() + start, &end);
    if (end != text_.c_str() + pos_) return Fail("invalid number");
    return Json(v);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Fail("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("unterminated escape");
        const char esc = text_[pos_++];
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
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
            unsigned int code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code += static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Fail("bad \\u escape");
              }
            }
            // Encode as UTF-8 (BMP only; adequate for our plan/result files).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Fail("unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  Result<Json> ParseArray() {
    Consume('[');
    Json arr = Json::Array();
    SkipWhitespace();
    if (Consume(']')) return arr;
    while (true) {
      SkipWhitespace();
      auto v = ParseValue();
      if (!v.ok()) return v;
      arr.Append(std::move(v).ValueUnsafe());
      SkipWhitespace();
      if (Consume(']')) return arr;
      if (!Consume(',')) return Fail("expected ',' or ']'");
    }
  }

  Result<Json> ParseObject() {
    Consume('{');
    Json obj = Json::Object();
    SkipWhitespace();
    if (Consume('}')) return obj;
    while (true) {
      SkipWhitespace();
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':'");
      SkipWhitespace();
      auto v = ParseValue();
      if (!v.ok()) return v;
      obj[std::move(key).ValueUnsafe()] = std::move(v).ValueUnsafe();
      SkipWhitespace();
      if (Consume('}')) return obj;
      if (!Consume(',')) return Fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< Arrays and objects open at pos_.
};

}  // namespace

Result<Json> Json::Parse(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace skyrise
