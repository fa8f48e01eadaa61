#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

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

const Json& Json::Get(std::string_view key) const {
  static const Json kNull;
  if (!is_object()) return kNull;
  auto it = object_->find(key);
  return it == object_->end() ? kNull : it->second;
}

bool Json::Has(std::string_view key) const {
  return is_object() && object_->find(key) != object_->end();
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) {
    type_ = Type::kObject;
    object_ = std::make_shared<JsonObject>();
  }
  SKYRISE_CHECK(is_object());
  return (*object_)[key];
}

int64_t Json::GetInt(std::string_view key, int64_t def) const {
  const Json& v = Get(key);
  return v.is_number() ? v.AsInt() : def;
}
double Json::GetDouble(std::string_view key, double def) const {
  const Json& v = Get(key);
  return v.is_number() ? v.AsDouble() : def;
}
std::string Json::GetString(std::string_view key,
                            const std::string& def) const {
  const Json& v = Get(key);
  return v.is_string() ? v.AsString() : def;
}
bool Json::GetBool(std::string_view key, bool def) const {
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

void AppendJsonString(std::string_view s, std::string* out) {
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
          // "\u00XX", lower-case hex.
          *out += "\\u00";
          out->push_back("0123456789abcdef"[(c >> 4) & 0xF]);
          out->push_back("0123456789abcdef"[c & 0xF]);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(double n, std::string* out) {
  if (!std::isfinite(n)) {
    *out += StrFormat("%.17g", n);
    return;
  }
  // std::to_chars writes what printf's %lld and %.17g write, without the
  // format string and the temporary string.
  char buffer[32];
  const std::to_chars_result written =
      n == std::floor(n) && std::fabs(n) < 1e15
          ? std::to_chars(buffer, buffer + sizeof(buffer),
                          static_cast<long long>(n))
          : std::to_chars(buffer, buffer + sizeof(buffer), n,
                          std::chars_format::general, 17);
  out->append(buffer, written.ptr);
}

namespace {

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
      AppendJsonNumber(number_, out);
      break;
    case Type::kString:
      AppendJsonString(string_, out);
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
        AppendJsonString(k, out);
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

Status JsonReader::Fail(const char* what) const {
  return Status::InvalidArgument(
      StrFormat("JSON parse error at offset %zu: %s", pos_, what));
}

void JsonReader::SkipWhitespace() {
  while (pos_ < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[pos_]))) {
    ++pos_;
  }
}

Status JsonReader::Peek(Json::Type* type) {
  SkipWhitespace();
  if (pos_ >= text_.size()) return Fail("unexpected end of input");
  switch (text_[pos_]) {
    case '{':
      *type = Json::Type::kObject;
      break;
    case '[':
      *type = Json::Type::kArray;
      break;
    case '"':
      *type = Json::Type::kString;
      break;
    case 't':
    case 'f':
      *type = Json::Type::kBool;
      break;
    case 'n':
      *type = Json::Type::kNull;
      break;
    default:
      *type = Json::Type::kNumber;  // ReadNumber rejects what is not one.
  }
  return Status::OK();
}

Status JsonReader::ReadNull() {
  SkipWhitespace();
  if (text_.substr(pos_, 4) != "null") return Fail("invalid literal");
  pos_ += 4;
  return Status::OK();
}

Status JsonReader::ReadBool(bool* out) {
  SkipWhitespace();
  const std::string_view rest = text_.substr(pos_);
  if (rest.substr(0, 4) == "true") {
    *out = true;
    pos_ += 4;
  } else if (rest.substr(0, 5) == "false") {
    *out = false;
    pos_ += 5;
  } else {
    return Fail("invalid literal");
  }
  return Status::OK();
}

Status JsonReader::ReadNumber(double* out) {
  SkipWhitespace();
  const size_t start = pos_;
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  bool integral = true;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c >= '0' && c <= '9') {
      ++pos_;
    } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
      integral = false;
      ++pos_;
    } else {
      break;
    }
  }
  if (pos_ == start) return Fail("invalid number");
  const std::string_view span = text_.substr(start, pos_ - start);
  const bool negative = span[0] == '-';
  const size_t digits = span.size() - (negative ? 1 : 0);
  if (integral && digits > 0 && digits <= 15) {
    // Exact in a double, as strtod would return it.
    uint64_t value = 0;
    for (char c : span.substr(negative ? 1 : 0)) {
      value = value * 10 + static_cast<uint64_t>(c - '0');
    }
    *out = negative ? -static_cast<double>(value) : static_cast<double>(value);
    return Status::OK();
  }
  // strtod needs a terminated string; the text may be a view into a larger
  // buffer.
  char buffer[64];
  std::string long_span;
  const char* terminated = buffer;
  if (span.size() < sizeof(buffer)) {
    span.copy(buffer, span.size());
    buffer[span.size()] = '\0';
  } else {
    long_span.assign(span);
    terminated = long_span.c_str();
  }
  char* end = nullptr;
  const double value = std::strtod(terminated, &end);
  if (end != terminated + span.size()) return Fail("invalid number");
  *out = value;
  return Status::OK();
}

Status JsonReader::ReadString(std::string_view* out) {
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != '"') return Fail("expected '\"'");
  const size_t start = ++pos_;
  // Without escapes the string is a view of the text.
  while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
    ++pos_;
  }
  if (pos_ < text_.size() && text_[pos_] == '"') {
    *out = text_.substr(start, pos_ - start);
    ++pos_;
    return Status::OK();
  }
  scratch_.assign(text_.substr(start, pos_ - start));
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (c == '"') {
      *out = scratch_;
      return Status::OK();
    }
    if (c != '\\') {
      scratch_.push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) return Fail("unterminated escape");
    const char esc = text_[pos_++];
    switch (esc) {
      case '"':
        scratch_.push_back('"');
        break;
      case '\\':
        scratch_.push_back('\\');
        break;
      case '/':
        scratch_.push_back('/');
        break;
      case 'n':
        scratch_.push_back('\n');
        break;
      case 'r':
        scratch_.push_back('\r');
        break;
      case 't':
        scratch_.push_back('\t');
        break;
      case 'b':
        scratch_.push_back('\b');
        break;
      case 'f':
        scratch_.push_back('\f');
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
          scratch_.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          scratch_.push_back(static_cast<char>(0xC0 | (code >> 6)));
          scratch_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          scratch_.push_back(static_cast<char>(0xE0 | (code >> 12)));
          scratch_.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          scratch_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default:
        return Fail("unknown escape");
    }
  }
  return Fail("unterminated string");
}

Status JsonReader::Open(char bracket) {
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != bracket) {
    return Fail(bracket == '[' ? "expected '['" : "expected '{'");
  }
  // Bounds the recursion of tree builders and Skip: far deeper than any
  // document the simulator writes, far shallower than the stack allows.
  constexpr int kMaxDepth = 256;
  if (depth_ == kMaxDepth) return Fail("nesting too deep");
  ++depth_;
  ++pos_;
  just_opened_ = true;
  return Status::OK();
}

Status JsonReader::BeginArray() { return Open('['); }
Status JsonReader::BeginObject() { return Open('{'); }

Status JsonReader::Advance(char close, bool* more) {
  SkipWhitespace();
  const bool opened = just_opened_;
  just_opened_ = false;
  if (pos_ < text_.size() && text_[pos_] == close) {
    ++pos_;
    --depth_;
    *more = false;
    return Status::OK();
  }
  *more = true;
  if (opened) return Status::OK();
  if (pos_ < text_.size() && text_[pos_] == ',') {
    ++pos_;
    return Status::OK();
  }
  return Fail(close == ']' ? "expected ',' or ']'" : "expected ',' or '}'");
}

Status JsonReader::NextElement(bool* more) { return Advance(']', more); }

Status JsonReader::NextMember(bool* more, std::string_view* key) {
  SKYRISE_RETURN_IF_ERROR(Advance('}', more));
  if (!*more) return Status::OK();
  SKYRISE_RETURN_IF_ERROR(ReadString(key));
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != ':') return Fail("expected ':'");
  ++pos_;
  return Status::OK();
}

Status JsonReader::Skip() {
  Json::Type type;
  SKYRISE_RETURN_IF_ERROR(Peek(&type));
  bool more = false;
  switch (type) {
    case Json::Type::kNull:
      return ReadNull();
    case Json::Type::kBool: {
      bool value;
      return ReadBool(&value);
    }
    case Json::Type::kNumber: {
      double value;
      return ReadNumber(&value);
    }
    case Json::Type::kString: {
      std::string_view value;
      return ReadString(&value);
    }
    case Json::Type::kArray:
      SKYRISE_RETURN_IF_ERROR(BeginArray());
      while (true) {
        SKYRISE_RETURN_IF_ERROR(NextElement(&more));
        if (!more) return Status::OK();
        SKYRISE_RETURN_IF_ERROR(Skip());
      }
    case Json::Type::kObject: {
      SKYRISE_RETURN_IF_ERROR(BeginObject());
      std::string_view key;
      while (true) {
        SKYRISE_RETURN_IF_ERROR(NextMember(&more, &key));
        if (!more) return Status::OK();
        SKYRISE_RETURN_IF_ERROR(Skip());
      }
    }
  }
  return Status::OK();
}

Status JsonReader::Finish() {
  SkipWhitespace();
  if (pos_ != text_.size()) {
    return Fail("trailing characters after JSON document");
  }
  return Status::OK();
}

namespace {

/// Reads the next value into `out` as a tree.
Status ReadTree(JsonReader* reader, Json* out) {
  Json::Type type;
  SKYRISE_RETURN_IF_ERROR(reader->Peek(&type));
  bool more = false;
  switch (type) {
    case Json::Type::kNull:
      *out = Json();
      return reader->ReadNull();
    case Json::Type::kBool: {
      bool value = false;
      SKYRISE_RETURN_IF_ERROR(reader->ReadBool(&value));
      *out = Json(value);
      return Status::OK();
    }
    case Json::Type::kNumber: {
      double value = 0;
      SKYRISE_RETURN_IF_ERROR(reader->ReadNumber(&value));
      *out = Json(value);
      return Status::OK();
    }
    case Json::Type::kString: {
      std::string_view value;
      SKYRISE_RETURN_IF_ERROR(reader->ReadString(&value));
      *out = Json(std::string(value));
      return Status::OK();
    }
    case Json::Type::kArray: {
      SKYRISE_RETURN_IF_ERROR(reader->BeginArray());
      JsonArray items;
      while (true) {
        SKYRISE_RETURN_IF_ERROR(reader->NextElement(&more));
        if (!more) break;
        items.emplace_back();
        SKYRISE_RETURN_IF_ERROR(ReadTree(reader, &items.back()));
      }
      *out = Json(std::move(items));
      return Status::OK();
    }
    case Json::Type::kObject: {
      SKYRISE_RETURN_IF_ERROR(reader->BeginObject());
      JsonObject members;
      std::string_view key;
      while (true) {
        SKYRISE_RETURN_IF_ERROR(reader->NextMember(&more, &key));
        if (!more) break;
        // A repeated key keeps its last value.
        Json& value = members[std::string(key)];
        SKYRISE_RETURN_IF_ERROR(ReadTree(reader, &value));
      }
      *out = Json(std::move(members));
      return Status::OK();
    }
  }
  return Status::OK();
}

}  // namespace

Result<Json> Json::Parse(std::string_view text) {
  JsonReader reader(text);
  Json value;
  SKYRISE_RETURN_IF_ERROR(ReadTree(&reader, &value));
  SKYRISE_RETURN_IF_ERROR(reader.Finish());
  return value;
}

}  // namespace skyrise
