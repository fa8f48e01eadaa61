#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

/// \file json.h
/// Minimal JSON document model with parser and serializer. Used for physical
/// query plans (coordinator protocol) and experiment result files, matching
/// the paper's JSON-based interfaces. JsonReader, the lexer under
/// Json::Parse, also reads COF footers without building a tree; the number
/// and string writers below are shared with the COF footer writer.

namespace skyrise {

class Json;
using JsonArray = std::vector<Json>;
/// Transparent comparator: keyed lookups take a std::string_view.
using JsonObject = std::map<std::string, Json, std::less<>>;

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}            // NOLINT
  Json(double n) : type_(Type::kNumber), number_(n) {}      // NOLINT
  Json(int n) : Json(static_cast<double>(n)) {}             // NOLINT
  Json(int64_t n) : Json(static_cast<double>(n)) {}         // NOLINT
  Json(uint64_t n) : Json(static_cast<double>(n)) {}        // NOLINT
  Json(const char* s) : type_(Type::kString), string_(s) {} // NOLINT
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  Json(JsonArray a);   // NOLINT
  Json(JsonObject o);  // NOLINT

  static Json Array() { return Json(JsonArray{}); }
  static Json Object() { return Json(JsonObject{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool() const;
  double AsDouble() const;
  int64_t AsInt() const;
  const std::string& AsString() const;
  const JsonArray& AsArray() const;
  JsonArray& AsArray();
  const JsonObject& AsObject() const;
  JsonObject& AsObject();

  /// Object access. `Get` returns null JSON for a missing key.
  const Json& Get(std::string_view key) const;
  bool Has(std::string_view key) const;
  Json& operator[](const std::string& key);

  /// Typed object accessors with defaults for optional fields.
  int64_t GetInt(std::string_view key, int64_t def = 0) const;
  double GetDouble(std::string_view key, double def = 0.0) const;
  std::string GetString(std::string_view key,
                        const std::string& def = "") const;
  bool GetBool(std::string_view key, bool def = false) const;

  /// Array append.
  void Append(Json value);
  size_t size() const;

  /// Serializes; `indent` < 0 produces compact output.
  std::string Dump(int indent = -1) const;

  /// Parses a JSON document.
  [[nodiscard]] static Result<Json> Parse(std::string_view text);

  bool operator==(const Json& other) const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
};

/// Appends `n` as Json::Dump writes a number: an integral value below 1e15
/// in magnitude as an integer (printf `%lld`), any other value with 17
/// significant digits (`%.17g`).
void AppendJsonNumber(double n, std::string* out);

/// Appends `s` as Json::Dump writes a string: quoted, with `"`, `\`, and
/// control characters escaped.
void AppendJsonString(std::string_view s, std::string* out);

/// Pull reader over JSON text, one token at a time: the lexer behind
/// Json::Parse, and the COF footer reader's, so both follow one set of
/// string, number and escape rules. Every call skips leading whitespace.
/// Errors are InvalidArgument "JSON parse error at offset N: ...". At most
/// 256 arrays and objects may be open at once.
///
/// Containers are read as Begin*, then Next* until it reports no more:
///
///   SKYRISE_RETURN_IF_ERROR(reader.BeginObject());
///   while (true) {
///     SKYRISE_RETURN_IF_ERROR(reader.NextMember(&more, &key));
///     if (!more) break;
///     // Read or Skip the member's value.
///   }
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// The type of the next value, without consuming it.
  [[nodiscard]] Status Peek(Json::Type* type);
  [[nodiscard]] Status ReadNull();
  [[nodiscard]] Status ReadBool(bool* out);
  [[nodiscard]] Status ReadNumber(double* out);
  /// The decoded string. `out` views the text, or, when the string has
  /// escapes, a buffer of the reader's; it is valid until the next call.
  [[nodiscard]] Status ReadString(std::string_view* out);

  /// Consume the opening bracket of an array or object.
  [[nodiscard]] Status BeginArray();
  [[nodiscard]] Status BeginObject();
  /// Sets `more` when another element follows, else consumes the `]`.
  [[nodiscard]] Status NextElement(bool* more);
  /// Sets `more` and reads the next member's key and colon into `key` (as
  /// ReadString does), or consumes the `}`.
  [[nodiscard]] Status NextMember(bool* more, std::string_view* key);

  /// Consumes one value of any type.
  [[nodiscard]] Status Skip();
  /// Succeeds when only whitespace remains.
  [[nodiscard]] Status Finish();

 private:
  [[nodiscard]] Status Fail(const char* what) const;
  void SkipWhitespace();
  [[nodiscard]] Status Open(char bracket);
  /// Moves past `,` or the closing `close`; the shared part of Next*.
  [[nodiscard]] Status Advance(char close, bool* more);

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;           ///< Arrays and objects open at pos_.
  bool just_opened_ = false;  ///< No element read since the last Begin*.
  std::string scratch_;     ///< Decoded strings that had escapes.
};

}  // namespace skyrise
