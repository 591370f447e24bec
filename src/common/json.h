// The repository's one JSON value model and codec.
//
// Every JSON document the program writes goes through Json::Dump(): the
// serve line protocol, the --metrics-json document, `vadalink lint --json`
// and the bench documents. One writer means one string escape and one
// number format:
//  * object keys are sorted at every level, so a document is byte-stable
//    for a given value;
//  * integers print exactly; doubles print in their shortest round-trip
//    form (std::to_chars), and non-finite doubles print as null, since
//    JSON has no NaN or Inf.
//
// The parser is deliberately small (no streaming, no comments, no NaN/Inf)
// and strict (trailing garbage after the document is an error), because
// every malformed byte a serve client can send must surface as a
// structured parse error, never as UB or a partial value.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace vadalink {

/// A JSON document node: null, bool, int64, double, string, array, object.
/// Ints are kept distinct from doubles so node ids survive round trips
/// exactly. Plain value semantics: copies are deep and independent.
class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  // std::vector is the one standard container guaranteed to work with an
  // incomplete element type, hence the sorted pair-vector object
  // representation instead of std::map.
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : type_(Type::kNull) {}
  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Int(int64_t v);
  static Json Double(double v);
  static Json Str(std::string s);
  static Json MakeArray();
  static Json MakeObject();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_double() const { return type_ == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool() const { return bool_; }
  int64_t AsInt() const {
    return is_double() ? static_cast<int64_t>(dbl_) : int_;
  }
  double AsDouble() const { return is_int() ? static_cast<double>(int_) : dbl_; }
  const std::string& AsString() const { return str_; }
  const Array& AsArray() const { return arr_; }
  Array& AsArray() { return arr_; }
  const Object& AsObject() const { return obj_; }

  /// Object field lookup; nullptr when absent or this is not an object.
  const Json* Find(const std::string& key) const;
  /// Sets a field on an object (insert keeps keys sorted; an existing key
  /// is overwritten). No-op on non-objects.
  void Set(const std::string& key, Json value);
  /// Appends to an array. No-op on non-arrays.
  void Append(Json value);

  size_t size() const {
    return is_array() ? arr_.size() : (is_object() ? obj_.size() : 0);
  }

  /// Serializes to compact JSON (sorted object keys, no whitespace).
  std::string Dump() const;

  /// Parses exactly one JSON document; trailing non-whitespace is an
  /// error. Error messages carry the byte offset. Depth-limited so hostile
  /// input cannot blow the stack.
  static Result<Json> Parse(std::string_view text);

 private:
  Type type_;
  bool bool_ = false;
  int64_t int_ = 0;
  double dbl_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Writes doc.Dump() plus one newline to `path` (truncating it).
Status WriteJsonFile(const std::string& path, const Json& doc);

}  // namespace vadalink
