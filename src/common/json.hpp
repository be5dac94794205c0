// Minimal self-contained JSON value, parser and serializer.
//
// Json is the interchange type for quantum payloads, REST bodies, device
// specs, configuration files and telemetry. Integers and doubles are kept
// distinct so payload round-trips are exact. Object keys are stored sorted
// (std::map) so serialization is deterministic.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.hpp"

namespace qcenv::common {

class Json;

using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

/// A JSON value: null, bool, int64, double, string, array or object.
class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}            // NOLINT implicit
  Json(bool b) : value_(b) {}                          // NOLINT implicit
  Json(int v) : value_(static_cast<std::int64_t>(v)) {}  // NOLINT implicit
  Json(unsigned v) : value_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(long v) : value_(static_cast<std::int64_t>(v)) {}      // NOLINT
  Json(long long v) : value_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(unsigned long v) : value_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(unsigned long long v) : value_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(double v) : value_(v) {}                        // NOLINT implicit
  Json(const char* s) : value_(std::string(s)) {}      // NOLINT implicit
  Json(std::string s) : value_(std::move(s)) {}        // NOLINT implicit
  Json(std::string_view s) : value_(std::string(s)) {}  // NOLINT implicit
  Json(JsonArray a) : value_(std::move(a)) {}          // NOLINT implicit
  Json(JsonObject o) : value_(std::move(o)) {}         // NOLINT implicit

  static Json array() { return Json(JsonArray{}); }
  static Json array(std::initializer_list<Json> items) {
    return Json(JsonArray(items));
  }
  static Json object() { return Json(JsonObject{}); }
  static Json object(
      std::initializer_list<std::pair<const std::string, Json>> items) {
    return Json(JsonObject(items));
  }

  Type type() const noexcept { return static_cast<Type>(value_.index()); }
  bool is_null() const noexcept { return type() == Type::kNull; }
  bool is_bool() const noexcept { return type() == Type::kBool; }
  bool is_int() const noexcept { return type() == Type::kInt; }
  bool is_double() const noexcept { return type() == Type::kDouble; }
  bool is_number() const noexcept { return is_int() || is_double(); }
  bool is_string() const noexcept { return type() == Type::kString; }
  bool is_array() const noexcept { return type() == Type::kArray; }
  bool is_object() const noexcept { return type() == Type::kObject; }

  // Typed accessors; assert on type mismatch (callers validate first or use
  // the checked get_* helpers below).
  bool as_bool() const { return std::get<bool>(value_); }
  std::int64_t as_int() const {
    if (is_double()) return static_cast<std::int64_t>(std::get<double>(value_));
    return std::get<std::int64_t>(value_);
  }
  double as_double() const {
    if (is_int()) return static_cast<double>(std::get<std::int64_t>(value_));
    return std::get<double>(value_);
  }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const JsonArray& as_array() const { return std::get<JsonArray>(value_); }
  JsonArray& as_array() { return std::get<JsonArray>(value_); }
  const JsonObject& as_object() const { return std::get<JsonObject>(value_); }
  JsonObject& as_object() { return std::get<JsonObject>(value_); }

  /// Object access: operator[] inserts null on a missing key (object only).
  Json& operator[](const std::string& key);
  /// Const lookup: returns null Json when the key is absent or this is not
  /// an object (convenient for optional fields).
  const Json& at_or_null(const std::string& key) const;
  bool contains(const std::string& key) const;

  /// Checked field extraction with descriptive errors, for protocol parsing.
  Result<bool> get_bool(const std::string& key) const;
  Result<std::int64_t> get_int(const std::string& key) const;
  Result<double> get_double(const std::string& key) const;
  Result<std::string> get_string(const std::string& key) const;

  /// Array helpers.
  void push_back(Json value);
  std::size_t size() const;

  bool operator==(const Json& other) const { return value_ == other.value_; }

  /// Structural FNV-1a content hash: equal values hash equally (object
  /// keys are stored sorted, so order is canonical). Walks the tree
  /// directly — no serialization — which makes it cheap enough for
  /// content-addressing large payloads on hot paths.
  std::uint64_t hash() const noexcept;

  /// Serializes to compact JSON; `indent > 0` pretty-prints.
  std::string dump(int indent = 0) const;
  /// Appends the compact serialization to `out` (dump() without the
  /// intermediate string, for writers that stream many values).
  void dump_to(std::string& out) const { dump_to(out, 0, 0); }

  /// Parses a JSON document. Errors carry position information.
  static Result<Json> parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               JsonArray, JsonObject>
      value_;
};

}  // namespace qcenv::common
