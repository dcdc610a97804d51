#ifndef HOLOCLEAN_UTIL_JSON_H_
#define HOLOCLEAN_UTIL_JSON_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "holoclean/util/status.h"

namespace holoclean {

/// A parsed JSON document node: the wire currency of the serving tier
/// (serve/protocol) and the stable report serializer (io/report_json).
///
/// Objects preserve insertion order (a vector of key/value pairs, not a
/// map), so a value serializes byte-identically to how it was built —
/// the property the golden-file report schema and the wire protocol's
/// deterministic framing both rely on. Member lookup is linear; protocol
/// objects are small (tens of keys), so this is never hot.
///
/// Numbers are held as doubles. Integers up to 2^53 round-trip exactly,
/// which covers every count/byte/id the library serializes; Dump() prints
/// integral doubles without a fractional part and everything else with
/// enough digits (%.17g) to round-trip bit-exactly.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Member = std::pair<std::string, JsonValue>;

  JsonValue() : type_(Type::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool v) {
    JsonValue j;
    j.type_ = Type::kBool;
    j.bool_ = v;
    return j;
  }
  static JsonValue Number(double v) {
    JsonValue j;
    j.type_ = Type::kNumber;
    j.number_ = v;
    return j;
  }
  static JsonValue Number(uint64_t v) {
    return Number(static_cast<double>(v));
  }
  static JsonValue Number(int v) { return Number(static_cast<double>(v)); }
  static JsonValue String(std::string v) {
    JsonValue j;
    j.type_ = Type::kString;
    j.string_ = std::move(v);
    return j;
  }
  static JsonValue Array() {
    JsonValue j;
    j.type_ = Type::kArray;
    return j;
  }
  static JsonValue Object() {
    JsonValue j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; reading the wrong alternative returns the type's
  /// zero value (protocol code validates with the predicates above).
  bool AsBool() const { return is_bool() ? bool_ : false; }
  double AsDouble() const { return is_number() ? number_ : 0.0; }
  /// The number truncated toward zero and saturated to the int64_t range;
  /// NaN reads as 0, so every double has a defined result. Wire fields
  /// validate their range on the double instead (serve/protocol).
  int64_t AsInt() const {
    if (!is_number() || std::isnan(number_)) return 0;
    if (number_ >= 9223372036854775808.0) {
      return std::numeric_limits<int64_t>::max();
    }
    if (number_ <= -9223372036854775808.0) {
      return std::numeric_limits<int64_t>::min();
    }
    return static_cast<int64_t>(number_);
  }
  const std::string& AsString() const {
    static const std::string kEmpty;
    return is_string() ? string_ : kEmpty;
  }

  // --- Arrays --------------------------------------------------------------

  const std::vector<JsonValue>& items() const { return items_; }
  void Append(JsonValue v) { items_.push_back(std::move(v)); }
  size_t size() const {
    return is_array() ? items_.size() : is_object() ? members_.size() : 0;
  }

  // --- Objects -------------------------------------------------------------

  const std::vector<Member>& members() const { return members_; }

  /// Sets (or replaces) a member, keeping first-insertion order.
  void Set(std::string_view key, JsonValue v);

  /// Member value by key, or nullptr when absent (or not an object).
  const JsonValue* Find(std::string_view key) const;

  /// Convenience typed getters with defaults for protocol parsing.
  std::string GetString(std::string_view key,
                        const std::string& fallback = "") const;
  double GetDouble(std::string_view key, double fallback = 0.0) const;
  int64_t GetInt(std::string_view key, int64_t fallback = 0) const;
  bool GetBool(std::string_view key, bool fallback = false) const;

  // --- Serialization -------------------------------------------------------

  /// Compact deterministic serialization (no whitespace). Object members
  /// print in insertion order; doubles print integrally when integral,
  /// %.17g otherwise — the same input always yields the same bytes.
  std::string Dump() const;
  void DumpTo(std::string* out) const;

  /// Parses a complete JSON document (trailing garbage is an error).
  /// Depth is bounded (kMaxDepth) so a hostile wire payload cannot blow
  /// the stack.
  static Result<JsonValue> Parse(std::string_view text);

  /// Escapes a string into a JSON string literal, with surrounding quotes.
  static void EscapeTo(std::string_view raw, std::string* out);

 private:
  static constexpr int kMaxDepth = 64;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

}  // namespace holoclean

#endif  // HOLOCLEAN_UTIL_JSON_H_
