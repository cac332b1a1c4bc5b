#ifndef Q_RELATIONAL_VALUE_H_
#define Q_RELATIONAL_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>

namespace q::relational {

enum class ValueType { kNull = 0, kInt64 = 1, kDouble = 2, kString = 3 };

std::string_view ValueTypeToString(ValueType type);

// A typed database cell. Small tagged union; strings own their storage.
class Value {
 public:
  Value() : repr_(std::monostate{}) {}
  explicit Value(std::int64_t v) : repr_(v) {}
  explicit Value(double v) : repr_(v) {}
  explicit Value(std::string v) : repr_(std::move(v)) {}
  explicit Value(const char* v) : repr_(std::string(v)) {}

  static Value Null() { return Value(); }

  ValueType type() const {
    return static_cast<ValueType>(repr_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }

  // Preconditions: matching type.
  std::int64_t AsInt64() const { return std::get<std::int64_t>(repr_); }
  double AsDouble() const { return std::get<double>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }

  // Size of the caller buffer CanonicalText formats numbers into; holds
  // any int64 and any "%.6g" double.
  static constexpr std::size_t kTextBufferSize = 32;

  // Canonical textual form used for indexing, joining by value overlap and
  // display. Integers render without decimals, doubles as "%.6g"; null
  // renders as "". Allocation-free: numbers are formatted into `buf`,
  // strings are viewed in place. The view lives as long as both this
  // value and `buf`.
  std::string_view CanonicalText(char (&buf)[kTextBufferSize]) const;

  // CanonicalText as an owned string.
  std::string ToText() const;

  bool operator==(const Value& other) const { return repr_ == other.repr_; }
  bool operator!=(const Value& other) const { return !(*this == other); }

  // Total order across types (by type tag first) so values can key maps.
  bool operator<(const Value& other) const;

  std::size_t Hash() const;

 private:
  std::variant<std::monostate, std::int64_t, double, std::string> repr_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

struct ValueHash {
  std::size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace q::relational

#endif  // Q_RELATIONAL_VALUE_H_
