#include "relational/value.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace q::relational {

std::string_view ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

std::string_view Value::CanonicalText(char (&buf)[kTextBufferSize]) const {
  switch (type()) {
    case ValueType::kNull:
      return {};
    case ValueType::kInt64: {
      char* end = std::to_chars(buf, buf + kTextBufferSize, AsInt64()).ptr;
      return std::string_view(buf, static_cast<std::size_t>(end - buf));
    }
    case ValueType::kDouble: {
      int n = std::snprintf(buf, kTextBufferSize, "%.6g", AsDouble());
      return std::string_view(buf, static_cast<std::size_t>(n));
    }
    case ValueType::kString:
      return AsString();
  }
  return {};
}

std::string Value::ToText() const {
  char buf[kTextBufferSize];
  return std::string(CanonicalText(buf));
}

bool Value::operator<(const Value& other) const {
  if (type() != other.type()) {
    return static_cast<int>(type()) < static_cast<int>(other.type());
  }
  switch (type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt64:
      return AsInt64() < other.AsInt64();
    case ValueType::kDouble:
      return AsDouble() < other.AsDouble();
    case ValueType::kString:
      return AsString() < other.AsString();
  }
  return false;
}

std::size_t Value::Hash() const {
  // Mix the type tag so Value(0) and Value("") hash differently.
  std::size_t seed = static_cast<std::size_t>(type()) * 0x9E3779B97F4A7C15ULL;
  switch (type()) {
    case ValueType::kNull:
      return seed;
    case ValueType::kInt64:
      return seed ^ std::hash<std::int64_t>{}(AsInt64());
    case ValueType::kDouble:
      return seed ^ std::hash<double>{}(AsDouble());
    case ValueType::kString:
      return seed ^ std::hash<std::string>{}(AsString());
  }
  return seed;
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  if (v.is_null()) return os << "NULL";
  return os << v.ToText();
}

}  // namespace q::relational
