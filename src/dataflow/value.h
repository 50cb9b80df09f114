#ifndef CDIBOT_DATAFLOW_VALUE_H_
#define CDIBOT_DATAFLOW_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/statusor.h"

namespace cdibot::dataflow {

/// Column types of a dataflow::Table.
enum class ValueType : int { kNull = 0, kInt = 1, kDouble = 2, kString = 3 };

std::string_view ValueTypeToString(ValueType t);

/// A dynamically-typed cell. Values are small and copyable; strings own
/// their storage.
class Value {
 public:
  /// Null value.
  Value() : v_(std::monostate{}) {}
  explicit Value(int64_t v) : v_(v) {}
  explicit Value(double v) : v_(v) {}
  explicit Value(std::string v) : v_(std::move(v)) {}
  explicit Value(const char* v) : v_(std::string(v)) {}

  ValueType type() const {
    switch (v_.index()) {
      case 0:
        return ValueType::kNull;
      case 1:
        return ValueType::kInt;
      case 2:
        return ValueType::kDouble;
      default:
        return ValueType::kString;
    }
  }

  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors; wrong-type access returns InvalidArgument.
  StatusOr<int64_t> AsInt() const;
  StatusOr<double> AsDouble() const;  // ints widen to double
  StatusOr<std::string> AsString() const;

  /// Unchecked accessors for hot paths; caller must know the type.
  int64_t int_unchecked() const { return std::get<int64_t>(v_); }
  double double_unchecked() const { return std::get<double>(v_); }
  const std::string& string_unchecked() const {
    return std::get<std::string>(v_);
  }

  /// Rendering for table printers; nulls render as "NULL".
  std::string ToString() const;

  /// Total ordering: null < int/double (numeric order) < string.
  friend bool operator<(const Value& a, const Value& b);
  friend bool operator==(const Value& a, const Value& b);

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

}  // namespace cdibot::dataflow

#endif  // CDIBOT_DATAFLOW_VALUE_H_
