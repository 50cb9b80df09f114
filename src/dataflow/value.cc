#include "dataflow/value.h"

#include "common/strings.h"

namespace cdibot::dataflow {

std::string_view ValueTypeToString(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

StatusOr<int64_t> Value::AsInt() const {
  if (type() != ValueType::kInt) {
    return Status::InvalidArgument("value is not an int");
  }
  return std::get<int64_t>(v_);
}

StatusOr<double> Value::AsDouble() const {
  if (type() == ValueType::kDouble) return std::get<double>(v_);
  if (type() == ValueType::kInt) {
    return static_cast<double>(std::get<int64_t>(v_));
  }
  return Status::InvalidArgument("value is not numeric");
}

StatusOr<std::string> Value::AsString() const {
  if (type() != ValueType::kString) {
    return Status::InvalidArgument("value is not a string");
  }
  return std::get<std::string>(v_);
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return StrFormat("%lld",
                       static_cast<long long>(std::get<int64_t>(v_)));
    case ValueType::kDouble:
      return StrFormat("%.6g", std::get<double>(v_));
    case ValueType::kString:
      return std::get<std::string>(v_);
  }
  return "?";
}

namespace {

// Numeric rank for cross-type ordering.
int TypeRank(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt:
    case ValueType::kDouble:
      return 1;
    case ValueType::kString:
      return 2;
  }
  return 3;
}

}  // namespace

bool operator<(const Value& a, const Value& b) {
  const int ra = TypeRank(a.type());
  const int rb = TypeRank(b.type());
  if (ra != rb) return ra < rb;
  switch (a.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt:
      if (b.type() == ValueType::kInt) {
        return a.int_unchecked() < b.int_unchecked();
      }
      return static_cast<double>(a.int_unchecked()) < b.double_unchecked();
    case ValueType::kDouble:
      if (b.type() == ValueType::kInt) {
        return a.double_unchecked() < static_cast<double>(b.int_unchecked());
      }
      return a.double_unchecked() < b.double_unchecked();
    case ValueType::kString:
      return a.string_unchecked() < b.string_unchecked();
  }
  return false;
}

bool operator==(const Value& a, const Value& b) {
  return !(a < b) && !(b < a);
}

}  // namespace cdibot::dataflow
