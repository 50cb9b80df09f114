#include <gtest/gtest.h>

#include "dataflow/value.h"

namespace cdibot::dataflow {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{7}).AsInt().value(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble().value(), 2.5);
  EXPECT_EQ(Value("hi").AsString().value(), "hi");
}

TEST(ValueTest, IntWidensToDouble) {
  EXPECT_DOUBLE_EQ(Value(int64_t{3}).AsDouble().value(), 3.0);
}

TEST(ValueTest, WrongTypeAccessFails) {
  EXPECT_TRUE(Value("x").AsInt().status().IsInvalidArgument());
  EXPECT_TRUE(Value("x").AsDouble().status().IsInvalidArgument());
  EXPECT_TRUE(Value(1.0).AsString().status().IsInvalidArgument());
  EXPECT_TRUE(Value().AsInt().status().IsInvalidArgument());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value("abc").ToString(), "abc");
}

TEST(ValueTest, OrderingWithinTypes) {
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value(1.5), Value(2.5));
  EXPECT_LT(Value("a"), Value("b"));
}

TEST(ValueTest, CrossNumericOrderingAndEquality) {
  EXPECT_LT(Value(int64_t{1}), Value(1.5));
  EXPECT_LT(Value(0.5), Value(int64_t{1}));
  EXPECT_TRUE(Value(int64_t{1}) == Value(1.0));
}

TEST(ValueTest, NullSortsFirstStringsLast) {
  EXPECT_LT(Value(), Value(int64_t{0}));
  EXPECT_LT(Value(int64_t{1000}), Value("a"));
  EXPECT_FALSE(Value() < Value());
  EXPECT_TRUE(Value() == Value());
}

}  // namespace
}  // namespace cdibot::dataflow
