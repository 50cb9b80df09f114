#include "common/placement.h"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

namespace cdibot {
namespace {

TEST(PlacementValueTest, SeparatelyBuiltEqualMapsAreEqual) {
  const std::map<std::string, std::string> dims = {{"region", "r0"},
                                                   {"az", "r0-az1"}};
  const Placement a = dims;
  const Placement b = dims;
  EXPECT_NE(&a.map(), &b.map());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, Placement({{"region", "r0"}, {"az", "r0-az2"}}));
  EXPECT_NE(a, Placement({{"region", "r0"}}));
}

TEST(PlacementValueTest, DefaultEqualsEmptyMap) {
  const Placement none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none, Placement(std::map<std::string, std::string>{}));
  EXPECT_TRUE(Placement(std::map<std::string, std::string>{}).empty());
  EXPECT_NE(none, Placement({{"region", "r0"}}));
  EXPECT_TRUE(none.map().empty());
  EXPECT_EQ(none.begin(), none.end());
}

TEST(PlacementValueTest, BraceInitAndMapLikeReads) {
  const Placement p = {{"region", "r1"}, {"cluster", "c3"}, {"nc", "nc7"}};
  EXPECT_EQ(p.size(), 3u);
  EXPECT_FALSE(p.empty());
  EXPECT_EQ(p.at("cluster"), "c3");
  EXPECT_EQ(p.count("nc"), 1u);
  EXPECT_EQ(p.count("az"), 0u);
  auto it = p.find("region");
  ASSERT_NE(it, p.end());
  EXPECT_EQ(it->second, "r1");
  // Iteration is the map's: sorted by key.
  std::string keys;
  for (const auto& [key, value] : p) keys += key + ",";
  EXPECT_EQ(keys, "cluster,nc,region,");
  EXPECT_EQ(p.map(), (std::map<std::string, std::string>{
                         {"region", "r1"}, {"cluster", "c3"}, {"nc", "nc7"}}));
}

TEST(PlacementValueTest, LookupsOnEmptyPlacement) {
  const Placement none;
  EXPECT_EQ(none.find("region"), none.end());
  EXPECT_EQ(none.count("region"), 0u);
  EXPECT_THROW((void)none.at("region"), std::out_of_range);
}

TEST(PlacementValueTest, CopiesShareStorage) {
  const Placement original = {{"region", "r0"}, {"type", "dedicated"}};
  const Placement copy = original;
  EXPECT_EQ(&copy.map(), &original.map());
  EXPECT_EQ(copy, original);

  // Reassigning a copy rebinds it; the original keeps its map.
  Placement rebound = copy;
  rebound = {{"region", "r9"}};
  EXPECT_NE(&rebound.map(), &original.map());
  EXPECT_EQ(original.at("region"), "r0");
  EXPECT_EQ(rebound.at("region"), "r9");
}

}  // namespace
}  // namespace cdibot
