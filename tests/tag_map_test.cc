// Tests for the private tag mapping (§4.1 Fig. 1(b)).
#include <gtest/gtest.h>

#include "core/tag_map.h"
#include "xml/xml_generator.h"

namespace polysse {
namespace {

DeterministicPrf Prf() { return DeterministicPrf::FromString("tagmap-test"); }

TEST(TagMapTest, Fig1ExplicitMapping) {
  TagMap map = TagMap::FromExplicit(Fig1TagMapping()).value();
  EXPECT_EQ(map.Value("order").value(), 1u);
  EXPECT_EQ(map.Value("client").value(), 2u);
  EXPECT_EQ(map.Value("customers").value(), 3u);
  EXPECT_EQ(map.Value("name").value(), 4u);
  EXPECT_EQ(map.Tag(2).value(), "client");
  EXPECT_EQ(map.size(), 4u);
  EXPECT_EQ(map.max_value(), 4u);
}

TEST(TagMapTest, UnknownTagIsNotFound) {
  TagMap map = TagMap::FromExplicit(Fig1TagMapping()).value();
  EXPECT_EQ(map.Value("absent").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(map.Tag(99).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(map.Contains("absent"));
  EXPECT_TRUE(map.Contains("client"));
}

TEST(TagMapTest, ExplicitRejectsDuplicatesAndZero) {
  EXPECT_FALSE(TagMap::FromExplicit({{"a", 1}, {"a", 2}}).ok());
  EXPECT_FALSE(TagMap::FromExplicit({{"a", 1}, {"b", 1}}).ok());
  EXPECT_FALSE(TagMap::FromExplicit({{"a", 0}}).ok());
}

TEST(TagMapTest, KeyedRandomIsInjectiveAndDeterministic) {
  std::vector<std::string> tags;
  for (int i = 0; i < 50; ++i) {
    // Built with += rather than "t" + to_string(...): the operator+
    // rvalue-insert path trips a GCC 12 -Wrestrict false positive at -O3.
    std::string tag = "t";
    tag += std::to_string(i);
    tags.push_back(tag);
  }
  TagMap::Options opt;
  opt.max_value = 99;
  TagMap a = TagMap::Build(tags, opt, Prf()).value();
  TagMap b = TagMap::Build(tags, opt, Prf()).value();
  std::set<uint64_t> values;
  for (const auto& tag : tags) {
    uint64_t v = a.Value(tag).value();
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 99u);
    EXPECT_TRUE(values.insert(v).second) << "duplicate value " << v;
    EXPECT_EQ(b.Value(tag).value(), v);  // same PRF -> same map
  }
  // A different seed should give a different assignment (w.h.p.).
  TagMap c =
      TagMap::Build(tags, opt, DeterministicPrf::FromString("other")).value();
  int diffs = 0;
  for (const auto& tag : tags) diffs += c.Value(tag).value() != a.Value(tag).value();
  EXPECT_GT(diffs, 10);
}

TEST(TagMapTest, AllowedValuesWhitelist) {
  TagMap::Options opt;
  opt.allowed_values = {4, 6, 10};
  TagMap map = TagMap::Build({"a", "b", "c"}, opt, Prf()).value();
  for (const char* t : {"a", "b", "c"}) {
    uint64_t v = map.Value(t).value();
    EXPECT_TRUE(v == 4 || v == 6 || v == 10) << v;
  }
}

TEST(TagMapTest, CapacityEnforced) {
  TagMap::Options opt;
  opt.max_value = 2;
  EXPECT_FALSE(TagMap::Build({"a", "b", "c"}, opt, Prf()).ok());
  opt.max_value = 3;
  EXPECT_TRUE(TagMap::Build({"a", "b", "c"}, opt, Prf()).ok());
  TagMap::Options wl;
  wl.allowed_values = {5};
  EXPECT_FALSE(TagMap::Build({"a", "b"}, wl, Prf()).ok());
}

TEST(TagMapTest, BuildRejectsDuplicateTags) {
  TagMap::Options opt;
  opt.max_value = 100;
  EXPECT_FALSE(TagMap::Build({"a", "a"}, opt, Prf()).ok());
}

TEST(TagMapTest, EntriesSortedByValue) {
  TagMap map = TagMap::FromExplicit({{"z", 3}, {"a", 1}, {"m", 2}}).value();
  auto entries = map.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, "a");
  EXPECT_EQ(entries[1].first, "m");
  EXPECT_EQ(entries[2].first, "z");
}

TEST(TagMapTest, SerializeRoundTrip) {
  std::vector<std::string> tags = {"alpha", "beta", "gamma", "delta"};
  TagMap::Options opt;
  opt.max_value = 1000;
  TagMap map = TagMap::Build(tags, opt, Prf()).value();
  ByteWriter w;
  map.Serialize(&w);
  ByteReader r(w.span());
  TagMap back = TagMap::Deserialize(&r).value();
  EXPECT_EQ(back.size(), map.size());
  EXPECT_EQ(back.max_value(), map.max_value());
  for (const auto& t : tags)
    EXPECT_EQ(back.Value(t).value(), map.Value(t).value());
  EXPECT_EQ(map.SerializedSize(), w.size());
}

TEST(TagMapTest, DeserializeRejectsCorruption) {
  ByteWriter w;
  w.PutVarint64(10);  // max_value
  w.PutVarint64(2);   // two entries
  w.PutLengthPrefixedString("a");
  w.PutVarint64(0);  // zero value: invalid
  ByteReader r(w.span());
  EXPECT_FALSE(TagMap::Deserialize(&r).ok());
}

}  // namespace
}  // namespace polysse
