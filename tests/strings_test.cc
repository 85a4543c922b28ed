#include "src/common/strings.h"

#include <gtest/gtest.h>

namespace gluenail {
namespace {

TEST(StringsTest, StrCat) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(StrCat(), "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("gluenail", "glue"));
  EXPECT_FALSE(StartsWith("glue", "gluenail"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(StringsTest, Split) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, EscapeRoundTrip) {
  const std::string original = "it's a \\ test\nwith\ttabs";
  EXPECT_EQ(UnescapeQuoted(EscapeQuoted(original)), original);
  EXPECT_EQ(EscapeQuoted("a'b"), "a\\'b");
}

TEST(StringsTest, HashIsStable) {
  const char data[] = "glue";
  EXPECT_EQ(Fnv1a64(data, 4), Fnv1a64(data, 4));
  EXPECT_NE(Fnv1a64("a", 1), Fnv1a64("b", 1));
}

TEST(StringsTest, Fnv1a64KnownValues) {
  EXPECT_EQ(Fnv1a64("", 0), kFnv1a64Seed);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  // A seed continues a hash: the bytes may arrive in pieces.
  EXPECT_EQ(Fnv1a64("lue", 3, Fnv1a64("g", 1)), Fnv1a64("glue", 4));
}

TEST(StringsTest, FixedWidthIntegersAreLittleEndian) {
  std::string out;
  PutFixed32(&out, 0x01020304u);
  PutFixed64(&out, 0xf1f2f3f4f5f6f7f8ULL);
  ASSERT_EQ(out.size(), 12u);
  EXPECT_EQ(out.substr(0, 4), std::string("\x04\x03\x02\x01", 4));
  EXPECT_EQ(out.substr(4),
            std::string("\xf8\xf7\xf6\xf5\xf4\xf3\xf2\xf1", 8));
  EXPECT_EQ(DecodeFixed32(out.data()), 0x01020304u);
  EXPECT_EQ(DecodeFixed64(out.data() + 4), 0xf1f2f3f4f5f6f7f8ULL);
  // Bytes with the high bit set decode unsigned.
  std::string max;
  PutFixed32(&max, 0xffffffffu);
  EXPECT_EQ(DecodeFixed32(max.data()), 0xffffffffu);
}

TEST(StringsTest, HashCombineOrderSensitive) {
  EXPECT_NE(HashCombine(HashCombine(0, 1), 2),
            HashCombine(HashCombine(0, 2), 1));
}

}  // namespace
}  // namespace gluenail
