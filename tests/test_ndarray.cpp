// Unit tests for Shape and NdArray.
#include <gtest/gtest.h>

#include "common/ndarray.hpp"

namespace ocelot {
namespace {

TEST(Shape, RankAndSize) {
  const Shape s1(10);
  EXPECT_EQ(s1.rank(), 1);
  EXPECT_EQ(s1.size(), 10u);

  const Shape s2(4, 5);
  EXPECT_EQ(s2.rank(), 2);
  EXPECT_EQ(s2.size(), 20u);

  const Shape s3(2, 3, 4);
  EXPECT_EQ(s3.rank(), 3);
  EXPECT_EQ(s3.size(), 24u);
  EXPECT_EQ(s3.dim(0), 2u);
  EXPECT_EQ(s3.dim(2), 4u);
}

TEST(Shape, ZeroDimensionThrows) {
  EXPECT_THROW(Shape(0), InvalidArgument);
  EXPECT_THROW(Shape(3, 0), InvalidArgument);
  EXPECT_THROW(Shape(1, 2, 0), InvalidArgument);
}

TEST(Shape, ElementCountOverflowThrows) {
  // 2^32 x 2^32 wraps a 64-bit size_t to 0; the constructor must refuse
  // it rather than hand out a shape whose size() lies.
  EXPECT_THROW(Shape(1ull << 32, 1ull << 32), InvalidArgument);
  EXPECT_THROW(Shape(1ull << 22, 1ull << 21, 1ull << 21), InvalidArgument);
  EXPECT_THROW(Shape(3, 1ull << 62, 2), InvalidArgument);
  // The largest products that still fit are accepted exactly.
  EXPECT_EQ(Shape(1ull << 32, (1ull << 32) - 1).size(),
            (1ull << 32) * ((1ull << 32) - 1));
  EXPECT_EQ(Shape(1ull << 21, 1ull << 21, 1ull << 21).size(), 1ull << 63);
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape(3, 4), Shape(3, 4));
  EXPECT_FALSE(Shape(3, 4) == Shape(4, 3));
  EXPECT_FALSE(Shape(12) == Shape(3, 4));
}

TEST(NdArray, ZeroInitialized) {
  const FloatArray a(Shape(5, 5));
  for (const float v : a.values()) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(a.byte_size(), 100u);
}

TEST(NdArray, IndexingMatchesRowMajorLayout) {
  FloatArray a(Shape(2, 3, 4));
  a.at(1, 2, 3) = 42.0f;
  EXPECT_EQ(a[(1 * 3 + 2) * 4 + 3], 42.0f);

  FloatArray b(Shape(3, 4));
  b.at(2, 1) = 7.0f;
  EXPECT_EQ(b[2 * 4 + 1], 7.0f);
}

TEST(NdArray, WrapExistingDataValidatesSize) {
  std::vector<double> vals(6, 1.0);
  const DoubleArray ok(Shape(2, 3), std::move(vals));
  EXPECT_EQ(ok.size(), 6u);

  std::vector<double> wrong(5, 1.0);
  EXPECT_THROW(DoubleArray(Shape(2, 3), std::move(wrong)), InvalidArgument);
}

}  // namespace
}  // namespace ocelot
