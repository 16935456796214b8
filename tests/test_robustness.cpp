// Robustness / failure-injection tests: non-finite inputs and
// adversarially corrupted blobs. The contract: corrupted input either
// throws a typed error or decodes to *something* — never crashes or
// hangs — and non-finite samples survive round trips verbatim.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <tuple>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "compressor/compressor.hpp"

namespace ocelot {
namespace {

FloatArray masked_field(std::uint64_t seed) {
  // Scientific fields often carry NaN fill values over masked regions
  // (e.g., ocean points in land-only fields).
  FloatArray data(Shape(24, 24));
  Rng rng(seed);
  for (float& v : data.values()) {
    v = static_cast<float>(std::sin(rng.uniform(0.0, 6.28)));
  }
  data.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
  data.at(5, 7) = std::numeric_limits<float>::quiet_NaN();
  data.at(12, 3) = std::numeric_limits<float>::infinity();
  data.at(20, 20) = -std::numeric_limits<float>::infinity();
  return data;
}

class NonFiniteSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(NonFiniteSweep, NonFiniteValuesSurviveVerbatim) {
  const FloatArray data = masked_field(11);
  CompressionConfig config;
  config.backend = GetParam();
  config.eb = 1e-3;

  const Bytes blob = compress(data, config);
  const FloatArray recon = decompress<float>(blob);
  EXPECT_TRUE(std::isnan(recon.at(0, 0)));
  EXPECT_TRUE(std::isnan(recon.at(5, 7)));
  EXPECT_TRUE(std::isinf(recon.at(12, 3)));
  EXPECT_TRUE(std::isinf(recon.at(20, 20)));

  // Finite points near the NaNs must still respect the bound.
  std::size_t checked = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (std::isfinite(data[i]) && std::isfinite(recon[i])) {
      EXPECT_LE(std::abs(data[i] - recon[i]), 1e-3 + 1e-6);
      ++checked;
    }
  }
  EXPECT_GT(checked, data.size() / 2);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, NonFiniteSweep,
                         ::testing::Values("lorenzo", "sz2", "sz3-interp",
                                           "multigrid"));

/// Fuzz: random single-byte mutations of valid blobs must never crash,
/// for every backend x entropy stage.
class BlobFuzz
    : public ::testing::TestWithParam<std::tuple<const char*, const char*>> {
};

TEST_P(BlobFuzz, MutatedBlobsNeverCrash) {
  FloatArray data(Shape(20, 20));
  Rng rng(13);
  for (float& v : data.values()) {
    v = static_cast<float>(rng.normal(0.0, 1.0));
  }
  CompressionConfig config;
  config.backend = std::get<0>(GetParam());
  config.entropy = std::get<1>(GetParam());
  config.eb = 1e-3;
  const Bytes blob = compress(data, config);

  int threw = 0, decoded = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = blob;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(blob.size()) - 1));
    mutated[pos] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    try {
      const FloatArray out = decompress<float>(mutated);
      ++decoded;  // silently-consistent mutation: acceptable
    } catch (const Error&) {
      ++threw;  // typed rejection: acceptable
    }
  }
  EXPECT_EQ(threw + decoded, 300);
  // Most mutations should be detected as corruption.
  EXPECT_GT(threw, 100) << "decoded=" << decoded;
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsAndStages, BlobFuzz,
    ::testing::Combine(::testing::Values("lorenzo", "sz2", "sz3-interp",
                                         "multigrid"),
                       ::testing::Values("huffman", "ans")));

TEST(Robustness, OverflowingShapeRejected) {
  FloatArray data(Shape(4, 4));
  const Bytes blob = compress(data, CompressionConfig{});
  // Walk the OCZ1 header up to the shape: magic, dtype, backend id,
  // eb, quant radius, anchor stride, block size, then rank and dims.
  BytesReader in(blob);
  (void)in.get_bytes(4);
  (void)in.get<std::uint8_t>();
  (void)in.get<std::uint8_t>();
  (void)in.get<double>();
  for (int i = 0; i < 3; ++i) (void)in.get_varint();
  const std::size_t rank_at = blob.size() - in.remaining();
  ASSERT_EQ(in.get<std::uint8_t>(), 2);
  (void)in.get_varint();
  (void)in.get_varint();
  const std::size_t sections_at = blob.size() - in.remaining();

  // Claim 2^32 x 2^32 elements, which wraps size_t to 0.
  BytesWriter patched;
  patched.put_bytes(std::span<const std::uint8_t>(blob).first(rank_at));
  patched.put(std::uint8_t{2});
  patched.put_varint(1ull << 32);
  patched.put_varint(1ull << 32);
  patched.put_bytes(std::span<const std::uint8_t>(blob).subspan(sections_at));
  EXPECT_THROW((void)decompress<float>(patched.bytes()), InvalidArgument);
}

TEST(Robustness, TruncationSweepAlwaysThrowsOrDecodes) {
  FloatArray data(Shape(16, 16));
  Rng rng(14);
  for (float& v : data.values()) {
    v = static_cast<float>(rng.normal(0.0, 1.0));
  }
  const Bytes blob = compress(data, CompressionConfig{});
  // Every truncation length must be handled gracefully.
  for (std::size_t len = 0; len < blob.size(); len += 7) {
    Bytes cut(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(len));
    try {
      (void)decompress<float>(cut);
    } catch (const Error&) {
      // expected for most lengths
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace ocelot
