#include "src/util/checksum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/proto/wire.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace rmp {
namespace {

std::span<const uint8_t> AsBytes(const std::string& s) {
  return std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

TEST(Crc32Test, KnownVector) {
  // The canonical CRC-32/IEEE check value.
  EXPECT_EQ(Crc32(AsBytes("123456789")), 0xcbf43926u);
}

TEST(Crc32Test, EmptyInput) { EXPECT_EQ(Crc32({}), 0u); }

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t oneshot = Crc32(AsBytes(data));
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32Init();
    crc = Crc32Update(crc, AsBytes(data.substr(0, split)));
    crc = Crc32Update(crc, AsBytes(data.substr(split)));
    EXPECT_EQ(Crc32Finalize(crc), oneshot) << "split at " << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(1024, 0xa5);
  const uint32_t clean = Crc32(std::span<const uint8_t>(data));
  for (size_t byte : {0u, 511u, 1023u}) {
    data[byte] ^= 0x10;
    EXPECT_NE(Crc32(std::span<const uint8_t>(data)), clean);
    data[byte] ^= 0x10;
  }
}

TEST(Crc32Test, DetectsTransposition) {
  std::vector<uint8_t> a = {1, 2, 3, 4};
  std::vector<uint8_t> b = {1, 3, 2, 4};
  EXPECT_NE(Crc32(std::span<const uint8_t>(a)), Crc32(std::span<const uint8_t>(b)));
}

// Bit-at-a-time reference implementation; the slice-by-8 tables and the
// dispatched kernel must agree with it on every input.
uint32_t ReferenceCrc(uint32_t poly, std::span<const uint8_t> data) {
  uint32_t crc = 0xffffffffu;
  for (uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? poly : 0u);
    }
  }
  return crc ^ 0xffffffffu;
}

std::vector<uint8_t> PseudoRandomBuffer(size_t size, uint64_t seed) {
  std::vector<uint8_t> data(size);
  uint64_t x = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (auto& byte : data) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    byte = static_cast<uint8_t>(x);
  }
  return data;
}

TEST(Crc32Test, SliceBy8MatchesBitwiseReference) {
  // Odd lengths exercise the byte tail around the 8-byte inner loop.
  for (size_t size : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u, 8192u}) {
    const auto data = PseudoRandomBuffer(size, size + 1);
    const std::span<const uint8_t> span(data);
    EXPECT_EQ(Crc32Scalar(span), ReferenceCrc(0xedb88320u, span)) << "size " << size;
    EXPECT_EQ(Crc32(span), ReferenceCrc(0xedb88320u, span)) << "size " << size;
  }
}

TEST(Crc32Test, DispatchedMatchesScalarAtEveryLengthAndOffset) {
  // Lengths span the 64-byte fold threshold, every 16-byte block count up to
  // the fold tail, and every 0-15 byte slice-by-8 tail; offsets cover every
  // start alignment of a 16-byte load.
  const auto data = PseudoRandomBuffer(1100 + 16, 77);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t n = 0; n <= 1100; ++n) {
      const std::span<const uint8_t> span(data.data() + offset, n);
      ASSERT_EQ(Crc32(span), Crc32Scalar(span))
          << "n=" << n << " offset=" << offset << " impl=" << Crc32ImplName();
    }
  }
}

TEST(Crc32Test, UpdateOverRandomSplitsMatchesOneShot) {
  // The fold and the slice-by-8 tail share one running state, so any chunking
  // (chunks above and below the fold threshold alike) must compose.
  const auto data = PseudoRandomBuffer(kPageSize + 333, 5);
  const std::span<const uint8_t> all(data);
  const uint32_t oneshot = Crc32Scalar(all);
  Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    uint32_t crc = Crc32Init();
    size_t pos = 0;
    while (pos < data.size()) {
      const size_t chunk = std::min<size_t>(data.size() - pos, rng.Next() % 300);
      crc = Crc32Update(crc, all.subspan(pos, chunk));
      pos += chunk;
    }
    ASSERT_EQ(Crc32Finalize(crc), oneshot) << "trial " << trial;
  }
}

TEST(Crc32Test, PayloadCrcOfSeededPageIsPinned) {
  // The value slice-by-8 gave before the folding kernel existed: the wire
  // checksum of a page must not depend on which implementation computed it.
  PageBuffer page;
  FillPattern(page.span(), 2026);
  EXPECT_EQ(PayloadCrc(page.span()), 0xe8fad2e4u) << "impl=" << Crc32ImplName();
}

TEST(Crc32Test, DispatchNameIsKnown) {
  const std::string_view name = Crc32ImplName();
  EXPECT_TRUE(name == "pclmul" || name == "scalar") << name;
}

TEST(Crc32cTest, KnownVector) {
  // The canonical CRC-32C (Castagnoli) check value.
  EXPECT_EQ(Crc32c(AsBytes("123456789")), 0xe3069283u);
}

TEST(Crc32cTest, EmptyInput) { EXPECT_EQ(Crc32c({}), 0u); }

TEST(Crc32cTest, MatchesBitwiseReference) {
  // Runs the hardware crc32q path when SSE4.2 is present and the software
  // slice-by-8 fallback otherwise; both must match the bitwise reference.
  for (size_t size : {1u, 7u, 8u, 9u, 100u, 8192u}) {
    const auto data = PseudoRandomBuffer(size, size * 31 + 5);
    const std::span<const uint8_t> span(data);
    EXPECT_EQ(Crc32c(span), ReferenceCrc(0x82f63b78u, span))
        << "size " << size << " hw=" << Crc32cHardwareAvailable();
  }
}

TEST(Crc32cTest, DiffersFromIeeeCrc32) {
  // The wire format pins IEEE, which the folded Crc32 computes in hardware
  // without crc32q; Crc32c is a different polynomial on purpose.
  EXPECT_NE(Crc32c(AsBytes("123456789")), Crc32(AsBytes("123456789")));
}

}  // namespace
}  // namespace rmp
