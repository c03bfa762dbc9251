#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>

#include "common/buffer.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"

namespace colmr {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status s = Status::Corruption("bad block");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_FALSE(s.IsIoError());
  EXPECT_EQ(s.message(), "bad block");
  EXPECT_EQ(s.ToString(), "Corruption: bad block");

  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::IoError("x").IsIoError());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto inner = []() { return Status::IoError("disk gone"); };
  auto outer = [&]() -> Status {
    COLMR_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsIoError());
}

TEST(SliceTest, BasicViews) {
  std::string data = "hello world";
  Slice s(data);
  EXPECT_EQ(s.size(), 11u);
  EXPECT_EQ(s[0], 'h');
  EXPECT_EQ(s.Prefix(5).ToString(), "hello");
  EXPECT_EQ(s.SubSlice(6, 5).ToString(), "world");
  s.RemovePrefix(6);
  EXPECT_EQ(s.ToString(), "world");
}

TEST(SliceTest, Compare) {
  EXPECT_EQ(Slice("abc").Compare(Slice("abc")), 0);
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_LT(Slice("ab").Compare(Slice("abc")), 0);
  EXPECT_GT(Slice("b").Compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
}

TEST(BufferTest, AppendAndTake) {
  Buffer b;
  EXPECT_TRUE(b.empty());
  b.Append("abc", 3);
  b.PushBack('d');
  b.Append(Slice("ef"));
  EXPECT_EQ(b.size(), 6u);
  EXPECT_EQ(b.AsSlice().ToString(), "abcdef");
  std::string taken = b.TakeString();
  EXPECT_EQ(taken, "abcdef");
  EXPECT_TRUE(b.empty());
}

TEST(CodingTest, ZigZagMapsSmallMagnitudes) {
  EXPECT_EQ(ZigZagEncode64(0), 0u);
  EXPECT_EQ(ZigZagEncode64(-1), 1u);
  EXPECT_EQ(ZigZagEncode64(1), 2u);
  EXPECT_EQ(ZigZagEncode64(-2), 3u);
  EXPECT_EQ(ZigZagDecode64(ZigZagEncode64(-123456789)), -123456789);
  EXPECT_EQ(ZigZagDecode32(ZigZagEncode32(std::numeric_limits<int32_t>::min())),
            std::numeric_limits<int32_t>::min());
}

TEST(CodingTest, VarintBoundaries) {
  const uint64_t cases[] = {0,
                            127,
                            128,
                            16383,
                            16384,
                            (1ull << 32) - 1,
                            1ull << 32,
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : cases) {
    Buffer b;
    PutVarint64(&b, v);
    EXPECT_EQ(static_cast<int>(b.size()), VarintLength(v));
    Slice s = b.AsSlice();
    uint64_t decoded;
    ASSERT_TRUE(GetVarint64(&s, &decoded).ok());
    EXPECT_EQ(decoded, v);
    EXPECT_TRUE(s.empty());
  }
}

TEST(CodingTest, TruncatedVarintIsCorruption) {
  Buffer b;
  PutVarint64(&b, 1ull << 40);
  Slice s = b.AsSlice().Prefix(2);
  uint64_t v;
  EXPECT_TRUE(GetVarint64(&s, &v).IsCorruption());
}

TEST(CodingTest, OverlongVarintIsCorruption) {
  std::string bad(11, '\x80');
  Slice s(bad);
  uint64_t v;
  EXPECT_TRUE(GetVarint64(&s, &v).IsCorruption());
}

TEST(CodingTest, TenByteVarintBoundary) {
  // UINT64_MAX is the largest canonical 10-byte varint: nine 0xff
  // continuation bytes carrying bits 0..62, then 0x01 for bit 63.
  const std::string max_encoding(9, '\xff');
  {
    std::string bytes = max_encoding + '\x01';
    Slice s(bytes);
    uint64_t v = 0;
    ASSERT_TRUE(GetVarint64(&s, &v).ok());
    EXPECT_EQ(v, std::numeric_limits<uint64_t>::max());
    EXPECT_TRUE(s.empty());
  }
  // A 10th byte with any payload bit above bit 63 encodes a value that
  // cannot fit in 64 bits; the pre-fix decoder shifted those bits away and
  // decoded this as 0 (aliasing distinct byte strings). Must be rejected.
  {
    std::string bytes = max_encoding + '\x02';
    Slice s(bytes);
    uint64_t v = 0;
    Status status = GetVarint64(&s, &v);
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();
    EXPECT_NE(status.ToString().find("varint overflow"), std::string::npos)
        << status.ToString();
  }
  // Mixed payload-and-continuation in the 10th byte is also overflow, even
  // though an 11th byte follows.
  {
    std::string bytes = max_encoding + '\x83' + '\x00';
    Slice s(bytes);
    uint64_t v = 0;
    EXPECT_TRUE(GetVarint64(&s, &v).IsCorruption());
  }
  // 11-byte input (10 continuation bytes) stays corruption.
  {
    std::string bytes(10, '\x81');
    bytes += '\x00';
    Slice s(bytes);
    uint64_t v = 0;
    EXPECT_TRUE(GetVarint64(&s, &v).IsCorruption());
  }
}

TEST(CodingTest, Varint32Overflow) {
  Buffer b;
  PutVarint64(&b, 1ull << 33);
  Slice s = b.AsSlice();
  uint32_t v;
  EXPECT_TRUE(GetVarint32(&s, &v).IsCorruption());
}

TEST(CodingTest, FixedAndDouble) {
  Buffer b;
  PutFixed32(&b, 0xDEADBEEF);
  PutFixed64(&b, 0x0123456789ABCDEFull);
  PutDouble(&b, 3.14159);
  Slice s = b.AsSlice();
  uint32_t v32;
  uint64_t v64;
  double d;
  ASSERT_TRUE(GetFixed32(&s, &v32).ok());
  ASSERT_TRUE(GetFixed64(&s, &v64).ok());
  ASSERT_TRUE(GetDouble(&s, &d).ok());
  EXPECT_EQ(v32, 0xDEADBEEF);
  EXPECT_EQ(v64, 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_TRUE(s.empty());
}

TEST(CodingTest, FixedWidthGoldenBytes) {
  // Pins the wire layout: fixed-width integers are little-endian byte
  // sequences regardless of host endianness. A big-endian host memcpy
  // would reverse these and silently break on-disk image portability.
  Buffer b;
  PutFixed32(&b, 0x01020304u);
  PutFixed64(&b, 0x1122334455667788ull);
  const unsigned char expected[] = {0x04, 0x03, 0x02, 0x01,                  //
                                    0x88, 0x77, 0x66, 0x55,                  //
                                    0x44, 0x33, 0x22, 0x11};
  ASSERT_EQ(b.size(), sizeof(expected));
  for (size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(static_cast<unsigned char>(b.AsSlice()[i]), expected[i])
        << "byte " << i;
  }
  Slice s = b.AsSlice();
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed32(&s, &v32).ok());
  ASSERT_TRUE(GetFixed64(&s, &v64).ok());
  EXPECT_EQ(v32, 0x01020304u);
  EXPECT_EQ(v64, 0x1122334455667788ull);
}

TEST(CodingTest, VarintGoldenBytes) {
  Buffer b;
  PutVarint64(&b, 300);  // 0xAC 0x02: LEB128 low-7-bits-first
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(static_cast<unsigned char>(b.AsSlice()[0]), 0xACu);
  EXPECT_EQ(static_cast<unsigned char>(b.AsSlice()[1]), 0x02u);
}

TEST(CodingTest, LengthPrefixed) {
  Buffer b;
  PutLengthPrefixed(&b, Slice("payload"));
  PutLengthPrefixed(&b, Slice(""));
  Slice s = b.AsSlice();
  Slice a, c;
  ASSERT_TRUE(GetLengthPrefixed(&s, &a).ok());
  ASSERT_TRUE(GetLengthPrefixed(&s, &c).ok());
  EXPECT_EQ(a.ToString(), "payload");
  EXPECT_TRUE(c.empty());
}

TEST(CodingTest, TruncatedLengthPrefixedIsCorruption) {
  Buffer b;
  PutLengthPrefixed(&b, Slice("payload"));
  Slice s = b.AsSlice().Prefix(4);
  Slice out;
  EXPECT_TRUE(GetLengthPrefixed(&s, &out).IsCorruption());
}

// Property sweep: varint encode/decode roundtrips for random values drawn
// from different magnitude bands.
class VarintRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(VarintRoundTripTest, RandomRoundTrips) {
  const int shift = GetParam();
  Random rng(shift * 7919 + 1);
  Buffer b;
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Next() >> shift;
    values.push_back(v);
    PutVarint64(&b, v);
    // Subtract as uint64 (wrapping): the difference of two random 64-bit
    // values overflows int64, which is UB in signed arithmetic.
    PutZigZag64(&b, static_cast<int64_t>(v - rng.Next()));
  }
  Slice s = b.AsSlice();
  Random rng2(shift * 7919 + 1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v;
    int64_t z;
    ASSERT_TRUE(GetVarint64(&s, &v).ok());
    ASSERT_TRUE(GetZigZag64(&s, &z).ok());
    EXPECT_EQ(v, values[i]);
  }
  EXPECT_TRUE(s.empty());
}

INSTANTIATE_TEST_SUITE_P(MagnitudeBands, VarintRoundTripTest,
                         ::testing::Values(0, 8, 16, 24, 32, 40, 48, 56, 63));

TEST(Crc32Test, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  EXPECT_EQ(Crc32(Slice("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(Slice("")), 0u);
}

TEST(Crc32Test, ExtendMatchesWhole) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t cut = 0; cut <= data.size(); cut += 7) {
    const uint32_t whole = Crc32(Slice(data));
    const uint32_t split = Crc32Extend(Crc32(Slice(data.data(), cut)),
                                       Slice(data.data() + cut,
                                             data.size() - cut));
    EXPECT_EQ(whole, split);
  }
}

TEST(Crc32Test, DetectsBitFlip) {
  std::string data = "some block of data";
  const uint32_t before = Crc32(Slice(data));
  data[5] ^= 0x01;
  EXPECT_NE(before, Crc32(Slice(data)));
}

// One bit at a time, straight from the reflected polynomial: the
// reference both CRC kernels must match.
uint32_t BitwiseCrc32Extend(uint32_t crc, const std::string& data,
                            size_t offset, size_t len) {
  crc = ~crc;
  for (size_t i = offset; i < offset + len; ++i) {
    crc ^= static_cast<uint8_t>(data[i]);
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1)));
    }
  }
  return ~crc;
}

std::string RandomBytes(Random* rng, size_t n) {
  std::string data(n, '\0');
  for (char& c : data) c = static_cast<char>(rng->Next());
  return data;
}

TEST(Crc32Test, MatchesBitwiseAtEveryLengthAndAlignment) {
  // Lengths 0..1024 cover the folding kernel's 64-byte entry, its 16-byte
  // steps and every slice-by-8 tail; offsets 0..15 every misalignment.
  Random rng(2011);
  const std::string data = RandomBytes(&rng, 1024 + 16);
  for (size_t offset = 0; offset < 16; ++offset) {
    const uint32_t seed = offset == 0 ? 0 : static_cast<uint32_t>(rng.Next());
    uint32_t expected = seed;  // extended one byte per length
    for (size_t len = 0; len <= 1024; ++len) {
      if (len > 0) {
        expected = BitwiseCrc32Extend(expected, data, offset + len - 1, 1);
      }
      const Slice slice(data.data() + offset, len);
      ASSERT_EQ(Crc32Extend(seed, slice), expected)
          << "offset " << offset << " len " << len;
      ASSERT_EQ(internal::Crc32ExtendPortable(seed, slice), expected)
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32Test, MatchesBitwiseOnLargeRandomBuffers) {
  Random rng(77);
  for (size_t n : {size_t{64} << 10, (size_t{1} << 20) + 13,
                   size_t{4} << 20}) {
    const std::string data = RandomBytes(&rng, n);
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    const uint32_t expected = BitwiseCrc32Extend(seed, data, 0, n);
    EXPECT_EQ(Crc32Extend(seed, Slice(data)), expected) << n;
    EXPECT_EQ(internal::Crc32ExtendPortable(seed, Slice(data)), expected)
        << n;
  }
}

TEST(Crc32Test, ChainsAcrossEveryCutPoint) {
  Random rng(5);
  const std::string data = RandomBytes(&rng, 512);
  const uint32_t whole = Crc32(Slice(data));
  for (size_t cut = 0; cut <= 256; ++cut) {
    const Slice head(data.data(), cut);
    const Slice middle(data.data() + cut, 128);
    const Slice tail(data.data() + cut + 128, data.size() - cut - 128);
    EXPECT_EQ(Crc32Extend(Crc32Extend(Crc32(head), middle), tail), whole)
        << cut;
  }
}

TEST(RandomTest, Deterministic) {
  Random a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool any_diff = false;
  Random a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomTest, UniformInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, StringsRespectLengthAndCharset) {
  Random rng(9);
  for (int i = 0; i < 200; ++i) {
    const std::string s = rng.NextString(20, 40);
    EXPECT_GE(s.size(), 20u);
    EXPECT_LE(s.size(), 40u);
    for (char c : s) {
      EXPECT_GE(c, '!');
      EXPECT_LE(c, '~');
    }
    const std::string w = rng.NextWord(4);
    EXPECT_EQ(w.size(), 4u);
    for (char c : w) {
      EXPECT_GE(c, 'a');
      EXPECT_LE(c, 'z');
    }
  }
}

TEST(ZipfTest, SkewsTowardLowRanks) {
  Zipf zipf(1000, 0.9, 11);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = zipf.Next();
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Rank 0 should be sampled far more often than a uniform draw would
  // (20000/1000 = 20 expected under uniform).
  EXPECT_GT(counts[0], 200);
}

}  // namespace
}  // namespace colmr
