// Unit and property tests for the encoding module: bit-packing, RLE/bit-
// packed hybrid, delta binary packed, string codecs, and the LZ compressor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/encoding/bitpack.h"
#include "src/encoding/delta.h"
#include "src/encoding/lz.h"
#include "src/encoding/rle.h"
#include "src/encoding/strings.h"

namespace lsmcol {
namespace {

TEST(BitWidthTest, Boundaries) {
  EXPECT_EQ(BitWidth(0), 0);
  EXPECT_EQ(BitWidth(1), 1);
  EXPECT_EQ(BitWidth(2), 2);
  EXPECT_EQ(BitWidth(255), 8);
  EXPECT_EQ(BitWidth(256), 9);
  EXPECT_EQ(BitWidth(UINT64_MAX), 64);
}

uint64_t WidthMask(int width) {
  return width >= 64 ? ~0ULL : (width == 0 ? 0 : ((1ULL << width) - 1));
}

void RoundTripBitPack(const std::vector<uint64_t>& values, int width) {
  Buffer out;
  BitPack(values.data(), values.size(), width, &out);
  ASSERT_EQ(out.size(), BitPackedSize(values.size(), width));
  std::vector<uint64_t> decoded(values.size());
  BufferReader reader(out.slice());
  ASSERT_TRUE(
      BitUnpack(&reader, decoded.size(), width, decoded.data()).ok());
  EXPECT_EQ(decoded, values);
  EXPECT_TRUE(reader.empty());
}

class BitPackWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(BitPackWidthTest, RoundTripsRandomValues) {
  const int width = GetParam();
  Rng rng(width * 101);
  std::vector<uint64_t> values(257);
  for (auto& v : values) v = rng.Next() & WidthMask(width);
  RoundTripBitPack(values, width);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitPackWidthTest,
                         ::testing::Values(0, 1, 2, 3, 5, 7, 8, 9, 13, 16, 21,
                                           31, 32, 33, 48, 57, 63, 64));

TEST(BitPackTest, TruncatedInputFails) {
  std::vector<uint64_t> values = {1, 2, 3, 4, 5, 6, 7, 8};
  Buffer out;
  BitPack(values.data(), values.size(), 7, &out);
  Slice truncated(out.data(), out.size() - 1);
  BufferReader reader(truncated);
  std::vector<uint64_t> decoded(8);
  EXPECT_TRUE(
      BitUnpack(&reader, 8, 7, decoded.data()).IsCorruption());
}

void RoundTripRle(const std::vector<uint64_t>& values, int width) {
  RleEncoder enc(width);
  for (uint64_t v : values) enc.Add(v);
  Buffer out;
  enc.FinishInto(&out);
  RleDecoder dec;
  ASSERT_TRUE(dec.Init(out.slice(), width).ok());
  EXPECT_EQ(dec.value_count(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    uint64_t v = 0;
    ASSERT_TRUE(dec.Next(&v).ok()) << i;
    EXPECT_EQ(v, values[i]) << i;
  }
  uint64_t extra;
  EXPECT_FALSE(dec.Next(&extra).ok());
}

TEST(RleTest, EmptyStream) { RoundTripRle({}, 3); }

TEST(RleTest, LongRunsUseRle) {
  std::vector<uint64_t> values(1000, 5);
  RleEncoder enc(3);
  for (uint64_t v : values) enc.Add(v);
  Buffer out;
  enc.FinishInto(&out);
  EXPECT_LT(out.size(), 10u);  // count + header + value
  RoundTripRle(values, 3);
}

TEST(RleTest, AlternatingValuesUseBitPacking) {
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) values.push_back(i % 2);
  RleEncoder enc(1);
  for (uint64_t v : values) enc.Add(v);
  Buffer out;
  enc.FinishInto(&out);
  EXPECT_LT(out.size(), 1000 / 8 + 32u);
  RoundTripRle(values, 1);
}

TEST(RleTest, MixedRunsAndNoise) {
  Rng rng(42);
  std::vector<uint64_t> values;
  for (int block = 0; block < 50; ++block) {
    if (rng.Bernoulli(0.5)) {
      uint64_t v = rng.Uniform(8);
      size_t len = rng.Uniform(60) + 1;
      values.insert(values.end(), len, v);
    } else {
      for (int i = 0; i < 13; ++i) values.push_back(rng.Uniform(8));
    }
  }
  RoundTripRle(values, 3);
}

TEST(RleTest, SkipAcrossRunBoundaries) {
  std::vector<uint64_t> values;
  values.insert(values.end(), 100, 1);
  for (int i = 0; i < 23; ++i) values.push_back(i % 4);
  values.insert(values.end(), 50, 2);
  RleEncoder enc(2);
  for (uint64_t v : values) enc.Add(v);
  Buffer out;
  enc.FinishInto(&out);

  for (size_t skip : {0u, 1u, 7u, 99u, 100u, 105u, 123u, 150u, 172u}) {
    RleDecoder dec;
    ASSERT_TRUE(dec.Init(out.slice(), 2).ok());
    ASSERT_TRUE(dec.Skip(skip).ok()) << skip;
    if (skip < values.size()) {
      uint64_t v = 0;
      ASSERT_TRUE(dec.Next(&v).ok());
      EXPECT_EQ(v, values[skip]) << skip;
    } else {
      uint64_t v;
      EXPECT_FALSE(dec.Next(&v).ok());
    }
  }
}

TEST(RleTest, SkipPastEndFails) {
  RleEncoder enc(1);
  enc.Add(1);
  Buffer out;
  enc.FinishInto(&out);
  RleDecoder dec;
  ASSERT_TRUE(dec.Init(out.slice(), 1).ok());
  EXPECT_FALSE(dec.Skip(2).ok());
}

TEST(RleTest, EncoderClearIsReusable) {
  RleEncoder enc(2);
  enc.Add(3);
  Buffer first;
  enc.FinishInto(&first);
  enc.Clear();
  enc.Add(1);
  enc.Add(1);
  Buffer second;
  enc.FinishInto(&second);
  RleDecoder dec;
  ASSERT_TRUE(dec.Init(second.slice(), 2).ok());
  EXPECT_EQ(dec.value_count(), 2u);
  uint64_t v = 0;
  ASSERT_TRUE(dec.Next(&v).ok());
  EXPECT_EQ(v, 1u);
}

void RoundTripDelta(const std::vector<int64_t>& values) {
  DeltaInt64Encoder enc;
  for (int64_t v : values) enc.Add(v);
  Buffer out;
  enc.FinishInto(&out);
  DeltaInt64Decoder dec;
  ASSERT_TRUE(dec.Init(out.slice()).ok());
  EXPECT_EQ(dec.value_count(), values.size());
  std::vector<int64_t> decoded;
  ASSERT_TRUE(dec.DecodeAll(&decoded).ok());
  EXPECT_EQ(decoded, values);
}

TEST(DeltaTest, Empty) { RoundTripDelta({}); }
TEST(DeltaTest, Single) { RoundTripDelta({-7}); }

TEST(DeltaTest, MonotoneSequenceCompressesWell) {
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 10000; ++i) values.push_back(1600000000000 + i * 7);
  DeltaInt64Encoder enc;
  for (int64_t v : values) enc.Add(v);
  Buffer out;
  enc.FinishInto(&out);
  // Constant stride: each 64-value block costs a few bytes.
  EXPECT_LT(out.size(), 2000u);
  RoundTripDelta(values);
}

TEST(DeltaTest, RandomValuesRoundTrip) {
  Rng rng(7);
  std::vector<int64_t> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(static_cast<int64_t>(rng.Next()));
  }
  RoundTripDelta(values);
}

TEST(DeltaTest, ExtremesRoundTrip) {
  RoundTripDelta({std::numeric_limits<int64_t>::min(),
                  std::numeric_limits<int64_t>::max(),
                  std::numeric_limits<int64_t>::min(), 0, -1, 1});
}

TEST(DeltaTest, BlockBoundarySizes) {
  for (size_t n : {63u, 64u, 65u, 127u, 128u, 129u}) {
    std::vector<int64_t> values;
    for (size_t i = 0; i < n; ++i) values.push_back(static_cast<int64_t>(i * i));
    RoundTripDelta(values);
  }
}

TEST(DeltaTest, SkipThenNext) {
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 500; ++i) values.push_back(i * 3 - 100);
  DeltaInt64Encoder enc;
  for (int64_t v : values) enc.Add(v);
  Buffer out;
  enc.FinishInto(&out);
  for (size_t skip : {0u, 1u, 63u, 64u, 65u, 200u, 499u}) {
    DeltaInt64Decoder dec;
    ASSERT_TRUE(dec.Init(out.slice()).ok());
    ASSERT_TRUE(dec.Skip(skip).ok());
    int64_t v = 0;
    ASSERT_TRUE(dec.Next(&v).ok());
    EXPECT_EQ(v, values[skip]) << skip;
  }
}

TEST(DeltaLengthStringTest, RoundTrip) {
  std::vector<std::string> values = {"", "a", "hello world", "aaa",
                                     std::string(1000, 'x')};
  DeltaLengthStringEncoder enc;
  for (const auto& v : values) enc.Add(Slice(v));
  Buffer out;
  enc.FinishInto(&out);
  DeltaLengthStringDecoder dec;
  ASSERT_TRUE(dec.Init(out.slice()).ok());
  EXPECT_EQ(dec.value_count(), values.size());
  for (const auto& expected : values) {
    Slice got;
    ASSERT_TRUE(dec.Next(&got).ok());
    EXPECT_EQ(got.ToString(), expected);
  }
}

TEST(DeltaLengthStringTest, SkipLandsOnCorrectOffsets) {
  DeltaLengthStringEncoder enc;
  std::vector<std::string> values;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    values.push_back(rng.Word(0, 20));
    enc.Add(Slice(values.back()));
  }
  Buffer out;
  enc.FinishInto(&out);
  for (size_t skip : {0u, 1u, 50u, 199u}) {
    DeltaLengthStringDecoder dec;
    ASSERT_TRUE(dec.Init(out.slice()).ok());
    ASSERT_TRUE(dec.Skip(skip).ok());
    Slice got;
    ASSERT_TRUE(dec.Next(&got).ok());
    EXPECT_EQ(got.ToString(), values[skip]);
  }
}

TEST(DeltaLengthStringTest, CorruptPayloadDetected) {
  DeltaLengthStringEncoder enc;
  enc.Add(Slice("hello"));
  Buffer out;
  enc.FinishInto(&out);
  Slice truncated(out.data(), out.size() - 2);
  DeltaLengthStringDecoder dec;
  EXPECT_FALSE(dec.Init(truncated).ok());
}

TEST(DeltaStringTest, SortedStringsCompressBetterThanPlainLengths) {
  std::vector<std::string> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back("user_prefix_common_" + std::to_string(100000 + i));
  }
  DeltaStringEncoder front;
  DeltaLengthStringEncoder plain;
  for (const auto& v : values) {
    front.Add(Slice(v));
    plain.Add(Slice(v));
  }
  Buffer front_out, plain_out;
  front.FinishInto(&front_out);
  plain.FinishInto(&plain_out);
  EXPECT_LT(front_out.size(), plain_out.size() / 2);

  DeltaStringDecoder dec;
  ASSERT_TRUE(dec.Init(front_out.slice()).ok());
  for (const auto& expected : values) {
    Slice got;
    ASSERT_TRUE(dec.Next(&got).ok());
    EXPECT_EQ(got.ToString(), expected);
  }
}

TEST(DeltaStringTest, UnsortedRoundTrip) {
  Rng rng(5);
  std::vector<std::string> values;
  for (int i = 0; i < 300; ++i) values.push_back(rng.Word(0, 15));
  DeltaStringEncoder enc;
  for (const auto& v : values) enc.Add(Slice(v));
  Buffer out;
  enc.FinishInto(&out);
  DeltaStringDecoder dec;
  ASSERT_TRUE(dec.Init(out.slice()).ok());
  ASSERT_TRUE(dec.Skip(100).ok());
  Slice got;
  ASSERT_TRUE(dec.Next(&got).ok());
  EXPECT_EQ(got.ToString(), values[100]);
}

void RoundTripLz(const std::string& input) {
  Buffer compressed;
  LzCompress(Slice(input), &compressed);
  EXPECT_LE(compressed.size(), LzMaxCompressedSize(input.size()));
  Buffer decompressed;
  ASSERT_TRUE(LzDecompress(compressed.slice(), &decompressed).ok());
  EXPECT_EQ(decompressed.slice().ToString(), input);
}

TEST(LzTest, Empty) { RoundTripLz(""); }
TEST(LzTest, Short) { RoundTripLz("abc"); }

TEST(LzTest, RepetitiveTextCompresses) {
  std::string input;
  for (int i = 0; i < 500; ++i) {
    input += "{\"name\":\"record\",\"index\":" + std::to_string(i) + "}";
  }
  Buffer compressed;
  LzCompress(Slice(input), &compressed);
  EXPECT_LT(compressed.size(), input.size() / 3);
  RoundTripLz(input);
}

TEST(LzTest, AllSameByte) { RoundTripLz(std::string(100000, 'z')); }

TEST(LzTest, RandomDataRoundTripsWithoutBlowup) {
  Rng rng(13);
  std::string input;
  for (int i = 0; i < 50000; ++i) {
    input.push_back(static_cast<char>(rng.Next() & 0xFF));
  }
  Buffer compressed;
  LzCompress(Slice(input), &compressed);
  EXPECT_LE(compressed.size(), LzMaxCompressedSize(input.size()));
  RoundTripLz(input);
}

TEST(LzTest, OverlappingMatchReplication) {
  // "abcabcabc..." exercises matches whose offset < length.
  std::string input;
  for (int i = 0; i < 1000; ++i) input += "abc";
  RoundTripLz(input);
}

TEST(LzTest, CorruptStreamRejected) {
  Buffer compressed;
  LzCompress(Slice(std::string(1000, 'q')), &compressed);
  // Truncate mid-stream.
  Slice truncated(compressed.data(), compressed.size() / 2);
  Buffer out;
  EXPECT_FALSE(LzDecompress(truncated, &out).ok());
}

// Decompress `stream` from a buffer of exactly its size, so ASan catches
// any read past the end of the input.
Status DecompressExact(const Buffer& stream, Buffer* out) {
  std::unique_ptr<char[]> exact(
      new char[std::max<size_t>(stream.size(), 1)]);
  if (!stream.empty()) std::memcpy(exact.get(), stream.data(), stream.size());
  return LzDecompress(Slice(exact.get(), stream.size()), out);
}

TEST(LzTest, LengthHeaderBeyondInputIsCorruptionNotAllocation) {
  Buffer stream;
  stream.AppendVarint64(uint64_t{1} << 50);
  stream.AppendByte(2 << 1);  // a 2-byte literal run
  stream.Append("ab", 2);
  Buffer out;
  Status st = LzDecompress(stream.slice(), &out);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_TRUE(out.empty());
  // The largest length three bytes of tokens could ever produce is still
  // rejected once it exceeds what the tokens actually hold.
  Buffer tight;
  tight.AppendVarint64(131);
  tight.AppendByte(2 << 1);
  tight.Append("ab", 2);
  EXPECT_TRUE(LzDecompress(tight.slice(), &out).IsCorruption());
}

TEST(LzTest, OverlappingMatchesEveryShortOffsetAndLength) {
  for (size_t offset = 1; offset <= 15; ++offset) {
    for (size_t len = 4; len <= 131; ++len) {
      std::string expect;
      for (size_t i = 0; i < offset; ++i) {
        expect.push_back(static_cast<char>('a' + i));
      }
      for (size_t i = 0; i < len; ++i) {
        expect.push_back(expect[expect.size() - offset]);
      }
      expect += "XYZ";  // bytes after the match must survive its copy
      Buffer stream;
      stream.AppendVarint64(expect.size());
      stream.AppendByte(static_cast<uint8_t>(offset << 1));
      stream.Append(expect.data(), offset);
      stream.AppendByte(static_cast<uint8_t>(((len - 4) << 1) | 1));
      stream.AppendVarint64(offset);
      stream.AppendByte(3 << 1);
      stream.Append("XYZ", 3);
      Buffer out;
      Status st = DecompressExact(stream, &out);
      ASSERT_TRUE(st.ok()) << offset << "/" << len << ": " << st.ToString();
      ASSERT_EQ(out.slice().ToString(), expect) << offset << "/" << len;
    }
  }
}

TEST(LzTest, LiteralRunEndingAtOutputEnd) {
  for (size_t run : {1, 15, 16, 17, 31, 127}) {
    std::string expect;
    for (size_t i = 0; i < 40; ++i) expect.push_back('m');
    std::string tail;
    for (size_t i = 0; i < run; ++i) tail.push_back(static_cast<char>(i));
    Buffer stream;
    stream.AppendVarint64(40 + run);
    stream.AppendByte(1 << 1);
    stream.Append("m", 1);
    stream.AppendByte(static_cast<uint8_t>(((39 - 4) << 1) | 1));
    stream.AppendVarint64(1);
    stream.AppendByte(static_cast<uint8_t>(run << 1));
    stream.Append(tail.data(), run);
    Buffer out;
    ASSERT_TRUE(DecompressExact(stream, &out).ok()) << run;
    EXPECT_EQ(out.slice().ToString(), expect + tail) << run;
  }
}

TEST(LzTest, AppendsToNonEmptyBuffer) {
  std::string input;
  for (int i = 0; i < 200; ++i) input += "row" + std::to_string(i % 7) + ";";
  Buffer compressed;
  LzCompress(Slice(input), &compressed);
  Buffer out;
  out.Append("prefix", 6);
  ASSERT_TRUE(LzDecompress(compressed.slice(), &out).ok());
  EXPECT_EQ(out.slice().ToString(), "prefix" + input);
  // Matches resolve against this stream's output, never the prefix: an
  // offset reaching into the prefix is out of range, and a failed call
  // leaves the buffer as it was.
  Buffer bad;
  bad.AppendVarint64(8);
  bad.AppendByte(1 << 1);
  bad.Append("z", 1);
  bad.AppendByte(((7 - 4) << 1) | 1);
  bad.AppendVarint64(3);
  EXPECT_TRUE(LzDecompress(bad.slice(), &out).IsCorruption());
  EXPECT_EQ(out.slice().ToString(), "prefix" + input);
}

TEST(LzTest, TruncationAtEveryOffsetIsCorruption) {
  Rng rng(7);
  std::string input;
  for (int i = 0; i < 200; ++i) {
    input += "field_" + std::to_string(rng.Uniform(9));
    input += rng.Word(1, 12);
  }
  Buffer compressed;
  LzCompress(Slice(input), &compressed);
  for (size_t cut = 0; cut < compressed.size(); ++cut) {
    Buffer prefix;
    prefix.Append(compressed.data(), cut);
    Buffer out;
    Status st = DecompressExact(prefix, &out);
    ASSERT_TRUE(st.IsCorruption()) << "cut " << cut << ": " << st.ToString();
    EXPECT_TRUE(out.empty()) << cut;
  }
  Buffer out;
  ASSERT_TRUE(DecompressExact(compressed, &out).ok());
  EXPECT_EQ(out.slice().ToString(), input);
}

TEST(LzTest, MixedStructuredPayload) {
  Rng rng(99);
  std::string input;
  for (int i = 0; i < 300; ++i) {
    input += "sensor_" + std::to_string(rng.Uniform(50));
    input += rng.Word(1, 30);
    input += std::string(rng.Uniform(20), ' ');
  }
  RoundTripLz(input);
}

// ---------------------------------------------------------------------------
// Randomized round-trip property tests: many independent seeds per codec,
// with shape (empty / single value / runs / adversarial widths) drawn from
// the rng itself. The seed is reported on failure so a counterexample can be
// replayed by hand.
// ---------------------------------------------------------------------------

TEST(RlePropertyTest, RandomVectorsRoundTripAtEveryWidth) {
  // Every supported width (rle.cc CHECKs 0..32) is covered deterministically;
  // the vector shape is randomized per (width, round).
  for (int width = 0; width <= 32; ++width) {
    for (uint64_t round = 0; round < 2; ++round) {
      const uint64_t seed = static_cast<uint64_t>(width) * 2 + round;
      Rng rng(seed * 7919 + 1);
      const uint64_t mask = WidthMask(width);
      // Shapes: empty, single value, one long run, or mixed runs + noise.
      std::vector<uint64_t> values;
      switch ((seed + rng.Uniform(2)) % 4) {
        case 0:
          break;  // empty input
        case 1:
          values.push_back(rng.Next() & mask);  // single value
          break;
        case 2: {  // one maximal run
          const size_t run_len = rng.Uniform(2000) + 1;
          values.assign(run_len, rng.Next() & mask);
          break;
        }
        default:  // interleaved runs and noise
          while (values.size() < 500) {
            if (rng.Bernoulli(0.5)) {
              const size_t run_len = rng.Uniform(100) + 1;
              values.insert(values.end(), run_len, rng.Next() & mask);
            } else {
              for (int i = 0; i < 16; ++i) values.push_back(rng.Next() & mask);
            }
          }
      }
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " width=" + std::to_string(width) +
                   " n=" + std::to_string(values.size()));
      RoundTripRle(values, width);
    }
  }
}

TEST(BitPackPropertyTest, RandomLengthsAndWidthsRoundTrip) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed * 6361 + 3);
    const int width = static_cast<int>(rng.Uniform(65));
    // Half the seeds pin n to a word-boundary count so the partial-final-
    // word paths are guaranteed coverage; the rest draw random lengths.
    static constexpr size_t kBoundaryLengths[] = {0, 1, 63, 64, 65, 127, 128};
    const size_t n = (seed % 2 == 0)
                         ? kBoundaryLengths[seed / 2 % std::size(kBoundaryLengths)]
                         : rng.Uniform(200);
    std::vector<uint64_t> values(n);
    for (auto& v : values) v = rng.Next() & WidthMask(width);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " width=" + std::to_string(width) + " n=" + std::to_string(n));
    RoundTripBitPack(values, width);
  }
}

TEST(DeltaPropertyTest, RandomVectorsRoundTrip) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed * 2741 + 5);
    std::vector<int64_t> values;
    const size_t n = rng.Uniform(300);
    for (size_t i = 0; i < n; ++i) {
      switch (rng.Uniform(4)) {
        case 0:  // full-range values force max-width delta blocks
          values.push_back(static_cast<int64_t>(rng.Next()));
          break;
        case 1:  // extremes stress the zig-zag/overflow arithmetic
          values.push_back(rng.Bernoulli(0.5)
                               ? std::numeric_limits<int64_t>::min()
                               : std::numeric_limits<int64_t>::max());
          break;
        case 2: {  // near-monotone, small strides (wrap-safe: previous
                   // entries may be INT64_MAX/MIN, so add in uint64)
          const uint64_t prev =
              static_cast<uint64_t>(values.empty() ? 0 : values.back());
          const uint64_t stride =
              static_cast<uint64_t>(rng.UniformRange(-3, 16));
          values.push_back(static_cast<int64_t>(prev + stride));
          break;
        }
        default:  // repeated value (zero deltas)
          values.push_back(values.empty() ? 42 : values.back());
      }
    }
    SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" + std::to_string(n));
    RoundTripDelta(values);
  }
}

void RoundTripStrings(const std::vector<std::string>& values) {
  DeltaLengthStringEncoder plain;
  DeltaStringEncoder front;
  for (const auto& v : values) {
    plain.Add(Slice(v));
    front.Add(Slice(v));
  }
  Buffer plain_out, front_out;
  plain.FinishInto(&plain_out);
  front.FinishInto(&front_out);

  DeltaLengthStringDecoder plain_dec;
  ASSERT_TRUE(plain_dec.Init(plain_out.slice()).ok());
  ASSERT_EQ(plain_dec.value_count(), values.size());
  DeltaStringDecoder front_dec;
  ASSERT_TRUE(front_dec.Init(front_out.slice()).ok());
  ASSERT_EQ(front_dec.value_count(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    Slice got;
    ASSERT_TRUE(plain_dec.Next(&got).ok()) << i;
    EXPECT_EQ(got.ToString(), values[i]) << i;
    ASSERT_TRUE(front_dec.Next(&got).ok()) << i;
    EXPECT_EQ(got.ToString(), values[i]) << i;
  }
  // Both streams must be exhausted: no extra trailing values.
  Slice extra;
  EXPECT_FALSE(plain_dec.Next(&extra).ok());
  EXPECT_EQ(front_dec.remaining(), 0u);
  EXPECT_FALSE(front_dec.Next(&extra).ok());
}

TEST(StringCodecPropertyTest, RandomVectorsRoundTripBothCodecs) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed * 104729 + 11);
    std::vector<std::string> values;
    switch (rng.Uniform(4)) {
      case 0:
        break;  // empty input
      case 1:
        values.push_back(rng.Word(0, 64));  // single entry (possibly "")
        break;
      case 2:  // dictionary-ish: few distinct values, long repeated runs
      {
        std::vector<std::string> dict;
        for (int i = 0; i < 8; ++i) dict.push_back(rng.Word(0, 12));
        for (int i = 0; i < 400; ++i) values.push_back(dict[rng.Uniform(8)]);
        break;
      }
      default:  // shared prefixes + a max-length outlier
        for (int i = 0; i < 200; ++i) {
          values.push_back("prefix/" + rng.Word(0, 24));
        }
        values.push_back(std::string(64 * 1024, 'M'));
    }
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " n=" + std::to_string(values.size()));
    RoundTripStrings(values);
  }
}

// ----------------------------------------------------- batch decode APIs

// A stream with RLE runs, bit-packed noise, and run boundaries landing
// both on and off typical batch sizes.
std::vector<uint64_t> MixedRleStream() {
  std::vector<uint64_t> values;
  values.insert(values.end(), 100, 3);          // RLE run
  for (int i = 0; i < 37; ++i) values.push_back(i % 5);  // bit-packed
  values.insert(values.end(), 1000, 6);         // long RLE run
  values.push_back(1);                          // singleton
  values.insert(values.end(), 20, 0);           // RLE run
  return values;
}

Buffer EncodeRle(const std::vector<uint64_t>& values, int width) {
  RleEncoder enc(width);
  for (uint64_t v : values) enc.Add(v);
  Buffer out;
  enc.FinishInto(&out);
  return out;
}

TEST(RleBatchTest, DecodeBatchMatchesNextAcrossRunBoundaries) {
  const std::vector<uint64_t> values = MixedRleStream();
  Buffer encoded = EncodeRle(values, 3);
  // Batch sizes chosen so encoded runs straddle every batch boundary.
  for (size_t batch : {1ul, 7ul, 64ul, 333ul, values.size(), 100000ul}) {
    RleDecoder dec;
    ASSERT_TRUE(dec.Init(encoded.slice(), 3).ok());
    std::vector<uint64_t> decoded;
    std::vector<uint64_t> scratch(batch);
    while (dec.remaining() > 0) {
      size_t got = 0;
      ASSERT_TRUE(dec.DecodeBatch(batch, scratch.data(), &got).ok());
      ASSERT_GT(got, 0u);
      decoded.insert(decoded.end(), scratch.begin(), scratch.begin() + got);
    }
    EXPECT_EQ(decoded, values) << "batch=" << batch;
    // Exhausted decoder yields empty batches, not errors.
    size_t got = 1;
    ASSERT_TRUE(dec.DecodeBatch(batch, scratch.data(), &got).ok());
    EXPECT_EQ(got, 0u);
  }
}

TEST(RleBatchTest, DecodeBatchInterleavesWithNextAndSkip) {
  const std::vector<uint64_t> values = MixedRleStream();
  Buffer encoded = EncodeRle(values, 3);
  RleDecoder dec;
  ASSERT_TRUE(dec.Init(encoded.slice(), 3).ok());
  std::vector<uint64_t> scratch(50);
  size_t got = 0;
  ASSERT_TRUE(dec.DecodeBatch(50, scratch.data(), &got).ok());
  uint64_t v = 0;
  ASSERT_TRUE(dec.Next(&v).ok());
  EXPECT_EQ(v, values[50]);
  ASSERT_TRUE(dec.Skip(60).ok());  // crosses into the bit-packed region
  ASSERT_TRUE(dec.DecodeBatch(10, scratch.data(), &got).ok());
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(scratch[i], values[111 + i]);
}

TEST(RleBatchTest, DecodeRunsSurfacesRunStructure) {
  std::vector<uint64_t> values;
  values.insert(values.end(), 80, 2);
  values.insert(values.end(), 30, 5);
  Buffer encoded = EncodeRle(values, 3);
  RleDecoder dec;
  ASSERT_TRUE(dec.Init(encoded.slice(), 3).ok());
  std::vector<RleRun> runs;
  ASSERT_TRUE(dec.DecodeRuns(values.size(), &runs).ok());
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].value, 2u);
  EXPECT_EQ(runs[0].count, 80u);
  EXPECT_EQ(runs[1].value, 5u);
  EXPECT_EQ(runs[1].count, 30u);
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(RleBatchTest, DecodeRunsHonorsMaxValuesMidRun) {
  std::vector<uint64_t> values(100, 7);
  Buffer encoded = EncodeRle(values, 3);
  RleDecoder dec;
  ASSERT_TRUE(dec.Init(encoded.slice(), 3).ok());
  std::vector<RleRun> runs;
  ASSERT_TRUE(dec.DecodeRuns(30, &runs).ok());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].count, 30u);
  ASSERT_TRUE(dec.DecodeRuns(1000, &runs).ok());  // resumes; coalesces
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].count, 100u);
}

TEST(RleBatchTest, SkipAndCountCountsTargetRunGranular) {
  const std::vector<uint64_t> values = MixedRleStream();
  Buffer encoded = EncodeRle(values, 3);
  for (uint64_t target : {0ull, 3ull, 6ull}) {
    RleDecoder dec;
    ASSERT_TRUE(dec.Init(encoded.slice(), 3).ok());
    size_t count = 0;
    const size_t n = 700;
    ASSERT_TRUE(dec.SkipAndCount(n, target, &count).ok());
    size_t expected = 0;
    for (size_t i = 0; i < n; ++i) expected += values[i] == target ? 1 : 0;
    EXPECT_EQ(count, expected) << "target=" << target;
    // The decoder continues correctly after the counted skip.
    uint64_t v = 0;
    ASSERT_TRUE(dec.Next(&v).ok());
    EXPECT_EQ(v, values[n]);
  }
}

TEST(DeltaBatchTest, DecodeBatchMatchesNextAcrossBlockBoundaries) {
  Rng rng(7);
  std::vector<int64_t> values;
  int64_t acc = 0;
  for (int i = 0; i < 1000; ++i) {  // > 15 blocks of 64
    acc += static_cast<int64_t>(rng.Uniform(1000)) - 500;
    values.push_back(acc);
  }
  DeltaInt64Encoder enc;
  for (int64_t v : values) enc.Add(v);
  Buffer encoded;
  enc.FinishInto(&encoded);
  for (size_t batch : {1ul, 63ul, 64ul, 65ul, 500ul, 1000ul}) {
    DeltaInt64Decoder dec;
    ASSERT_TRUE(dec.Init(encoded.slice()).ok());
    std::vector<int64_t> decoded;
    std::vector<int64_t> scratch(batch);
    while (dec.remaining() > 0) {
      size_t got = 0;
      ASSERT_TRUE(dec.DecodeBatch(batch, scratch.data(), &got).ok());
      decoded.insert(decoded.end(), scratch.begin(), scratch.begin() + got);
    }
    EXPECT_EQ(decoded, values) << "batch=" << batch;
  }
}

TEST(DeltaBatchTest, BlockGranularSkipInterleavesWithBatches) {
  std::vector<int64_t> values;
  for (int i = 0; i < 500; ++i) values.push_back(i * 3);
  DeltaInt64Encoder enc;
  for (int64_t v : values) enc.Add(v);
  Buffer encoded;
  enc.FinishInto(&encoded);
  DeltaInt64Decoder dec;
  ASSERT_TRUE(dec.Init(encoded.slice()).ok());
  ASSERT_TRUE(dec.Skip(129).ok());  // two full blocks + 1 (plus first value)
  std::vector<int64_t> scratch(100);
  size_t got = 0;
  ASSERT_TRUE(dec.DecodeBatch(100, scratch.data(), &got).ok());
  ASSERT_EQ(got, 100u);
  for (size_t i = 0; i < got; ++i) EXPECT_EQ(scratch[i], values[129 + i]);
  ASSERT_TRUE(dec.Skip(dec.remaining()).ok());
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(DeltaBatchTest, SingleValueAndEmptyBatches) {
  DeltaInt64Encoder enc;
  enc.Add(42);
  Buffer encoded;
  enc.FinishInto(&encoded);
  DeltaInt64Decoder dec;
  ASSERT_TRUE(dec.Init(encoded.slice()).ok());
  int64_t out[2] = {0, 0};
  size_t got = 0;
  ASSERT_TRUE(dec.DecodeBatch(2, out, &got).ok());
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(out[0], 42);
  ASSERT_TRUE(dec.DecodeBatch(2, out, &got).ok());
  EXPECT_EQ(got, 0u);
}

TEST(StringBatchTest, NextBatchRawReturnsContiguousPayload) {
  DeltaLengthStringEncoder enc;
  enc.Add(Slice("alpha"));
  enc.Add(Slice(""));
  enc.Add(Slice("bc"));
  enc.Add(Slice("delta"));
  Buffer encoded;
  enc.FinishInto(&encoded);
  DeltaLengthStringDecoder dec;
  ASSERT_TRUE(dec.Init(encoded.slice()).ok());
  const int64_t* lengths = nullptr;
  Slice payload;
  ASSERT_TRUE(dec.NextBatchRaw(3, &lengths, &payload).ok());
  EXPECT_EQ(lengths[0], 5);
  EXPECT_EQ(lengths[1], 0);
  EXPECT_EQ(lengths[2], 2);
  EXPECT_EQ(payload.ToString(), "alphabc");
  Slice last;
  ASSERT_TRUE(dec.Next(&last).ok());
  EXPECT_EQ(last.ToString(), "delta");
  EXPECT_FALSE(dec.NextBatchRaw(1, &lengths, &payload).ok());
}

TEST(StringBatchTest, NextBatchSlicesInterleaveWithSkip) {
  std::vector<std::string> values;
  for (int i = 0; i < 200; ++i) values.push_back("v" + std::to_string(i));
  DeltaLengthStringEncoder enc;
  for (const auto& v : values) enc.Add(Slice(v));
  Buffer encoded;
  enc.FinishInto(&encoded);
  DeltaLengthStringDecoder dec;
  ASSERT_TRUE(dec.Init(encoded.slice()).ok());
  ASSERT_TRUE(dec.Skip(57).ok());
  std::vector<Slice> out(1000);
  size_t got = 0;
  ASSERT_TRUE(dec.NextBatch(1000, out.data(), &got).ok());  // clamped
  ASSERT_EQ(got, values.size() - 57);
  for (size_t i = 0; i < got; ++i) {
    EXPECT_EQ(out[i].ToString(), values[57 + i]) << i;
  }
}

}  // namespace
}  // namespace lsmcol
