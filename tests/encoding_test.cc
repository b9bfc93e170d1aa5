// Encoding tests: roundtrips for every (encoding x type) combination,
// heuristic encoding choice, varint/zigzag edges, and corruption
// detection on truncated payloads. The decode-kernel tests cover the
// bulk paths' edges: FOR word loads vs the byte tail, varints inside and
// outside the reader's fast window, compressed-execution sidecars at the
// store's chunk size, RLE strings kept as distinct dictionary codes, and
// headers whose row count the payload cannot hold.
#include "storage/encoding.h"

#include <gtest/gtest.h>

#include <limits>
#include <unordered_map>

#include "util/random.h"

namespace pdtstore {
namespace {

ColumnVector Ints(std::vector<int64_t> v) {
  ColumnVector c(TypeId::kInt64);
  c.ints() = std::move(v);
  return c;
}
ColumnVector Doubles(std::vector<double> v) {
  ColumnVector c(TypeId::kDouble);
  c.doubles() = std::move(v);
  return c;
}
ColumnVector Strings(std::vector<std::string> v) {
  ColumnVector c(TypeId::kString);
  c.strings() = std::move(v);
  return c;
}

void ExpectRoundtrip(const ColumnVector& col, Encoding enc) {
  std::string bytes;
  ASSERT_TRUE(EncodeColumn(col, enc, &bytes).ok());
  ColumnVector decoded;
  ASSERT_TRUE(
      DecodeColumn(bytes, col.type(), enc, col.size(), &decoded).ok());
  ASSERT_EQ(decoded.size(), col.size());
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(decoded.GetValue(i), col.GetValue(i)) << "at " << i;
  }
}

TEST(VarintTest, RoundtripsBoundaryValues) {
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                     (1ULL << 32), ~0ULL}) {
    std::string buf;
    PutVarint64(&buf, v);
    size_t pos = 0;
    uint64_t out;
    ASSERT_TRUE(GetVarint64(buf, &pos, &out).ok());
    EXPECT_EQ(out, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, TruncationDetected) {
  std::string buf;
  PutVarint64(&buf, 1ULL << 60);
  buf.resize(buf.size() - 1);
  size_t pos = 0;
  uint64_t out;
  EXPECT_EQ(GetVarint64(buf, &pos, &out).code(), StatusCode::kCorruption);
}

TEST(ZigZagTest, SymmetricAroundZero) {
  for (int64_t v : std::vector<int64_t>{0, 1, -1, 123456789, -123456789,
                                        INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(PlainEncodingTest, AllTypes) {
  ExpectRoundtrip(Ints({1, -5, 0, INT64_MAX, INT64_MIN}), Encoding::kPlain);
  ExpectRoundtrip(Doubles({0.0, -1.5, 3.14, 1e300}), Encoding::kPlain);
  ExpectRoundtrip(Strings({"", "a", "hello world", std::string(1000, 'x')}),
                  Encoding::kPlain);
}

TEST(RleEncodingTest, RunsCompress) {
  ColumnVector col = Ints(std::vector<int64_t>(1000, 42));
  std::string rle, plain;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kRle, &rle).ok());
  ASSERT_TRUE(EncodeColumn(col, Encoding::kPlain, &plain).ok());
  EXPECT_LT(rle.size() * 50, plain.size());
  ExpectRoundtrip(col, Encoding::kRle);
  ExpectRoundtrip(Strings({"a", "a", "b", "b", "b", "c"}), Encoding::kRle);
  ExpectRoundtrip(Doubles({1.0, 1.0, 2.0}), Encoding::kRle);
  // Degenerate: all-distinct values still roundtrip.
  ExpectRoundtrip(Ints({1, 2, 3, 4, 5}), Encoding::kRle);
}

TEST(DeltaEncodingTest, SortedKeysCompressWell) {
  std::vector<int64_t> sorted;
  for (int64_t i = 0; i < 10000; ++i) sorted.push_back(i * 4);
  ColumnVector col = Ints(sorted);
  std::string delta, plain;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kDeltaVarint, &delta).ok());
  ASSERT_TRUE(EncodeColumn(col, Encoding::kPlain, &plain).ok());
  EXPECT_LT(delta.size() * 4, plain.size());
  ExpectRoundtrip(col, Encoding::kDeltaVarint);
  // Negative deltas (unsorted input) still roundtrip via zigzag.
  ExpectRoundtrip(Ints({100, 5, 700, -3}), Encoding::kDeltaVarint);
}

TEST(DeltaEncodingTest, FullRangeDeltasWrapAndRoundtrip) {
  // Every delta between INT64_MIN and INT64_MAX overflows int64_t; the
  // encoder must wrap it in unsigned arithmetic, not invoke UB.
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  std::vector<int64_t> vals;
  for (int i = 0; i < 64; ++i) vals.push_back(i % 2 == 0 ? lo : hi);
  vals.push_back(0);
  vals.push_back(hi);
  ExpectRoundtrip(Ints(vals), Encoding::kDeltaVarint);
  // The wrapped deltas are +/-1 modulo 2^64: one byte each after the
  // first value.
  std::string bytes;
  ASSERT_TRUE(EncodeColumn(Ints({lo, hi, lo}), Encoding::kDeltaVarint,
                           &bytes)
                  .ok());
  EXPECT_EQ(bytes.size(), 10u + 1u + 1u);
}

TEST(DeltaEncodingTest, RejectsNonInt) {
  std::string bytes;
  EXPECT_FALSE(
      EncodeColumn(Doubles({1.0}), Encoding::kDeltaVarint, &bytes).ok());
}

TEST(DictEncodingTest, LowCardinalityStrings) {
  std::vector<std::string> vals;
  for (int i = 0; i < 5000; ++i) vals.push_back(i % 2 ? "yes" : "no");
  ColumnVector col = Strings(vals);
  std::string dict, plain;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kDict, &dict).ok());
  ASSERT_TRUE(EncodeColumn(col, Encoding::kPlain, &plain).ok());
  EXPECT_LT(dict.size() * 2, plain.size());
  ExpectRoundtrip(col, Encoding::kDict);
}

TEST(DictEncodingTest, RejectsNonString) {
  std::string bytes;
  EXPECT_FALSE(EncodeColumn(Ints({1}), Encoding::kDict, &bytes).ok());
}

TEST(ChooseEncodingTest, Heuristics) {
  // Compression off: always plain.
  EXPECT_EQ(ChooseEncoding(Ints({1, 2, 3, 4, 5, 6, 7, 8, 9}), false),
            Encoding::kPlain);
  // Sorted ints: delta.
  EXPECT_EQ(ChooseEncoding(Ints({1, 2, 3, 4, 5, 6, 7, 8, 9}), true),
            Encoding::kDeltaVarint);
  // Heavy runs: RLE.
  EXPECT_EQ(ChooseEncoding(Ints(std::vector<int64_t>(100, 7)), true),
            Encoding::kRle);
  // Low-cardinality strings: dict.
  std::vector<std::string> flags;
  for (int i = 0; i < 100; ++i) flags.push_back(i % 3 == 0 ? "A" : "B");
  // interleaved so runs are short
  EXPECT_EQ(ChooseEncoding(Strings(flags), true), Encoding::kDict);
  // High-cardinality unsorted: plain.
  Random rng(1);
  std::vector<int64_t> noise;
  for (int i = 0; i < 100; ++i) {
    noise.push_back(static_cast<int64_t>(rng.Next()));
  }
  EXPECT_EQ(ChooseEncoding(Ints(noise), true), Encoding::kPlain);
  // Tiny columns stay plain.
  EXPECT_EQ(ChooseEncoding(Ints({1, 2}), true), Encoding::kPlain);
}

TEST(CorruptionTest, TruncatedPayloadsRejected) {
  ColumnVector col = Strings({"hello", "world"});
  std::string bytes;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kPlain, &bytes).ok());
  bytes.resize(bytes.size() / 2);
  ColumnVector out;
  EXPECT_EQ(
      DecodeColumn(bytes, TypeId::kString, Encoding::kPlain, 2, &out).code(),
      StatusCode::kCorruption);

  ColumnVector ints = Ints({1, 2, 3, 4, 5, 6, 7, 8});
  ASSERT_TRUE(EncodeColumn(ints, Encoding::kDeltaVarint, &bytes).ok());
  bytes.resize(2);
  EXPECT_FALSE(
      DecodeColumn(bytes, TypeId::kInt64, Encoding::kDeltaVarint, 8, &out)
          .ok());
}


TEST(ForBitPackTest, RoundtripsNarrowRanges) {
  ExpectRoundtrip(Ints({5, 9, 7, 5, 8, 6}), Encoding::kForBitPack);
  ExpectRoundtrip(Ints({-100, -50, -75}), Encoding::kForBitPack);
  ExpectRoundtrip(Ints({1000000, 1000001, 1000050}), Encoding::kForBitPack);
  ExpectRoundtrip(Ints(std::vector<int64_t>(100, 7)),
                  Encoding::kForBitPack);  // constant -> 1-bit
  // Width exactly at byte boundaries.
  ExpectRoundtrip(Ints({0, 255}), Encoding::kForBitPack);
  ExpectRoundtrip(Ints({0, 256}), Encoding::kForBitPack);
  ExpectRoundtrip(Ints({0, 65535, 12345}), Encoding::kForBitPack);
}

TEST(ForBitPackTest, CompressesNarrowColumns) {
  Random rng(5);
  std::vector<int64_t> qty;
  for (int i = 0; i < 10000; ++i) qty.push_back(rng.UniformRange(1, 50));
  ColumnVector col = Ints(qty);
  std::string packed, plain;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kForBitPack, &packed).ok());
  ASSERT_TRUE(EncodeColumn(col, Encoding::kPlain, &plain).ok());
  // 6 bits/value vs 64 bits/value: ~10x.
  EXPECT_LT(packed.size() * 8, plain.size());
  ExpectRoundtrip(col, Encoding::kForBitPack);
}

TEST(ForBitPackTest, RejectsWideRangesAndNonInts) {
  std::string bytes;
  EXPECT_FALSE(EncodeColumn(Ints({0, INT64_MAX}), Encoding::kForBitPack,
                            &bytes)
                   .ok());
  EXPECT_FALSE(
      EncodeColumn(Doubles({1.0}), Encoding::kForBitPack, &bytes).ok());
}

TEST(ForBitPackTest, ChosenForNarrowUnsortedInts) {
  Random rng(6);
  std::vector<int64_t> vals;
  for (int i = 0; i < 200; ++i) vals.push_back(rng.UniformRange(0, 1000));
  EXPECT_EQ(ChooseEncoding(Ints(vals), true), Encoding::kForBitPack);
}

TEST(ForBitPackTest, TruncationDetected) {
  ColumnVector col = Ints({1, 2, 3, 4, 5, 6, 7, 8});
  std::string bytes;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kForBitPack, &bytes).ok());
  bytes.resize(2);
  ColumnVector out;
  EXPECT_FALSE(
      DecodeColumn(bytes, TypeId::kInt64, Encoding::kForBitPack, 8, &out)
          .ok());
}

// --- decode kernels ---

// The store's chunk size (ColumnStoreOptions::chunk_rows).
constexpr size_t kChunkRows = 16384;

// Every encoding with every type it supports.
constexpr std::pair<Encoding, TypeId> kEncodingTypes[] = {
    {Encoding::kPlain, TypeId::kInt64},
    {Encoding::kPlain, TypeId::kDouble},
    {Encoding::kPlain, TypeId::kString},
    {Encoding::kRle, TypeId::kInt64},
    {Encoding::kRle, TypeId::kDouble},
    {Encoding::kRle, TypeId::kString},
    {Encoding::kDeltaVarint, TypeId::kInt64},
    {Encoding::kDict, TypeId::kString},
    {Encoding::kForBitPack, TypeId::kInt64},
};

TEST(ForBitPackTest, EveryWidthAndCountRoundtrips) {
  Random rng(41);
  for (int width = 1; width <= 56; ++width) {
    const int64_t min_v = -(int64_t{1} << 20) - width;
    const uint64_t span = (1ULL << width) - 1;
    for (size_t count : {1, 7, 8, 9, 63, 64, 65, 16384}) {
      std::vector<int64_t> vals;
      for (size_t i = 0; i < count; ++i) {
        vals.push_back(min_v + static_cast<int64_t>(rng.Next() & span));
      }
      // Both ends of the range: the width is exactly `width` bits.
      vals.front() = min_v + static_cast<int64_t>(span);
      if (count > 1) vals.back() = min_v;
      ColumnVector col = Ints(vals);
      std::string bytes;
      ASSERT_TRUE(EncodeColumn(col, Encoding::kForBitPack, &bytes).ok());
      if (count > 1) {
        std::string header;
        PutVarint64(&header, ZigZagEncode(min_v));
        ASSERT_EQ(static_cast<int>(bytes[header.size()]), width);
      }
      ColumnVector out;
      ASSERT_TRUE(DecodeColumn(bytes, TypeId::kInt64, Encoding::kForBitPack,
                               count, &out)
                      .ok())
          << "width " << width << " count " << count;
      ASSERT_EQ(out.ints(), vals) << "width " << width << " count " << count;
    }
  }
}

// One column of `n` rows in runs of 1..9 equal values, with a small
// value domain so that dictionaries repeat entries.
ColumnVector RunColumn(TypeId type, size_t n, uint64_t seed) {
  Random rng(seed);
  ColumnVector col(type);
  while (col.size() < n) {
    const size_t run = std::min<size_t>(1 + rng.Uniform(9), n - col.size());
    const int64_t v = static_cast<int64_t>(rng.Uniform(50));
    for (size_t i = 0; i < run; ++i) {
      switch (type) {
        case TypeId::kInt64:
          col.ints().push_back(v * 1000003);
          break;
        case TypeId::kDouble:
          col.doubles().push_back(static_cast<double>(v) / 3.0);
          break;
        case TypeId::kString:
          col.strings().push_back("value_" + std::to_string(v));
          break;
      }
    }
  }
  return col;
}

TEST(DecodeKernelTest, EveryEncodingAndTypeAtChunkSize) {
  for (const auto& [enc, type] : kEncodingTypes) {
    const ColumnVector col = RunColumn(type, kChunkRows, 43);
    // What the input implies: the end row of each run, and dictionary
    // codes numbered in order of first appearance.
    std::vector<uint32_t> run_ends;
    for (size_t i = 1; i <= col.size(); ++i) {
      if (i == col.size() || col.CompareAt(i, col, i - 1) != 0) {
        run_ends.push_back(static_cast<uint32_t>(i));
      }
    }
    std::vector<uint32_t> codes;
    if (type == TypeId::kString) {
      std::unordered_map<std::string, uint32_t> first_seen;
      for (size_t i = 0; i < col.size(); ++i) {
        auto it = first_seen
                      .emplace(col.StringAt(i),
                               static_cast<uint32_t>(first_seen.size()))
                      .first;
        codes.push_back(it->second);
      }
    }
    std::string bytes;
    ASSERT_TRUE(EncodeColumn(col, enc, &bytes).ok());
    for (bool keep_encoded : {false, true}) {
      SCOPED_TRACE(std::string(EncodingToString(enc)) + " " +
                   TypeIdToString(type) +
                   (keep_encoded ? " keep_encoded" : " plain"));
      ColumnVector out;
      ASSERT_TRUE(
          DecodeColumn(bytes, type, enc, kChunkRows, &out, keep_encoded)
              .ok());
      ASSERT_EQ(out.size(), kChunkRows);
      for (size_t i = 0; i < kChunkRows; ++i) {
        ASSERT_EQ(out.CompareAt(i, col, i), 0) << "row " << i;
      }
      // Kept-encoded RLE strings are dictionary codes too.
      const bool dict =
          keep_encoded && (enc == Encoding::kDict ||
                           (enc == Encoding::kRle && type == TypeId::kString));
      const bool runs = keep_encoded && enc == Encoding::kRle;
      ASSERT_EQ(out.is_dict(), dict);
      ASSERT_EQ(out.rle_runs() != nullptr, runs);
      if (dict) {
        EXPECT_EQ(std::vector<uint32_t>(out.codes_data(),
                                        out.codes_data() + out.size()),
                  codes);
        const StringDict& d = *out.dict();
        ASSERT_EQ(d.hashes.size(), d.values.size());
        for (size_t c = 0; c < d.values.size(); ++c) {
          EXPECT_EQ(d.hashes[c],
                    HashBytes(d.values[c].data(), d.values[c].size()));
        }
      }
      if (runs) {
        EXPECT_EQ(out.rle_runs()->ends, run_ends);
      }
    }
  }
}

// Decodes `payload` as a delta column of `count` rows.
Status DecodeDelta(const std::string& payload, size_t count,
                   ColumnVector* out) {
  return DecodeColumn(payload, TypeId::kInt64, Encoding::kDeltaVarint, count,
                      out);
}

TEST(DecodeKernelTest, VarintsOfEveryLengthInsideAndOutsideTheTail) {
  for (int len = 1; len <= 10; ++len) {
    // The smallest and largest values that take exactly `len` bytes.
    const uint64_t lo = len == 1 ? 0 : 1ULL << (7 * (len - 1));
    const uint64_t hi = len == 10 ? ~0ULL : (1ULL << (7 * len)) - 1;
    for (uint64_t v : {lo, hi}) {
      std::string varint;
      PutVarint64(&varint, v);
      ASSERT_EQ(varint.size(), static_cast<size_t>(len));
      const int64_t want = ZigZagDecode(v);
      // Outside the last 10 bytes: ten one-byte zero deltas follow.
      std::string head = varint + std::string(10, '\0');
      ColumnVector out;
      ASSERT_TRUE(DecodeDelta(head, 11, &out).ok()) << len;
      EXPECT_EQ(out.ints(), std::vector<int64_t>(11, want)) << len;
      // Inside the last 10 bytes: the varint ends the payload.
      std::string tail = std::string(1, '\0') + varint;
      ASSERT_TRUE(DecodeDelta(tail, 2, &out).ok()) << len;
      EXPECT_EQ(out.ints(), (std::vector<int64_t>{0, want})) << len;
      // A varint one byte short is truncated in either position.
      std::string cut = varint.substr(0, varint.size() - 1);
      if (!cut.empty()) {
        EXPECT_EQ(DecodeDelta(cut, 1, &out).code(), StatusCode::kCorruption);
      }
    }
  }
  // Eleven continuation bytes are overlong, in the fast window and in
  // the tail.
  ColumnVector out;
  EXPECT_EQ(DecodeDelta(std::string(11, '\xff') + std::string(10, '\0'), 2,
                        &out)
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecodeDelta(std::string(9, '\xff'), 1, &out).code(),
            StatusCode::kCorruption);
}

TEST(DecodeKernelTest, EveryPrefixTruncationIsCorruption) {
  for (const auto& [enc, type] : kEncodingTypes) {
    const ColumnVector col = RunColumn(type, 40, 47);
    std::string bytes;
    ASSERT_TRUE(EncodeColumn(col, enc, &bytes).ok());
    for (bool keep_encoded : {false, true}) {
      for (size_t len = 0; len < bytes.size(); ++len) {
        ColumnVector out;
        EXPECT_EQ(DecodeColumn(bytes.substr(0, len), type, enc, col.size(),
                               &out, keep_encoded)
                      .code(),
                  StatusCode::kCorruption)
            << EncodingToString(enc) << " " << TypeIdToString(type)
            << " prefix " << len << " of " << bytes.size();
      }
    }
  }
}

TEST(DecodeKernelTest, RleRunLengthCannotWrapPastTheRowCount) {
  // Run 1 of 42, then a run of 2^64 - 1 sevens, decoded as 2 rows:
  // produced + run wraps to 0, so only `run > count - produced` sees the
  // overrun.
  std::string payload;
  PutVarint64(&payload, 1);
  PutFixed64(&payload, 42);
  PutVarint64(&payload, ~0ULL);
  PutFixed64(&payload, 7);
  for (bool keep_encoded : {false, true}) {
    ColumnVector out;
    EXPECT_EQ(DecodeColumn(payload, TypeId::kInt64, Encoding::kRle, 2, &out,
                           keep_encoded)
                  .code(),
              StatusCode::kCorruption);
  }
}

// A kept-encoded RLE string chunk is one code per row over a dictionary
// of the distinct run values — a value that returns in a later run reuses
// its code — plus the run sidecar, and reads back as the plain decode.
TEST(DecodeKernelTest, RleStringsKeepDistinctDictionaryCodes) {
  const ColumnVector col = RunColumn(TypeId::kString, kChunkRows, 53);
  std::string bytes;
  ASSERT_TRUE(EncodeColumn(col, Encoding::kRle, &bytes).ok());
  ColumnVector plain, coded;
  ASSERT_TRUE(DecodeColumn(bytes, TypeId::kString, Encoding::kRle,
                           kChunkRows, &plain)
                  .ok());
  ASSERT_TRUE(DecodeColumn(bytes, TypeId::kString, Encoding::kRle,
                           kChunkRows, &coded, /*keep_encoded=*/true)
                  .ok());
  ASSERT_FALSE(plain.is_dict());
  ASSERT_TRUE(coded.is_dict());
  ASSERT_EQ(coded.size(), kChunkRows);
  const StringDict& d = *coded.dict();
  std::unordered_map<std::string, uint32_t> entries;
  for (uint32_t c = 0; c < d.values.size(); ++c) {
    EXPECT_TRUE(entries.emplace(d.values[c], c).second)
        << "entry " << c << " repeats " << d.values[c];
    EXPECT_EQ(d.hashes[c], HashBytes(d.values[c].data(), d.values[c].size()));
  }
  const RleRuns* runs = coded.rle_runs();
  ASSERT_NE(runs, nullptr);
  // 50 values over far more runs: values return, and keep their code.
  EXPECT_LE(d.values.size(), 50u);
  EXPECT_GT(runs->ends.size(), 2 * d.values.size());
  const uint32_t* codes = coded.codes_data();
  uint32_t begin = 0;
  for (uint32_t end : runs->ends) {
    ASSERT_LT(begin, end);
    for (uint32_t i = begin; i < end; ++i) {
      ASSERT_EQ(codes[i], codes[begin]) << "row " << i;
    }
    if (end < kChunkRows) EXPECT_NE(codes[end], codes[begin]);
    begin = end;
  }
  EXPECT_EQ(begin, kChunkRows);
  for (size_t i = 0; i < kChunkRows; ++i) {
    ASSERT_EQ(coded.StringAt(i), plain.StringAt(i)) << "row " << i;
    ASSERT_EQ(entries.at(plain.StringAt(i)), codes[i]) << "row " << i;
  }

  // A run past the row count, a wrapping run length, and a truncated
  // value are Corruption and leave no dictionary behind.
  std::string overrun, wrap, truncated;
  PutVarint64(&overrun, 2);
  PutVarint64(&overrun, 1);
  overrun.append("a");
  PutVarint64(&overrun, 5);
  PutVarint64(&overrun, 1);
  overrun.append("b");
  PutVarint64(&wrap, 1);
  PutVarint64(&wrap, 1);
  wrap.append("a");
  PutVarint64(&wrap, ~0ULL);
  PutVarint64(&wrap, 1);
  wrap.append("b");
  PutVarint64(&truncated, 3);
  PutVarint64(&truncated, 4);
  truncated.append("ab");
  for (const std::string& payload : {overrun, wrap, truncated}) {
    ColumnVector out;
    EXPECT_EQ(DecodeColumn(payload, TypeId::kString, Encoding::kRle, 3, &out,
                           /*keep_encoded=*/true)
                  .code(),
              StatusCode::kCorruption);
    EXPECT_FALSE(out.is_dict());
  }
}

// Allocated rows of a column's plain storage.
size_t PlainCapacity(ColumnVector* col) {
  switch (col->type()) {
    case TypeId::kInt64:
      return col->ints().capacity();
    case TypeId::kDouble:
      return col->doubles().capacity();
    case TypeId::kString:
      return col->strings().capacity();
  }
  return 0;
}

TEST(DecodeKernelTest, HugeRowCountIsCorruptionWithoutAllocating) {
  const size_t huge = size_t{1} << 40;
  std::string ints;
  PutFixed64(&ints, 1);
  PutFixed64(&ints, 2);
  ASSERT_EQ(ints.size(), 16u);
  ColumnVector out;
  EXPECT_EQ(DecodeColumn(ints, TypeId::kInt64, Encoding::kPlain, huge, &out)
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(PlainCapacity(&out), 0u);
  // Every kernel proves the count before sizing.
  for (const auto& [enc, type] : kEncodingTypes) {
    const ColumnVector col = RunColumn(type, 16, 53);
    std::string bytes;
    ASSERT_TRUE(EncodeColumn(col, enc, &bytes).ok());
    for (bool keep_encoded : {false, true}) {
      ColumnVector big;
      EXPECT_EQ(
          DecodeColumn(bytes, type, enc, huge, &big, keep_encoded).code(),
          StatusCode::kCorruption)
          << EncodingToString(enc) << " " << TypeIdToString(type);
      ASSERT_FALSE(big.is_dict());
      EXPECT_EQ(PlainCapacity(&big), 0u);
    }
  }
}

class EncodingRandomTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(EncodingRandomTest, RandomRoundtrips) {
  auto [enc_int, seed] = GetParam();
  Random rng(seed);
  Encoding enc = static_cast<Encoding>(enc_int);
  // Random int columns for every encoding that supports ints.
  if (enc != Encoding::kDict) {
    std::vector<int64_t> vals;
    for (int i = 0; i < 500; ++i) {
      // FOR cannot represent full-width ranges; keep its input narrow.
      vals.push_back(enc == Encoding::kForBitPack
                         ? rng.UniformRange(-100000, 100000)
                         : (rng.Bernoulli(0.5)
                                ? rng.UniformRange(-5, 5)
                                : static_cast<int64_t>(rng.Next())));
    }
    ExpectRoundtrip(Ints(vals), enc);
  }
  if (enc == Encoding::kPlain || enc == Encoding::kRle ||
      enc == Encoding::kDict) {
    std::vector<std::string> vals;
    for (int i = 0; i < 300; ++i) {
      vals.push_back(rng.NextString(rng.Uniform(12)));
    }
    ExpectRoundtrip(Strings(vals), enc);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EncodingRandomTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(101, 102, 103)));

}  // namespace
}  // namespace pdtstore
