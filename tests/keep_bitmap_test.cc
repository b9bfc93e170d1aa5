// KeepBitmap unit + property tests: word-boundary tails (n = 63/64/65),
// the all-ones/all-zeros fast paths, AND/OR fusion equivalence against a
// byte-wise reference, FromKeep equivalence against the byte-per-row
// reference expansion, and the fused multi-predicate filter paths
// (FilterNode conjunction, Pipeline filter fusion, And/Or combinators).
#include "columnstore/keep_bitmap.h"

#include <gtest/gtest.h>

#include <vector>

#include "columnstore/batch.h"
#include "columnstore/sel_vector.h"
#include "exec/filter.h"
#include "exec/operator.h"
#include "exec/scan_node.h"
#include "util/random.h"

namespace pdtstore {
namespace {

// Byte-wise reference model for a bitmap state.
std::vector<uint8_t> RandomBytes(size_t n, double density, Random* rng) {
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = rng->Bernoulli(density) ? 1 : 0;
  return bytes;
}

KeepBitmap FromBytes(const std::vector<uint8_t>& bytes) {
  KeepBitmap bm;
  bm.Reset(bytes.size());
  for (size_t i = 0; i < bytes.size(); ++i) bm.SetTo(i, bytes[i] != 0);
  return bm;
}

void ExpectMatchesBytes(const KeepBitmap& bm,
                        const std::vector<uint8_t>& bytes) {
  ASSERT_EQ(bm.size(), bytes.size());
  size_t set = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    EXPECT_EQ(bm.Test(i), bytes[i] != 0) << "bit " << i;
    set += bytes[i] != 0;
  }
  EXPECT_EQ(bm.CountSet(), set);
  // The tail bits past size() must be zero whatever the row bits are.
  if (bm.num_words() > 0) {
    EXPECT_EQ(bm.words()[bm.num_words() - 1] &
                  ~KeepBitmap::TailMask(bm.size()),
              0u);
  }
}

// The sizes every bitmap property is checked at: word-boundary tails
// (63/64/65), sub-word, multi-word, and empty.
const size_t kSizes[] = {0, 1, 5, 63, 64, 65, 127, 128, 129, 1000};

TEST(KeepBitmapTest, ResetAndSetAcrossWordBoundaries) {
  Random rng(101);
  for (size_t n : kSizes) {
    KeepBitmap bm;
    bm.Reset(n);
    EXPECT_EQ(bm.size(), n);
    EXPECT_EQ(bm.num_words(), (n + 63) / 64);
    EXPECT_TRUE(bm.None());
    EXPECT_EQ(bm.All(), n == 0);
    EXPECT_EQ(bm.CountSet(), 0u);

    auto bytes = RandomBytes(n, 0.5, &rng);
    KeepBitmap built = FromBytes(bytes);
    ExpectMatchesBytes(built, bytes);
  }
}

TEST(KeepBitmapTest, AllOnesAndAllZerosFastPaths) {
  for (size_t n : kSizes) {
    KeepBitmap ones;
    ones.ResetAllSet(n);
    EXPECT_TRUE(ones.All()) << n;
    EXPECT_EQ(ones.None(), n == 0) << n;
    EXPECT_EQ(ones.CountSet(), n);
    ExpectMatchesBytes(ones, std::vector<uint8_t>(n, 1));
    // FromKeep's full-word bulk append must agree with the per-bit path.
    SelVector sel = SelVector::FromKeep(ones);
    ASSERT_EQ(sel.size(), n);
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(sel[i], i);

    KeepBitmap zeros;
    zeros.Reset(n);
    EXPECT_TRUE(SelVector::FromKeep(zeros).empty());
    // One cleared bit breaks All(); one set bit breaks None().
    if (n > 0) {
      KeepBitmap almost;
      almost.ResetAllSet(n);
      almost.words()[(n - 1) >> 6] ^= uint64_t{1} << ((n - 1) & 63);
      EXPECT_FALSE(almost.All());
      EXPECT_EQ(almost.CountSet(), n - 1);
      zeros.Set(n - 1);
      EXPECT_FALSE(zeros.None());
    }
  }
}

TEST(KeepBitmapTest, FromKeepMatchesByteReference) {
  Random rng(202);
  for (size_t n : kSizes) {
    for (double density : {0.0, 0.01, 0.5, 0.99, 1.0}) {
      auto bytes = RandomBytes(n, density, &rng);
      SelVector ref = SelVector::FromKeep(bytes.data(), n);
      SelVector got = SelVector::FromKeep(FromBytes(bytes));
      ASSERT_EQ(got.indices(), ref.indices())
          << "n=" << n << " density=" << density;
    }
  }
}

TEST(KeepBitmapTest, AndOrFusionMatchesByteReference) {
  Random rng(303);
  for (size_t n : kSizes) {
    auto a = RandomBytes(n, 0.6, &rng);
    auto b = RandomBytes(n, 0.4, &rng);

    KeepBitmap conj = FromBytes(a);
    conj.And(FromBytes(b));
    std::vector<uint8_t> conj_ref(n);
    for (size_t i = 0; i < n; ++i) conj_ref[i] = a[i] & b[i];
    ExpectMatchesBytes(conj, conj_ref);

    KeepBitmap disj = FromBytes(a);
    disj.Or(FromBytes(b));
    std::vector<uint8_t> disj_ref(n);
    for (size_t i = 0; i < n; ++i) disj_ref[i] = a[i] | b[i];
    ExpectMatchesBytes(disj, disj_ref);
  }
}

TEST(KeepBitmapTest, FillFromPacksWordsAndMasksTail) {
  for (size_t n : kSizes) {
    KeepBitmap bm;
    bm.Reset(n);
    bm.FillFrom([](size_t i) { return i % 3 == 0; });
    std::vector<uint8_t> ref(n);
    for (size_t i = 0; i < n; ++i) ref[i] = i % 3 == 0;
    ExpectMatchesBytes(bm, ref);

    // A constant-true fill must produce the canonical all-set state.
    bm.Reset(n);
    bm.FillFrom([](size_t) { return true; });
    EXPECT_TRUE(bm.All()) << n;
  }
}

TEST(KeepBitmapTest, FillFromMatchesPerBitReferenceOncePerRowInOrder) {
  // Every n in 0..130 covers empty, sub-word, exact-word and two-word
  // shapes with every tail length; 1024 is the engine's batch size.
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 130; ++n) sizes.push_back(n);
  sizes.push_back(1024);
  Random rng(103);
  for (size_t n : sizes) {
    std::vector<std::vector<uint8_t>> patterns;
    patterns.emplace_back(n, 0);
    patterns.emplace_back(n, 1);
    std::vector<uint8_t> alternating(n);
    for (size_t i = 0; i < n; ++i) alternating[i] = i % 2;
    patterns.push_back(std::move(alternating));
    patterns.push_back(RandomBytes(n, 0.5, &rng));
    for (const auto& pattern : patterns) {
      KeepBitmap bm;
      bm.Reset(n);
      std::vector<size_t> calls;
      bm.FillFrom([&](size_t i) {
        calls.push_back(i);
        return pattern[i] != 0;
      });
      ASSERT_EQ(calls.size(), n) << "n=" << n;
      for (size_t i = 0; i < n; ++i) ASSERT_EQ(calls[i], i) << "n=" << n;
      // The reference: one SetTo per row into a zeroed bitmap.
      KeepBitmap ref = FromBytes(pattern);
      for (size_t w = 0; w < bm.num_words(); ++w) {
        ASSERT_EQ(bm.words()[w], ref.words()[w]) << "n=" << n << " w=" << w;
      }
      ExpectMatchesBytes(bm, pattern);
    }
  }
}

// --- the predicate path on top of the bitmap ---

Batch IntBatch(const std::vector<int64_t>& vals) {
  Batch b;
  ColumnVector col(TypeId::kInt64);
  col.ints() = vals;
  b.columns().push_back(std::move(col));
  b.set_column_ids({0});
  return b;
}

std::vector<int64_t> Drain(BatchSource* src) {
  std::vector<int64_t> out;
  Batch batch;
  while (true) {
    auto more = src->Next(&batch, 70);  // odd batch size: hostile tails
    EXPECT_TRUE(more.ok());
    if (!more.ok() || !*more) break;
    for (int64_t v : batch.column(0).ints()) out.push_back(v);
  }
  return out;
}

TEST(KeepBitmapTest, FilterNodeFusedConjunctionMatchesChained) {
  Random rng(404);
  std::vector<int64_t> vals(1000);
  for (auto& v : vals) v = static_cast<int64_t>(rng.Uniform(100));
  std::vector<VecPredicate> preds{Int64Between(0, 10, 80),
                                  Int64Between(0, 0, 60),
                                  Int64Between(0, 20, 99)};

  // Chained single-predicate nodes (each materializes an intermediate).
  std::unique_ptr<BatchSource> chained =
      std::make_unique<VectorSource>(IntBatch(vals));
  for (const auto& p : preds) {
    chained = std::make_unique<FilterNode>(std::move(chained), p);
  }
  // One fused node: word-wise AND, one compaction.
  FilterNode fused(std::make_unique<VectorSource>(IntBatch(vals)), preds);

  std::vector<int64_t> want;
  for (int64_t v : vals) {
    if (v >= 20 && v <= 60) want.push_back(v);
  }
  EXPECT_EQ(Drain(chained.get()), want);
  EXPECT_EQ(Drain(&fused), want);
}

TEST(KeepBitmapTest, AndOrCombinatorsOnOperators) {
  std::vector<int64_t> vals;
  for (int64_t i = 0; i < 300; ++i) vals.push_back(i);

  FilterNode conj(std::make_unique<VectorSource>(IntBatch(vals)),
                  And({Int64Between(0, 50, 250), Int64Between(0, 0, 99)}));
  std::vector<int64_t> conj_want;
  for (int64_t i = 50; i <= 99; ++i) conj_want.push_back(i);
  EXPECT_EQ(Drain(&conj), conj_want);

  FilterNode disj(std::make_unique<VectorSource>(IntBatch(vals)),
                  Or({Int64Between(0, 0, 10), Int64Between(0, 290, 299)}));
  std::vector<int64_t> disj_want;
  for (int64_t i = 0; i <= 10; ++i) disj_want.push_back(i);
  for (int64_t i = 290; i <= 299; ++i) disj_want.push_back(i);
  EXPECT_EQ(Drain(&disj), disj_want);

  // Degenerate combinators: And of one, Or that saturates (all rows
  // match the first branch — the early-exit path).
  FilterNode one(std::make_unique<VectorSource>(IntBatch(vals)),
                 And({Int64Between(0, 100, 200)}));
  std::vector<int64_t> one_want;
  for (int64_t i = 100; i <= 200; ++i) one_want.push_back(i);
  EXPECT_EQ(Drain(&one), one_want);

  FilterNode sat(std::make_unique<VectorSource>(IntBatch(vals)),
                 Or({Int64Between(0, 0, 299), Int64Between(0, 5, 6)}));
  EXPECT_EQ(Drain(&sat), vals);

  // The identity of conjunction: an empty AND (and a FilterNode with no
  // predicates) keeps every row.
  FilterNode empty_and(std::make_unique<VectorSource>(IntBatch(vals)),
                       And({}));
  EXPECT_EQ(Drain(&empty_and), vals);
  FilterNode no_preds(std::make_unique<VectorSource>(IntBatch(vals)),
                      std::vector<VecPredicate>{});
  EXPECT_EQ(Drain(&no_preds), vals);
}

TEST(KeepBitmapTest, TableScanNodePredicatePushdown) {
  auto made = Schema::Make({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}},
                           {0});
  auto schema = std::make_shared<const Schema>(std::move(*made));
  Table table("t", schema, {});
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 400; ++i) rows.push_back({i, i % 10});
  ASSERT_TRUE(table.Load(rows).ok());
  // Updates so the pushed-down predicate runs over a real merge.
  ASSERT_TRUE(table.Insert({1000, int64_t{3}}).ok());
  ASSERT_TRUE(table.DeleteByKey({Value(int64_t{13})}).ok());

  auto pushed =
      TableScanNode(table, {0, 1}, nullptr, {}, Int64Between(1, 3, 3));
  auto got = CollectRows(pushed.get());
  ASSERT_TRUE(got.ok());

  auto plain = TableScanNode(table, {0, 1});
  auto all = CollectRows(plain.get());
  ASSERT_TRUE(all.ok());
  std::vector<Tuple> want;
  for (const Tuple& t : *all) {
    if (t[1].AsInt64() == 3) want.push_back(t);
  }
  EXPECT_EQ(*got, want);
  EXPECT_FALSE(want.empty());
}

TEST(KeepBitmapTest, FilterNodeAllAndNoneFastPaths) {
  std::vector<int64_t> vals;
  for (int64_t i = 0; i < 500; ++i) vals.push_back(i);

  // Everything survives: the swap fast path must still deliver all rows.
  FilterNode all(std::make_unique<VectorSource>(IntBatch(vals)),
                 Int64Between(0, -1, 1000));
  EXPECT_EQ(Drain(&all), vals);

  // Nothing survives: Next() must report end-of-stream, not spin.
  FilterNode none(std::make_unique<VectorSource>(IntBatch(vals)),
                  Int64Between(0, 1000, 2000));
  EXPECT_TRUE(Drain(&none).empty());
}

}  // namespace
}  // namespace pdtstore
