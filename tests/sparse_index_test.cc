// Sparse-index tests, including the paper's staleness property: because
// PDT SIDs respect ghost tuples, a zone-map built on TABLE0 keeps
// returning a correct (superset) SID interval after arbitrary PDT
// updates.
#include "storage/sparse_index.h"

#include <gtest/gtest.h>

#include "pdt/merge_scan.h"
#include "test_util.h"
#include "util/random.h"

namespace pdtstore {
namespace {

using testutil::BuildStore;
using testutil::ModelTable;

std::shared_ptr<const Schema> IntSchema() {
  auto s = Schema::Make({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}, {0});
  return std::make_shared<const Schema>(std::move(*s));
}

std::vector<Tuple> IntRows(int n, int64_t gap = 10) {
  std::vector<Tuple> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({static_cast<int64_t>(i) * gap, int64_t{i}});
  }
  return rows;
}

TEST(SparseIndexTest, BuildAndLookup) {
  auto schema = IntSchema();
  auto store = BuildStore(schema, IntRows(100), {.chunk_rows = 10});
  auto index = SparseIndex::Build(*store);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->entries().size(), 10u);
  // Keys 0..990 in chunks of 10 keys (gap 10): key 345 is in chunk 3.
  EXPECT_EQ(index->LookupRange({Value(340)}, {Value(350)}),
            (SidRange{30, 40}));
  // A range spanning a chunk boundary covers both chunks: keys 95..205
  // touch chunks 1 (100..190) and 2 (200..290); chunk 0's max key
  // 90 < 95 excludes it.
  EXPECT_EQ(index->LookupRange({Value(95)}, {Value(205)}),
            (SidRange{10, 30}));
  // Unbounded sides.
  EXPECT_EQ(index->LookupRange({}, {Value(15)}), (SidRange{0, 10}));
  EXPECT_EQ(index->LookupRange({Value(985)}, {}), (SidRange{90, 100}));
  EXPECT_EQ(index->LookupRange({}, {}), (SidRange{0, 100}));
  // Out of domain on either side: no chunk qualifies, so the lookup
  // falls back to the whole table (inserts past either end stay
  // reachable).
  EXPECT_EQ(index->LookupRange({Value(99999)}, {Value(999999)}),
            (SidRange{0, 100}));
  EXPECT_EQ(index->LookupRange({Value(-50)}, {Value(-10)}),
            (SidRange{0, 100}));
}

TEST(SparseIndexTest, LowerBoundSid) {
  auto schema = IntSchema();
  auto store = BuildStore(schema, IntRows(100), {.chunk_rows = 10});
  auto index = SparseIndex::Build(*store);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->LowerBoundSid({Value(0)}), 0u);
  EXPECT_EQ(index->LowerBoundSid({Value(101)}), 10u);  // chunk granularity
  EXPECT_EQ(index->LowerBoundSid({Value(99999)}), 100u);
}

TEST(SparseIndexTest, CompoundKeyPrefixLookup) {
  auto schema = testutil::InventorySchema();
  auto store = BuildStore(schema, testutil::InventoryRows(),
                          {.chunk_rows = 2});
  auto index = SparseIndex::Build(*store);
  ASSERT_TRUE(index.ok());
  // Chunks {0,1} {2,3} {4}: the Paris rows (sids 3, 4) sit in the last
  // two, which the one interval covers exactly.
  EXPECT_EQ(index->LookupRange({Value("Paris")}, {Value("Paris")}),
            (SidRange{2, 5}));
}

// The "Respecting Deletes" property as a randomized invariant: after any
// update mix, a range scan restricted by the *stale* index returns
// exactly the rows a full-scan-and-filter returns.
class StaleIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StaleIndexPropertyTest, StaleRangesRemainCorrect) {
  auto schema = IntSchema();
  auto base = IntRows(500, 10);
  auto store = BuildStore(schema, base, {.chunk_rows = 32});
  auto index = SparseIndex::Build(*store);
  ASSERT_TRUE(index.ok());
  ModelTable model(schema, base);
  Random rng(GetParam());
  for (int op = 0; op < 300; ++op) {
    double dice = rng.NextDouble();
    if (dice < 0.45 || model.size() == 0) {
      (void)model.Insert({rng.UniformRange(0, 5555), int64_t{op}});
    } else if (dice < 0.75) {
      ASSERT_TRUE(model.DeleteAt(rng.Uniform(model.size())).ok());
    } else {
      ASSERT_TRUE(
          model.ModifyAt(rng.Uniform(model.size()), 1, Value(op)).ok());
    }
  }
  for (int trial = 0; trial < 20; ++trial) {
    int64_t lo = rng.UniformRange(0, 5000);
    int64_t hi = lo + rng.UniformRange(0, 1500);
    // Restricted scan through the stale index...
    const SidRange range = index->LookupRange({Value(lo)}, {Value(hi)});
    auto scan = MakeMergeScan(*store, {model.pdt()}, {0, 1}, range);
    auto got = CollectRows(scan.get());
    ASSERT_TRUE(got.ok());
    std::vector<Tuple> got_filtered;
    for (const auto& t : *got) {
      if (t[0].AsInt64() >= lo && t[0].AsInt64() <= hi) {
        got_filtered.push_back(t);
      }
    }
    // ...must equal the model rows in range.
    std::vector<Tuple> expected;
    for (const auto& t : model.rows()) {
      if (t[0].AsInt64() >= lo && t[0].AsInt64() <= hi) {
        expected.push_back(t);
      }
    }
    EXPECT_EQ(got_filtered, expected)
        << "range [" << lo << "," << hi << "] trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaleIndexPropertyTest,
                         ::testing::Values(41, 42, 43, 44));

}  // namespace
}  // namespace pdtstore
