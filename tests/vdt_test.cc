// VDT unit tests: insert/delete/modify table semantics (Sec. 2, "VDTs"),
// the value-based merge scan (MergeUnion/MergeDiff), forced SK scanning,
// and key-bounded scans.
#include "vdt/vdt.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "vdt/vdt_merge_scan.h"

namespace pdtstore {
namespace {

using testutil::BuildStore;
using testutil::InventoryRows;
using testutil::InventorySchema;

std::vector<Tuple> VdtScan(const ColumnStore& store, const Vdt& vdt,
                           std::vector<ColumnId> projection,
                           KeyBounds bounds = {}, size_t batch = 1024) {
  VdtMergeScan scan(&store, &vdt, std::move(projection), store.FullRange(),
                    std::move(bounds));
  auto rows = CollectRows(&scan, batch);
  EXPECT_TRUE(rows.ok());
  return rows.ok() ? *rows : std::vector<Tuple>{};
}

class VdtTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = InventorySchema();
    store_ = BuildStore(schema_, InventoryRows());
    vdt_ = std::make_unique<Vdt>(schema_);
  }
  std::shared_ptr<const Schema> schema_;
  std::unique_ptr<ColumnStore> store_;
  std::unique_ptr<Vdt> vdt_;
};

TEST_F(VdtTest, InsertTableHoldsFullTuples) {
  ASSERT_TRUE(vdt_->AddInsert({"Berlin", "table", "Y", 10}).ok());
  EXPECT_EQ(vdt_->InsertCount(), 1u);
  EXPECT_EQ(vdt_->TotalDelta(), 1);
  const Tuple* t = vdt_->FindInsert({Value("Berlin"), Value("table")});
  ASSERT_NE(t, nullptr);
  EXPECT_EQ((*t)[3], Value(10));
  // Duplicate insert rejected.
  EXPECT_EQ(vdt_->AddInsert({"Berlin", "table", "Y", 99}).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(VdtTest, ModifyEntersBothTables) {
  // "an insert table that ... holds all inserted and modified tuples, and
  // a deletion table that only holds the sort key values of deleted or
  // modified tuples."
  ASSERT_TRUE(vdt_->AddModify({"London", "stool", "N", 9}, true).ok());
  EXPECT_EQ(vdt_->InsertCount(), 1u);
  EXPECT_EQ(vdt_->DeleteCount(), 1u);
  EXPECT_EQ(vdt_->TotalDelta(), 0);
  EXPECT_TRUE(vdt_->IsDeleted({Value("London"), Value("stool")}));
}

TEST_F(VdtTest, DeleteOfInsertErases) {
  ASSERT_TRUE(vdt_->AddInsert({"Berlin", "table", "Y", 10}).ok());
  ASSERT_TRUE(
      vdt_->AddDelete({Value("Berlin"), Value("table")}, false).ok());
  EXPECT_TRUE(vdt_->Empty());
}

TEST_F(VdtTest, MergeScanAppliesAllUpdateKinds) {
  ASSERT_TRUE(vdt_->AddInsert({"Berlin", "table", "Y", 10}).ok());
  ASSERT_TRUE(vdt_->AddModify({"London", "stool", "N", 9}, true).ok());
  ASSERT_TRUE(vdt_->AddDelete({Value("Paris"), Value("rug")}, true).ok());
  std::vector<Tuple> expected = {
      {"Berlin", "table", "Y", 10}, {"London", "chair", "N", 30},
      {"London", "stool", "N", 9},  {"London", "table", "N", 20},
      {"Paris", "stool", "N", 5},
  };
  EXPECT_EQ(VdtScan(*store_, *vdt_, {0, 1, 2, 3}), expected);
  // Small batches exercise the resume paths.
  EXPECT_EQ(VdtScan(*store_, *vdt_, {0, 1, 2, 3}, {}, 2), expected);
}

TEST_F(VdtTest, TrailingInsertsAfterStableEnd) {
  ASSERT_TRUE(vdt_->AddInsert({"Zurich", "vase", "Y", 3}).ok());
  ASSERT_TRUE(vdt_->AddInsert({"Zurich", "wand", "Y", 4}).ok());
  auto rows = VdtScan(*store_, *vdt_, {0, 1, 2, 3});
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows[5][1], Value("vase"));
  EXPECT_EQ(rows[6][1], Value("wand"));
}

TEST_F(VdtTest, ProjectionWithoutKeysStillMergesCorrectly) {
  // The scan itself must read the SK columns even though the caller only
  // wants qty — that is the architectural cost under study.
  ASSERT_TRUE(vdt_->AddModify({"London", "stool", "N", 9}, true).ok());
  auto rows = VdtScan(*store_, *vdt_, {3});
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[1][0], Value(9));
}

TEST_F(VdtTest, EmptyVdtIsIdentity) {
  EXPECT_EQ(VdtScan(*store_, *vdt_, {0, 1, 2, 3}), InventoryRows());
}

TEST_F(VdtTest, EmptyStableTableDrainsInserts) {
  auto empty_store = BuildStore(schema_, {});
  ASSERT_TRUE(vdt_->AddInsert({"A", "a", "Y", 1}).ok());
  ASSERT_TRUE(vdt_->AddInsert({"B", "b", "Y", 2}).ok());
  auto rows = VdtScan(*empty_store, *vdt_, {0, 1, 2, 3});
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(VdtTest, KeyBoundsRestrictInsertEmission) {
  ASSERT_TRUE(vdt_->AddInsert({"Aachen", "mat", "Y", 1}).ok());
  ASSERT_TRUE(vdt_->AddInsert({"Madrid", "sofa", "Y", 2}).ok());
  ASSERT_TRUE(vdt_->AddInsert({"Zurich", "vase", "Y", 3}).ok());
  KeyBounds bounds;
  bounds.lo = {Value("London")};
  bounds.hi = {Value("Paris")};
  auto rows = VdtScan(*store_, *vdt_, {0, 1, 2, 3}, bounds);
  // Aachen (< lo) and Zurich (> hi) inserts are excluded; Madrid stays.
  bool has_madrid = false;
  for (const auto& t : rows) {
    EXPECT_NE(t[0], Value("Aachen"));
    EXPECT_NE(t[0], Value("Zurich"));
    if (t[0] == Value("Madrid")) has_madrid = true;
  }
  EXPECT_TRUE(has_madrid);
}

TEST_F(VdtTest, MemoryAccountingGrows) {
  size_t before = vdt_->MemoryBytes();
  ASSERT_TRUE(vdt_->AddInsert({"Berlin", "table", "Y", 10}).ok());
  EXPECT_GT(vdt_->MemoryBytes(), before);
  vdt_->Clear();
  EXPECT_TRUE(vdt_->Empty());
}

}  // namespace
}  // namespace pdtstore
