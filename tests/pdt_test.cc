// Core PDT tests: the paper's running example (Figures 1-13), update
// chain semantics (in-place rules of Sec. 2.1), SID/RID mapping, and
// randomized property tests against a row-store reference model.
#include "pdt/pdt.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "pdt/merge_scan.h"
#include "test_util.h"
#include "util/random.h"

namespace pdtstore {
namespace {

using testutil::AllColumns;
using testutil::BuildStore;
using testutil::InventoryRows;
using testutil::InventorySchema;
using testutil::MergedRows;
using testutil::ModelTable;

class PdtPaperExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = InventorySchema();
    store_ = BuildStore(schema_, InventoryRows());
    ASSERT_NE(store_, nullptr);
    model_ = std::make_unique<ModelTable>(schema_, InventoryRows());
  }

  // Applies BATCH1 of Figure 2.
  void ApplyBatch1() {
    ASSERT_TRUE(model_->Insert({"Berlin", "table", "Y", 10}).ok());
    ASSERT_TRUE(model_->Insert({"Berlin", "cloth", "Y", 5}).ok());
    ASSERT_TRUE(model_->Insert({"Berlin", "chair", "Y", 20}).ok());
  }

  // Applies BATCH2 of Figure 6.
  void ApplyBatch2() {
    Rid rid = 0;
    ASSERT_TRUE(model_->FindKey({Value("Berlin"), Value("cloth")}, &rid));
    ASSERT_TRUE(model_->ModifyAt(rid, 3, Value(1)).ok());
    ASSERT_TRUE(model_->FindKey({Value("London"), Value("stool")}, &rid));
    ASSERT_TRUE(model_->ModifyAt(rid, 3, Value(9)).ok());
    ASSERT_TRUE(model_->FindKey({Value("Berlin"), Value("table")}, &rid));
    ASSERT_TRUE(model_->DeleteAt(rid).ok());
    ASSERT_TRUE(model_->FindKey({Value("Paris"), Value("rug")}, &rid));
    ASSERT_TRUE(model_->DeleteAt(rid).ok());
  }

  // Applies BATCH3 of Figure 10.
  void ApplyBatch3() {
    ASSERT_TRUE(model_->Insert({"Paris", "rack", "Y", 4}).ok());
    ASSERT_TRUE(model_->Insert({"London", "rack", "Y", 4}).ok());
    ASSERT_TRUE(model_->Insert({"Berlin", "rack", "Y", 4}).ok());
  }

  void ExpectMergedEqualsModel() {
    EXPECT_EQ(MergedRows(*store_, {model_->pdt()}), model_->rows());
    EXPECT_TRUE(model_->pdt()->CheckInvariants().ok())
        << model_->pdt()->CheckInvariants().ToString();
  }

  std::shared_ptr<const Schema> schema_;
  std::unique_ptr<ColumnStore> store_;
  std::unique_ptr<ModelTable> model_;
};

TEST_F(PdtPaperExampleTest, Table1AfterInserts) {
  ApplyBatch1();
  // Figure 5: the three Berlin tuples sort to the front.
  std::vector<Tuple> expected = {
      {"Berlin", "chair", "Y", 20}, {"Berlin", "cloth", "Y", 5},
      {"Berlin", "table", "Y", 10}, {"London", "chair", "N", 30},
      {"London", "stool", "N", 10}, {"London", "table", "N", 20},
      {"Paris", "rug", "N", 1},     {"Paris", "stool", "N", 5},
  };
  EXPECT_EQ(model_->rows(), expected);
  ExpectMergedEqualsModel();
  // All three inserts share SID 0 (Figure 3).
  for (auto& e : model_->pdt()->Flatten()) {
    EXPECT_EQ(e.sid, 0u);
    EXPECT_EQ(e.type, kTypeIns);
  }
}

TEST_F(PdtPaperExampleTest, Table2AfterDeletesAndModifies) {
  ApplyBatch1();
  ApplyBatch2();
  // Figure 9.
  std::vector<Tuple> expected = {
      {"Berlin", "chair", "Y", 20}, {"Berlin", "cloth", "Y", 1},
      {"London", "chair", "N", 30}, {"London", "stool", "N", 9},
      {"London", "table", "N", 20}, {"Paris", "stool", "N", 5},
  };
  EXPECT_EQ(model_->rows(), expected);
  ExpectMergedEqualsModel();

  // PDT2 (Figure 7): the delete of the *inserted* (Berlin,table) removed
  // its INS entry entirely; (Paris,rug) is a ghost DEL; the qty modify of
  // the inserted (Berlin,cloth) was applied in-place in the insert space.
  const Pdt& pdt = *model_->pdt();
  EXPECT_EQ(pdt.InsertCount(), 2u);
  EXPECT_EQ(pdt.DeleteCount(), 1u);
  EXPECT_EQ(pdt.ModifyCount(), 1u);  // only (London,stool) qty=9
  // Ghost key recorded in the delete space (Figure 8: d0 = Paris,rug).
  EXPECT_EQ(pdt.value_space().GetDeleteKey(0)[0].AsString(), "Paris");
  EXPECT_EQ(pdt.value_space().GetDeleteKey(0)[1].AsString(), "rug");
}

TEST_F(PdtPaperExampleTest, Table3AfterMoreInserts) {
  ApplyBatch1();
  ApplyBatch2();
  ApplyBatch3();
  // Figure 13 (visible tuples only; the greyed-out ghost is invisible).
  std::vector<Tuple> expected = {
      {"Berlin", "chair", "Y", 20}, {"Berlin", "cloth", "Y", 1},
      {"Berlin", "rack", "Y", 4},   {"London", "chair", "N", 30},
      {"London", "rack", "Y", 4},   {"London", "stool", "N", 9},
      {"London", "table", "N", 20}, {"Paris", "rack", "Y", 4},
      {"Paris", "stool", "N", 5},
  };
  EXPECT_EQ(model_->rows(), expected);
  ExpectMergedEqualsModel();
}

TEST_F(PdtPaperExampleTest, RespectingDeletesGivesParisRackSid3) {
  ApplyBatch1();
  ApplyBatch2();
  ApplyBatch3();
  // Section 2.1 "Respecting Deletes": (Paris,rack) must receive SID 3 —
  // the SID of the deleted (Paris,rug) ghost, *not* 4 — so sparse indexes
  // built on TABLE0 stay valid.
  bool found = false;
  const auto& vs = model_->pdt()->value_space();
  for (auto& e : model_->pdt()->Flatten()) {
    if (e.type != kTypeIns) continue;
    if (vs.GetInsertColumn(e.value, 1).AsString() == "rack" &&
        vs.GetInsertColumn(e.value, 0).AsString() == "Paris") {
      EXPECT_EQ(e.sid, 3u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(PdtPaperExampleTest, SparseIndexRangeStillFindsParisRack) {
  // The paper's example query: SELECT qty FROM inventory WHERE
  // store='Paris' AND prod<'rug' — the stale sparse index returns SID
  // range (1,3], which must still contain the new (Paris,rack).
  ApplyBatch1();
  ApplyBatch2();
  ApplyBatch3();
  auto index = SparseIndex::Build(*store_);
  ASSERT_TRUE(index.ok());
  const SidRange range =
      index->LookupRange({Value("Paris")}, {Value("Paris"), Value("rug")});
  auto scan = MakeMergeScan(*store_, {model_->pdt()}, AllColumns(*schema_),
                            range);
  auto rows = CollectRows(scan.get());
  ASSERT_TRUE(rows.ok());
  bool found = false;
  for (const auto& t : *rows) {
    if (t[0].AsString() == "Paris" && t[1].AsString() == "rack") found = true;
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------
// Chain semantics (Sec. 2.1 in-place handling rules).
// ---------------------------------------------------------------------

class PdtChainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = InventorySchema();
    store_ = BuildStore(schema_, InventoryRows());
    model_ = std::make_unique<ModelTable>(schema_, InventoryRows());
  }
  std::shared_ptr<const Schema> schema_;
  std::unique_ptr<ColumnStore> store_;
  std::unique_ptr<ModelTable> model_;
};

TEST_F(PdtChainTest, DeleteOfInsertLeavesNoTrace) {
  ASSERT_TRUE(model_->Insert({"Aix", "mat", "Y", 7}).ok());
  EXPECT_EQ(model_->pdt()->EntryCount(), 1u);
  ASSERT_TRUE(model_->DeleteAt(0).ok());
  EXPECT_EQ(model_->pdt()->EntryCount(), 0u);
  EXPECT_EQ(MergedRows(*store_, {model_->pdt()}), model_->rows());
}

TEST_F(PdtChainTest, ModifyOfInsertPatchesInsertSpace) {
  ASSERT_TRUE(model_->Insert({"Aix", "mat", "Y", 7}).ok());
  ASSERT_TRUE(model_->ModifyAt(0, 3, Value(99)).ok());
  EXPECT_EQ(model_->pdt()->EntryCount(), 1u);  // still just the INS
  EXPECT_EQ(model_->pdt()->ModifyCount(), 0u);
  EXPECT_EQ(MergedRows(*store_, {model_->pdt()}), model_->rows());
}

TEST_F(PdtChainTest, ModifyOfModifyUpdatesInPlace) {
  ASSERT_TRUE(model_->ModifyAt(1, 3, Value(11)).ok());
  ASSERT_TRUE(model_->ModifyAt(1, 3, Value(12)).ok());
  EXPECT_EQ(model_->pdt()->ModifyCount(), 1u);
  EXPECT_EQ(MergedRows(*store_, {model_->pdt()}), model_->rows());
}

TEST_F(PdtChainTest, ModifyTwoColumnsKeepsTwoEntries) {
  ASSERT_TRUE(model_->ModifyAt(1, 2, Value("Y")).ok());
  ASSERT_TRUE(model_->ModifyAt(1, 3, Value(12)).ok());
  EXPECT_EQ(model_->pdt()->ModifyCount(), 2u);
  EXPECT_EQ(MergedRows(*store_, {model_->pdt()}), model_->rows());
  EXPECT_TRUE(model_->pdt()->CheckInvariants().ok());
}

TEST_F(PdtChainTest, DeleteOfModifiedStableCollapsesToSingleDel) {
  ASSERT_TRUE(model_->ModifyAt(1, 2, Value("Y")).ok());
  ASSERT_TRUE(model_->ModifyAt(1, 3, Value(12)).ok());
  ASSERT_TRUE(model_->DeleteAt(1).ok());
  EXPECT_EQ(model_->pdt()->EntryCount(), 1u);
  EXPECT_EQ(model_->pdt()->DeleteCount(), 1u);
  EXPECT_EQ(MergedRows(*store_, {model_->pdt()}), model_->rows());
}

TEST_F(PdtChainTest, ConsecutiveDeletesShareRid) {
  // Deleting RID 0 repeatedly creates a ghost chain with ascending SIDs.
  ASSERT_TRUE(model_->DeleteAt(0).ok());
  ASSERT_TRUE(model_->DeleteAt(0).ok());
  ASSERT_TRUE(model_->DeleteAt(0).ok());
  auto entries = model_->pdt()->Flatten();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].sid, 0u);
  EXPECT_EQ(entries[1].sid, 1u);
  EXPECT_EQ(entries[2].sid, 2u);
  EXPECT_EQ(MergedRows(*store_, {model_->pdt()}), model_->rows());
  EXPECT_TRUE(model_->pdt()->CheckInvariants().ok());
}

TEST_F(PdtChainTest, LookupRidMatchesModel) {
  ASSERT_TRUE(model_->Insert({"Aix", "mat", "Y", 7}).ok());
  ASSERT_TRUE(model_->ModifyAt(3, 3, Value(77)).ok());
  ASSERT_TRUE(model_->DeleteAt(4).ok());
  for (Rid rid = 0; rid < model_->size(); ++rid) {
    auto lookup = model_->pdt()->LookupRid(rid);
    if (lookup.is_insert) {
      EXPECT_EQ(model_->pdt()->value_space().GetInsertTuple(
                    lookup.insert_offset),
                model_->rows()[rid]);
    } else {
      // The stable tuple plus its modifies must equal the model row.
      auto tuple_or = store_->GetTuple(lookup.sid);
      ASSERT_TRUE(tuple_or.ok());
      Tuple t = *tuple_or;
      for (auto [col, off] : lookup.mods) {
        t[col] = model_->pdt()->value_space().GetModifyValue(col, off);
      }
      EXPECT_EQ(t, model_->rows()[rid]) << "rid " << rid;
    }
  }
}

// ---------------------------------------------------------------------
// Randomized property tests against the reference model.
// ---------------------------------------------------------------------

struct RandomOpsParam {
  uint64_t seed;
  int ops;
  double p_insert;
  double p_delete;
};

class PdtRandomOpsTest : public ::testing::TestWithParam<RandomOpsParam> {};

TEST_P(PdtRandomOpsTest, MergedImageMatchesModelThroughout) {
  const RandomOpsParam param = GetParam();
  auto schema_or = Schema::Make({{"k1", TypeId::kInt64},
                                 {"k2", TypeId::kString},
                                 {"a", TypeId::kInt64},
                                 {"b", TypeId::kString}},
                                {0, 1});
  ASSERT_TRUE(schema_or.ok());
  auto schema = std::make_shared<const Schema>(std::move(*schema_or));

  Random rng(param.seed);
  // Seed rows with distinct keys.
  std::vector<Tuple> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back(
        {int64_t{i * 10}, rng.NextString(3), rng.UniformRange(0, 999),
         rng.NextString(4)});
  }
  std::sort(rows.begin(), rows.end(), [&](const Tuple& a, const Tuple& b) {
    return schema->CompareSortKey(a, b) < 0;
  });
  auto store = BuildStore(schema, rows, {.chunk_rows = 64});
  ASSERT_NE(store, nullptr);
  ModelTable model(schema, rows);

  int applied = 0;
  for (int op = 0; op < param.ops; ++op) {
    double dice = rng.NextDouble();
    if (dice < param.p_insert || model.size() == 0) {
      Tuple t = {rng.UniformRange(0, 3000), rng.NextString(3),
                 rng.UniformRange(0, 999), rng.NextString(4)};
      Status st = model.Insert(t);
      if (st.ok()) ++applied;  // duplicate keys are rejected; fine
    } else if (dice < param.p_insert + param.p_delete) {
      Rid rid = rng.Uniform(model.size());
      ASSERT_TRUE(model.DeleteAt(rid).ok());
      ++applied;
    } else {
      Rid rid = rng.Uniform(model.size());
      ColumnId col = rng.Bernoulli(0.5) ? 2 : 3;
      Value v = (col == 2) ? Value(rng.UniformRange(0, 999))
                           : Value(rng.NextString(4));
      ASSERT_TRUE(model.ModifyAt(rid, col, v).ok());
      ++applied;
    }
    if (op % 64 == 0) {
      ASSERT_TRUE(model.pdt()->CheckInvariants().ok())
          << model.pdt()->CheckInvariants().ToString() << " at op " << op;
      ASSERT_EQ(MergedRows(*store, {model.pdt()}, {}, 128), model.rows())
          << "divergence at op " << op;
    }
  }
  EXPECT_GT(applied, 0);
  ASSERT_TRUE(model.pdt()->CheckInvariants().ok())
      << model.pdt()->CheckInvariants().ToString();
  EXPECT_EQ(MergedRows(*store, {model.pdt()}), model.rows());
  // Small-batch merging must agree with large-batch merging.
  EXPECT_EQ(MergedRows(*store, {model.pdt()}, {}, 7), model.rows());
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, PdtRandomOpsTest,
    ::testing::Values(
        RandomOpsParam{1, 500, 0.5, 0.25}, RandomOpsParam{2, 500, 0.5, 0.25},
        RandomOpsParam{3, 500, 0.5, 0.25},
        RandomOpsParam{4, 800, 0.8, 0.1},   // insert-heavy
        RandomOpsParam{5, 800, 0.1, 0.6},   // delete-heavy
        RandomOpsParam{6, 800, 0.1, 0.1},   // modify-heavy
        RandomOpsParam{7, 1500, 0.34, 0.33},
        RandomOpsParam{8, 1500, 0.34, 0.33}));

// Projection correctness: merging a subset of columns (without SK!) must
// equal the projected model — the core of the PDT's I/O claim.
TEST(PdtProjectionTest, NonKeyProjectionMatchesModel) {
  auto schema = InventorySchema();
  auto store = BuildStore(schema, InventoryRows());
  ModelTable model(schema, InventoryRows());
  ASSERT_TRUE(model.Insert({"Berlin", "table", "Y", 10}).ok());
  ASSERT_TRUE(model.ModifyAt(4, 3, Value(42)).ok());
  ASSERT_TRUE(model.DeleteAt(5).ok());

  auto merged = MergedRows(*store, {model.pdt()}, {3});  // qty only
  ASSERT_EQ(merged.size(), model.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i][0], model.rows()[i][3]) << "row " << i;
  }
}

TEST(PdtCloneTest, CloneIsDeepAndEqual) {
  auto schema = InventorySchema();
  auto store = BuildStore(schema, InventoryRows());
  ModelTable model(schema, InventoryRows());
  ASSERT_TRUE(model.Insert({"Berlin", "table", "Y", 10}).ok());
  ASSERT_TRUE(model.ModifyAt(4, 3, Value(42)).ok());

  auto clone = model.pdt()->Clone();
  EXPECT_EQ(clone->Flatten(), model.pdt()->Flatten());
  EXPECT_TRUE(clone->CheckInvariants().ok());
  // Mutating the clone must not affect the original. (RID 3 is a stable
  // tuple: modifying it adds a fresh entry rather than patching the
  // insert space in place.)
  ASSERT_TRUE(clone->AddModify(3, 3, Value(1)).ok());
  EXPECT_NE(clone->EntryCount(), model.pdt()->EntryCount());
  EXPECT_EQ(MergedRows(*store, {model.pdt()}), model.rows());
}

TEST(PdtCloneTest, CloneDropsValueSpaceHoles) {
  // Deleting a PDT insert erases its entry but leaves its value-space
  // row, and deleting a modified stable tuple leaves its modify value: a
  // clone must copy only the rows live entries still reference, or every
  // Write→Read fold would carry every hole forward.
  auto schema = InventorySchema();
  auto store = BuildStore(schema, InventoryRows());
  ModelTable model(schema, InventoryRows());
  constexpr int kInserts = 40;
  for (int i = 0; i < kInserts; ++i) {
    char prod[8];
    std::snprintf(prod, sizeof(prod), "p%03d", i);
    ASSERT_TRUE(model.Insert({"Zurich", prod, "Y", i}).ok());
  }
  // The inserts sort after every stable row: delete all but the last.
  for (int i = 0; i + 1 < kInserts; ++i) ASSERT_TRUE(model.DeleteAt(5).ok());
  ASSERT_TRUE(model.ModifyAt(0, 3, Value(99)).ok());
  ASSERT_TRUE(model.DeleteAt(0).ok());
  const Pdt& pdt = *model.pdt();
  ASSERT_EQ(pdt.value_space().insert_count(), size_t{kInserts});
  ASSERT_EQ(pdt.InsertCount(), 1u);

  auto clone = pdt.Clone();
  EXPECT_EQ(clone->value_space().insert_count(), clone->InsertCount());
  EXPECT_EQ(clone->value_space().delete_count(), clone->DeleteCount());
  EXPECT_EQ(clone->value_space().modify_column(3).size(), 0u);
  EXPECT_TRUE(clone->CheckInvariants().ok());
  EXPECT_EQ(MergedRows(*store, {clone.get()}), model.rows());
  // A clone of the compacted clone has no holes left to drop.
  EXPECT_EQ(clone->Clone()->Flatten(), clone->Flatten());
}

TEST(PdtEmptyTest, EmptyPdtIsIdentity) {
  auto schema = InventorySchema();
  auto store = BuildStore(schema, InventoryRows());
  Pdt pdt(schema);
  EXPECT_TRUE(pdt.CheckInvariants().ok());
  EXPECT_EQ(pdt.TotalDelta(), 0);
  EXPECT_EQ(MergedRows(*store, {&pdt}), InventoryRows());
}

TEST(PdtEmptyStableTest, InsertsIntoEmptyTable) {
  auto schema = InventorySchema();
  auto store = BuildStore(schema, {});
  ModelTable model(schema, {});
  ASSERT_TRUE(model.Insert({"B", "b", "Y", 2}).ok());
  ASSERT_TRUE(model.Insert({"A", "a", "Y", 1}).ok());
  ASSERT_TRUE(model.Insert({"C", "c", "Y", 3}).ok());
  EXPECT_EQ(MergedRows(*store, {model.pdt()}), model.rows());
  EXPECT_EQ(model.size(), 3u);
}

}  // namespace
}  // namespace pdtstore
