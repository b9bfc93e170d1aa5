// MergeScan operator tests: stable scan ranges, positional merging edge
// cases (batch-size sweeps, range gaps with re-seek, trailing inserts,
// ghost runs), stacked layers, RID continuity of emitted batches, and
// zero-copy stable runs (borrowed slices of the input batch).
#include "pdt/merge_scan.h"

#include <gtest/gtest.h>

#include <algorithm>

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

TEST(StableScanTest, FullScanEmitsChunkAlignedBatches) {
  auto schema = IntSchema();
  auto store = BuildStore(schema, IntRows(50), {.chunk_rows = 8});
  StableScanSource scan(store.get(), {0, 1}, store->FullRange());
  Batch batch;
  Sid expected_start = 0;
  size_t total = 0;
  while (true) {
    auto more = scan.Next(&batch, 1024);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    EXPECT_EQ(batch.start_rid(), expected_start);
    expected_start += batch.num_rows();
    total += batch.num_rows();
    EXPECT_LE(batch.num_rows(), 8u);  // chunk-bounded
  }
  EXPECT_EQ(total, 50u);
}

TEST(StableScanTest, RangeScanStartsAndEndsMidChunk) {
  auto schema = IntSchema();
  auto store = BuildStore(schema, IntRows(50), {.chunk_rows = 8});
  StableScanSource scan(store.get(), {0}, {5, 23});
  Batch batch;
  Sid expected_start = 5;
  std::vector<int64_t> keys;
  while (true) {
    auto more = scan.Next(&batch, 1024);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    EXPECT_EQ(batch.start_rid(), expected_start);
    expected_start += batch.num_rows();
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      keys.push_back(batch.column(0).GetValue(i).AsInt64());
    }
  }
  ASSERT_EQ(keys.size(), 18u);
  EXPECT_EQ(keys.front(), 50);   // sid 5
  EXPECT_EQ(keys.back(), 220);   // sid 22
}

TEST(StableScanTest, EmptyTableIsEmptyStream) {
  auto schema = IntSchema();
  auto store = BuildStore(schema, {});
  StableScanSource scan(store.get(), {0}, store->FullRange());
  Batch batch;
  auto more = scan.Next(&batch, 16);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

class BatchSizeSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BatchSizeSweepTest, MergeIsBatchSizeInvariant) {
  auto schema = IntSchema();
  auto base = IntRows(200);
  auto store = BuildStore(schema, base, {.chunk_rows = 16});
  ModelTable model(schema, base);
  Random rng(77);
  for (int i = 0; i < 150; ++i) {
    double d = rng.NextDouble();
    if (d < 0.4) {
      (void)model.Insert({rng.UniformRange(0, 2500), int64_t{i}});
    } else if (d < 0.7 && model.size() > 0) {
      (void)model.DeleteAt(rng.Uniform(model.size()));
    } else if (model.size() > 0) {
      (void)model.ModifyAt(rng.Uniform(model.size()), 1, Value(i));
    }
  }
  auto scan = MakeMergeScan(*store, {model.pdt()}, {0, 1}, store->FullRange());
  auto rows = CollectRows(scan.get(), GetParam());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, model.rows());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatchSizeSweepTest,
                         ::testing::Values(1, 2, 3, 7, 16, 64, 1024));

TEST(MergeScanTest, EmittedRidsAreContinuous) {
  auto schema = IntSchema();
  auto base = IntRows(100);
  auto store = BuildStore(schema, base, {.chunk_rows = 16});
  ModelTable model(schema, base);
  ASSERT_TRUE(model.Insert({15, 100}).ok());
  ASSERT_TRUE(model.DeleteAt(40).ok());
  ASSERT_TRUE(model.ModifyAt(60, 1, Value(999)).ok());
  auto scan = MakeMergeScan(*store, {model.pdt()}, {0, 1}, store->FullRange());
  Batch batch;
  Rid expected = 0;
  while (true) {
    auto more = scan->Next(&batch, 13);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    EXPECT_EQ(batch.start_rid(), expected);
    expected += batch.num_rows();
  }
  EXPECT_EQ(expected, model.size());
}

TEST(MergeScanTest, RangeScanAppliesOnlyInRangeUpdates) {
  auto schema = IntSchema();
  auto base = IntRows(100);
  auto store = BuildStore(schema, base, {.chunk_rows = 10});
  ModelTable model(schema, base);
  // Updates scattered across the key space.
  ASSERT_TRUE(model.Insert({15, 100}).ok());   // before the range (sid 2)
  ASSERT_TRUE(model.Insert({195, 101}).ok());  // at the range start (sid 20)
  ASSERT_TRUE(model.Insert({555, 102}).ok());  // inside (sid 56)
  ASSERT_TRUE(model.Insert({695, 103}).ok());  // at the range end (sid 70)
  ASSERT_TRUE(model.Insert({905, 104}).ok());  // past the range (sid 91)
  Rid rid;
  ASSERT_TRUE(model.FindKey({Value(650)}, &rid));
  ASSERT_TRUE(model.DeleteAt(rid).ok());       // inside (sid 65)
  // Scan sids [20, 70): the start-position insert leads, the
  // end-position insert trails, and nothing outside applies.
  auto scan = MakeMergeScan(*store, {model.pdt()}, {0, 1}, {20, 70});
  Batch batch;
  std::vector<Tuple> rows;
  Rid expected_start = 20 + 1;  // merged rid of sid 20: one insert before
  while (true) {
    auto more = scan->Next(&batch, 7);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    EXPECT_EQ(batch.start_rid(), expected_start);
    expected_start += batch.num_rows();
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      rows.push_back(batch.RowAsTuple(i));
    }
  }
  std::vector<Tuple> expected;
  for (const auto& t : model.rows()) {
    const int64_t k = t[0].AsInt64();
    if (k > 190 && k < 700) expected.push_back(t);
  }
  EXPECT_EQ(rows, expected);
}

TEST(MergeScanTest, GhostRunAcrossChunkBoundary) {
  auto schema = IntSchema();
  auto base = IntRows(64);
  auto store = BuildStore(schema, base, {.chunk_rows = 8});
  ModelTable model(schema, base);
  // Delete a run straddling chunk boundaries (sids 5..18).
  for (int i = 0; i < 14; ++i) {
    ASSERT_TRUE(model.DeleteAt(5).ok());
  }
  EXPECT_EQ(testutil::MergedRows(*store, {model.pdt()}, {}, 4),
            model.rows());
}

TEST(MergeScanTest, ThreeLayerStack) {
  auto schema = IntSchema();
  auto base = IntRows(60);
  auto store = BuildStore(schema, base, {.chunk_rows = 16});
  // Layer 1 (Read): inserts + deletes.
  ModelTable l1(schema, base);
  ASSERT_TRUE(l1.Insert({15, 1}).ok());
  ASSERT_TRUE(l1.DeleteAt(30).ok());
  // Layer 2 (Write): updates against l1's image.
  ModelTable l2(schema, l1.rows());
  ASSERT_TRUE(l2.ModifyAt(0, 1, Value(-2)).ok());
  ASSERT_TRUE(l2.Insert({25, 2}).ok());
  // Layer 3 (Trans): updates against l2's image.
  ModelTable l3(schema, l2.rows());
  ASSERT_TRUE(l3.DeleteAt(2).ok());
  ASSERT_TRUE(l3.Insert({35, 3}).ok());
  EXPECT_EQ(
      testutil::MergedRows(*store, {l1.pdt(), l2.pdt(), l3.pdt()}, {}, 7),
      l3.rows());
}

TEST(MergeScanTest, AllRowsDeleted) {
  auto schema = IntSchema();
  auto base = IntRows(20);
  auto store = BuildStore(schema, base, {.chunk_rows = 4});
  ModelTable model(schema, base);
  while (model.size() > 0) {
    ASSERT_TRUE(model.DeleteAt(0).ok());
  }
  EXPECT_TRUE(testutil::MergedRows(*store, {model.pdt()}).empty());
  // And re-inserting into the fully-deleted table works.
  ASSERT_TRUE(model.Insert({55, 1}).ok());
  EXPECT_EQ(testutil::MergedRows(*store, {model.pdt()}), model.rows());
}


// Randomized stacked merging: K layers of random updates, each built on
// the previous image, merged in one pass — and equivalently collapsed by
// Propagate in every possible grouping.
class StackedLayersRandomTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(StackedLayersRandomTest, StackEqualsFinalImage) {
  auto [num_layers, seed] = GetParam();
  auto schema = IntSchema();
  auto base = IntRows(120);
  auto store = BuildStore(schema, base, {.chunk_rows = 16});
  Random rng(seed);

  std::vector<std::unique_ptr<ModelTable>> layers;
  std::vector<Tuple> image = base;
  for (int l = 0; l < num_layers; ++l) {
    layers.push_back(std::make_unique<ModelTable>(schema, image));
    ModelTable* m = layers.back().get();
    for (int op = 0; op < 60; ++op) {
      double d = rng.NextDouble();
      if (d < 0.4 || m->size() == 0) {
        (void)m->Insert(
            {rng.UniformRange(0, 4000), int64_t{l * 1000 + op}});
      } else if (d < 0.7) {
        ASSERT_TRUE(m->DeleteAt(rng.Uniform(m->size())).ok());
      } else {
        ASSERT_TRUE(
            m->ModifyAt(rng.Uniform(m->size()), 1, Value(int64_t{op})).ok());
      }
    }
    image = m->rows();
  }

  std::vector<const Pdt*> stack;
  for (auto& m : layers) stack.push_back(m->pdt());
  EXPECT_EQ(testutil::MergedRows(*store, stack, {}, 13), image);

  // Collapse the stack bottom-up with Propagate; the single merged PDT
  // must produce the same image.
  auto collapsed = layers[0]->pdt()->Clone();
  for (int l = 1; l < num_layers; ++l) {
    ASSERT_TRUE(collapsed->Propagate(*layers[l]->pdt()).ok()) << l;
  }
  ASSERT_TRUE(collapsed->CheckInvariants().ok())
      << collapsed->CheckInvariants().ToString();
  EXPECT_EQ(testutil::MergedRows(*store, {collapsed.get()}), image);
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, StackedLayersRandomTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 5),
                       ::testing::Values(301, 302, 303)));

// ---------------------------------------------------------------------
// Zero-copy stable runs: long runs pass through as borrowed slices.
// ---------------------------------------------------------------------

// One output batch of a drained source: where it starts, how many rows it
// holds, and which of its columns are borrowed views.
struct DrainedBatch {
  Rid start = 0;
  size_t rows = 0;
  std::vector<bool> borrowed;
  bool AllBorrowed() const {
    return std::all_of(borrowed.begin(), borrowed.end(),
                       [](bool b) { return b; });
  }
  bool NoneBorrowed() const {
    return std::none_of(borrowed.begin(), borrowed.end(),
                        [](bool b) { return b; });
  }
};

// Drains `source` into rows, recording every batch's shape.
std::vector<Tuple> Drain(BatchSource* source, size_t max_rows,
                         std::vector<DrainedBatch>* batches) {
  std::vector<Tuple> rows;
  Batch batch;
  while (true) {
    auto more = source->Next(&batch, max_rows);
    EXPECT_TRUE(more.ok());
    if (!more.ok() || !*more) break;
    DrainedBatch d{batch.start_rid(), batch.num_rows(), {}};
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      d.borrowed.push_back(batch.column(c).is_borrowed());
    }
    batches->push_back(std::move(d));
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      rows.push_back(batch.RowAsTuple(i));
    }
  }
  return rows;
}

// Output RIDs are contiguous across the whole drained stream.
void ExpectContiguous(const std::vector<DrainedBatch>& batches) {
  Rid next = batches.empty() ? 0 : batches[0].start;
  for (const DrainedBatch& b : batches) {
    EXPECT_EQ(b.start, next);
    next = b.start + b.rows;
  }
}

TEST(ZeroCopyMergeTest, SparsePdtYieldsBorrowedBatches) {
  auto schema = IntSchema();
  auto base = IntRows(4096);
  auto store = BuildStore(schema, base, {.chunk_rows = 1024});
  ModelTable model(schema, base);
  // Entries far from every batch edge; rids shift as the model changes,
  // so apply them back to front.
  ASSERT_TRUE(model.DeleteAt(3500).ok());
  ASSERT_TRUE(model.DeleteAt(2600).ok());
  ASSERT_TRUE(model.DeleteAt(1500).ok());
  ASSERT_TRUE(model.DeleteAt(400).ok());
  auto scan = MakeMergeScan(*store, {model.pdt()}, {0, 1}, store->FullRange());
  std::vector<DrainedBatch> batches;
  EXPECT_EQ(Drain(scan.get(), 1024, &batches), model.rows());
  ExpectContiguous(batches);
  for (const DrainedBatch& b : batches) EXPECT_TRUE(b.AllBorrowed());
  // Each delete splits its chunk's batch into two borrowed runs.
  EXPECT_EQ(batches.size(), 8u);

  // Inserts with long runs on both sides: only the inserted rows are
  // copied, in batches of their own; every stable row stays borrowed.
  ASSERT_TRUE(model.Insert({23205, -1}).ok());  // after sid 2320
  ASSERT_TRUE(model.Insert({38005, -2}).ok());  // after sid 3800
  scan = MakeMergeScan(*store, {model.pdt()}, {0, 1}, store->FullRange());
  batches.clear();
  EXPECT_EQ(Drain(scan.get(), 1024, &batches), model.rows());
  ExpectContiguous(batches);
  size_t borrowed_rows = 0, copied_rows = 0;
  for (const DrainedBatch& b : batches) {
    EXPECT_TRUE(b.AllBorrowed() || b.NoneBorrowed());
    (b.AllBorrowed() ? borrowed_rows : copied_rows) += b.rows;
  }
  EXPECT_EQ(borrowed_rows, 4096u - 4);
  EXPECT_EQ(copied_rows, 2u);
}

TEST(ZeroCopyMergeTest, RunsEndingAtBatchAndChunkEdges) {
  auto schema = IntSchema();
  auto base = IntRows(2048);
  auto store = BuildStore(schema, base, {.chunk_rows = 1024});
  ModelTable model(schema, base);
  // With 512-row batches the stable input splits at sids 512, 1024, ...
  // A delete at sid 512 ends a run exactly at an input-batch edge; an
  // insert before sid 1024 ends the next run exactly at the chunk edge.
  ASSERT_TRUE(model.Insert({10235, -1}).ok());  // between sids 1023, 1024
  ASSERT_TRUE(model.DeleteAt(512).ok());
  auto scan = MakeMergeScan(*store, {model.pdt()}, {0, 1}, store->FullRange());
  std::vector<DrainedBatch> batches;
  EXPECT_EQ(Drain(scan.get(), 512, &batches), model.rows());
  ExpectContiguous(batches);
  ASSERT_GE(batches.size(), 4u);
  // [0, 512): the whole first input batch.
  EXPECT_EQ(batches[0].rows, 512u);
  EXPECT_TRUE(batches[0].AllBorrowed());
  // The ghost row is skipped; sids [513, 1024) run up to the chunk edge.
  EXPECT_EQ(batches[1].start, 512u);
  EXPECT_EQ(batches[1].rows, 511u);
  EXPECT_TRUE(batches[1].AllBorrowed());
  // The insert sits at merged rid 1023, in a copied batch of its own.
  EXPECT_EQ(batches[2].start, 1023u);
  EXPECT_EQ(batches[2].rows, 1u);
  EXPECT_TRUE(batches[2].NoneBorrowed());
  EXPECT_EQ(model.rows()[1023][1], Value(-1));
  EXPECT_TRUE(batches[3].AllBorrowed());
}

TEST(ZeroCopyMergeTest, ModifyInsideBorrowedRunDetachesOnlyThatColumn) {
  auto schema = IntSchema();
  auto base = IntRows(1024);
  auto store = BuildStore(schema, base, {.chunk_rows = 1024});
  ModelTable model(schema, base);
  ASSERT_TRUE(model.ModifyAt(500, 1, Value(int64_t{-500})).ok());
  auto scan = MakeMergeScan(*store, {model.pdt()}, {0, 1}, store->FullRange());
  Batch batch;
  auto more = scan->Next(&batch, 1024);
  ASSERT_TRUE(more.ok() && *more);
  ASSERT_EQ(batch.num_rows(), 1024u);
  EXPECT_TRUE(batch.column(0).is_borrowed());
  EXPECT_FALSE(batch.column(1).is_borrowed());
  EXPECT_EQ(batch.column(1).GetValue(500), Value(int64_t{-500}));
  EXPECT_EQ(batch.column(1).GetValue(499), Value(int64_t{499}));
  // The copy-on-write detach never wrote through to the pool's chunk.
  StableScanSource stable(store.get(), {0, 1}, store->FullRange());
  Batch clean;
  more = stable.Next(&clean, 1024);
  ASSERT_TRUE(more.ok() && *more);
  EXPECT_EQ(clean.column(1).GetValue(500), Value(int64_t{500}));
}

TEST(ZeroCopyMergeTest, ThreeLayerStackBorrowsThroughAllLayers) {
  auto schema = IntSchema();
  auto base = IntRows(3072);
  auto store = BuildStore(schema, base, {.chunk_rows = 1024});
  ModelTable l1(schema, base);
  ASSERT_TRUE(l1.DeleteAt(300).ok());
  ModelTable l2(schema, l1.rows());
  ASSERT_TRUE(l2.DeleteAt(1500).ok());
  ASSERT_TRUE(l2.ModifyAt(1800, 1, Value(int64_t{-1})).ok());
  ModelTable l3(schema, l2.rows());
  ASSERT_TRUE(l3.DeleteAt(2500).ok());
  auto scan = MakeMergeScan(*store, {l1.pdt(), l2.pdt(), l3.pdt()}, {0, 1},
                            store->FullRange());
  std::vector<DrainedBatch> batches;
  EXPECT_EQ(Drain(scan.get(), 1024, &batches), l3.rows());
  ExpectContiguous(batches);
  for (const DrainedBatch& b : batches) {
    // Only the batch holding the modified row owns its payload column.
    EXPECT_TRUE(b.borrowed[0]);
    const bool holds_modify = b.start <= 1800 && 1800 < b.start + b.rows;
    EXPECT_EQ(b.borrowed[1], !holds_modify) << b.start;
  }
}

TEST(ZeroCopyMergeTest, MorselStartingMidChunkBorrows) {
  auto schema = IntSchema();
  auto base = IntRows(3000);
  auto store = BuildStore(schema, base, {.chunk_rows = 1024});
  ModelTable model(schema, base);
  ASSERT_TRUE(model.DeleteAt(2000).ok());
  ASSERT_TRUE(model.Insert({7005, -1}).ok());  // after sid 700
  std::vector<Tuple> rows;
  std::vector<DrainedBatch> batches;
  const std::vector<SidRange> morsels = {{0, 300}, {300, 1500}, {1500, 3000}};
  for (size_t m = 0; m < morsels.size(); ++m) {
    auto scan = MakeMergeScan(*store, {model.pdt()}, {0, 1}, morsels[m],
                              m + 1 == morsels.size());
    std::vector<DrainedBatch> mb;
    auto part = Drain(scan.get(), 1024, &mb);
    rows.insert(rows.end(), part.begin(), part.end());
    if (m == 1) {
      // Starts at sid 300, mid-chunk: the run up to the insert borrows.
      ASSERT_FALSE(mb.empty());
      EXPECT_EQ(mb[0].start, 300u);
      EXPECT_EQ(mb[0].rows, 401u);
      EXPECT_TRUE(mb[0].AllBorrowed());
    }
    batches.insert(batches.end(), mb.begin(), mb.end());
  }
  EXPECT_EQ(rows, model.rows());
  ExpectContiguous(batches);
}

TEST(ZeroCopyMergeTest, OwnedLowerLayerInputIsCopied) {
  auto schema = IntSchema();
  auto base = IntRows(1024);
  auto store = BuildStore(schema, base, {.chunk_rows = 1024});
  // Lower layer: a delete every 50 rows, so every run is short and its
  // output batches are owned copies.
  ModelTable dense(schema, base);
  for (Rid r = 1000; r >= 50; r -= 50) ASSERT_TRUE(dense.DeleteAt(r).ok());
  ModelTable sparse(schema, dense.rows());
  ASSERT_TRUE(sparse.DeleteAt(10).ok());
  std::vector<DrainedBatch> lower;
  auto lower_scan =
      MakeMergeScan(*store, {dense.pdt()}, {0, 1}, store->FullRange());
  EXPECT_EQ(Drain(lower_scan.get(), 1024, &lower), dense.rows());
  for (const DrainedBatch& b : lower) EXPECT_TRUE(b.NoneBorrowed());
  // The upper layer's long run over owned input falls back to a copy.
  auto scan = MakeMergeScan(*store, {dense.pdt(), sparse.pdt()}, {0, 1},
                            store->FullRange());
  std::vector<DrainedBatch> batches;
  EXPECT_EQ(Drain(scan.get(), 1024, &batches), sparse.rows());
  ExpectContiguous(batches);
  for (const DrainedBatch& b : batches) EXPECT_TRUE(b.NoneBorrowed());
}

}  // namespace
}  // namespace pdtstore
