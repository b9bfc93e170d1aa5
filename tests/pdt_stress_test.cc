// Adversarial PDT stress tests: hostile update patterns (hammering a
// single position, strict front/back insertion, interleaved ghost
// chains), deep trees, bulk-build round trips at node boundaries,
// and long randomized runs with invariant checking at every step.
#include <gtest/gtest.h>

#include "pdt/pdt.h"
#include "test_util.h"
#include "util/random.h"

namespace pdtstore {
namespace {

using testutil::BuildStore;
using testutil::MergedRows;
using testutil::ModelTable;

std::shared_ptr<const Schema> IntSchema() {
  auto s = Schema::Make({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}, {0});
  return std::make_shared<const Schema>(std::move(*s));
}

std::vector<Tuple> IntRows(int n, int64_t gap = 100) {
  std::vector<Tuple> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({static_cast<int64_t>(i) * gap, int64_t{i}});
  }
  return rows;
}

TEST(PdtStressTest, ManyInsertsAtSamePosition) {
  // All inserts share SID 0 and form a long left spine: the tree must
  // stay balanced and ordered.
  auto schema = IntSchema();
  auto store = BuildStore(schema, IntRows(4, 1000000));
  ModelTable model(schema, IntRows(4, 1000000));
  for (int i = 999; i >= 1; --i) {  // key 0 exists in the base data
    ASSERT_TRUE(model.Insert({int64_t{i}, int64_t{i}}).ok());
  }
  ASSERT_TRUE(model.pdt()->CheckInvariants().ok())
      << model.pdt()->CheckInvariants().ToString();
  EXPECT_EQ(MergedRows(*store, {model.pdt()}), model.rows());
  // Every insert entry shares one SID: all land after stable tuple 0
  // (key 0) and before stable tuple 1 (key 1000000).
  for (const auto& e : model.pdt()->Flatten()) {
    EXPECT_EQ(e.sid, 1u);
  }
}

TEST(PdtStressTest, AscendingAppendsAtEnd) {
  auto schema = IntSchema();
  auto store = BuildStore(schema, IntRows(4, 10));
  ModelTable model(schema, IntRows(4, 10));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(model.Insert({int64_t{1000 + i}, int64_t{i}}).ok());
  }
  ASSERT_TRUE(model.pdt()->CheckInvariants().ok());
  EXPECT_EQ(MergedRows(*store, {model.pdt()}), model.rows());
}

TEST(PdtStressTest, HammerOneRidWithModifies) {
  auto schema = IntSchema();
  auto store = BuildStore(schema, IntRows(100));
  ModelTable model(schema, IntRows(100));
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(model.ModifyAt(50, 1, Value(int64_t{i})).ok());
  }
  // All in-place: exactly one modify entry.
  EXPECT_EQ(model.pdt()->EntryCount(), 1u);
  EXPECT_EQ(MergedRows(*store, {model.pdt()}), model.rows());
}

TEST(PdtStressTest, InsertDeleteChurnAtOnePosition) {
  // Insert and immediately delete at the same spot, repeatedly: the PDT
  // must end empty (delete-of-insert leaves no trace).
  auto schema = IntSchema();
  auto store = BuildStore(schema, IntRows(10));
  ModelTable model(schema, IntRows(10));
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(model.Insert({int64_t{55}, int64_t{i}}).ok());
    Rid rid = 0;
    ASSERT_TRUE(model.FindKey({Value(55)}, &rid));
    ASSERT_TRUE(model.DeleteAt(rid).ok());
  }
  EXPECT_EQ(model.pdt()->EntryCount(), 0u);
  EXPECT_EQ(MergedRows(*store, {model.pdt()}), model.rows());
}

TEST(PdtStressTest, LongGhostChains) {
  // Delete long runs so ghosts pile up sharing RIDs across many leaves,
  // then insert between the ghosts by key.
  auto schema = IntSchema();
  auto base = IntRows(600, 10);
  auto store = BuildStore(schema, base, {.chunk_rows = 64});
  ModelTable model(schema, base);
  // Kill rows 100..499 -> a 400-ghost chain at one RID.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(model.DeleteAt(100).ok());
  }
  ASSERT_TRUE(model.pdt()->CheckInvariants().ok());
  EXPECT_EQ(MergedRows(*store, {model.pdt()}), model.rows());
  // Now insert keys that land at various points *inside* the ghost range:
  // SKRidToSid must order them among the ghosts by key.
  for (int64_t k : {int64_t{1005}, int64_t{2501}, int64_t{3999},
                    int64_t{1001}, int64_t{4995}}) {
    ASSERT_TRUE(model.Insert({k, k}).ok());
    ASSERT_TRUE(model.pdt()->CheckInvariants().ok()) << k;
    ASSERT_EQ(MergedRows(*store, {model.pdt()}), model.rows()) << k;
  }
  // Ghost-respecting SIDs: the inserted keys' SIDs must be interleaved
  // with the ghost SIDs in key order, i.e. strictly increasing here.
  std::vector<Sid> ins_sids;
  const auto& vs = model.pdt()->value_space();
  std::vector<std::pair<int64_t, Sid>> by_key;
  for (const auto& e : model.pdt()->Flatten()) {
    if (e.type == kTypeIns) {
      by_key.emplace_back(vs.GetInsertColumn(e.value, 0).AsInt64(), e.sid);
    }
  }
  std::sort(by_key.begin(), by_key.end());
  for (size_t i = 1; i < by_key.size(); ++i) {
    // Keys falling between the same pair of ghosts share a SID, so the
    // sequence is non-decreasing in key order.
    EXPECT_GE(by_key[i].second, by_key[i - 1].second)
        << "insert SIDs must respect ghost order";
  }
  // Keys a full ghost apart must have distinct SIDs.
  EXPECT_LT(by_key.front().second, by_key.back().second);
}

TEST(PdtStressTest, BulkBuildRoundtripAtNodeBoundaries) {
  // Entry counts on both sides of a full leaf (8), a full two-level tree
  // (64) and a full three-level tree (512): the counts at which a bulk
  // build adds a leaf or a level, and where nodes fill to kFanout.
  auto schema = IntSchema();
  auto base = IntRows(300);
  auto store = BuildStore(schema, base);
  for (size_t n : {1, 7, 8, 9, 64, 65, 512, 513}) {
    ModelTable model(schema, base);
    Random rng(9 + n);
    // Every op changes the entry count by at most one, so growing until
    // the count reaches n stops exactly at n.
    for (int i = 0; model.pdt()->EntryCount() < n; ++i) {
      double d = rng.NextDouble();
      if (d < 0.4) {
        (void)model.Insert({rng.UniformRange(0, 50000), int64_t{i}});
      } else if (d < 0.7 && model.size() > 0) {
        (void)model.DeleteAt(rng.Uniform(model.size()));
      } else if (model.size() > 0) {
        (void)model.ModifyAt(rng.Uniform(model.size()), 1, Value(int64_t{i}));
      }
    }
    ASSERT_EQ(model.pdt()->EntryCount(), n);
    auto entries = model.pdt()->Flatten();
    Pdt rebuilt(schema);
    rebuilt.value_space() = model.pdt()->value_space();
    ASSERT_TRUE(rebuilt.BuildFromSorted(entries).ok());
    ASSERT_TRUE(rebuilt.CheckInvariants().ok())
        << "entries " << n << ": " << rebuilt.CheckInvariants().ToString();
    EXPECT_EQ(rebuilt.Flatten(), entries) << "entries " << n;
    EXPECT_EQ(MergedRows(*store, {&rebuilt}), model.rows())
        << "entries " << n;
  }
}

TEST(PdtStressTest, SeekSidMatchesLinearScan) {
  auto schema = IntSchema();
  auto base = IntRows(200);
  auto store = BuildStore(schema, base);
  ModelTable model(schema, base);
  Random rng(11);
  for (int i = 0; i < 300; ++i) {
    double d = rng.NextDouble();
    if (d < 0.5) {
      (void)model.Insert({rng.UniformRange(0, 3000), int64_t{i}});
    } else if (model.size() > 0) {
      (void)model.DeleteAt(rng.Uniform(model.size()));
    }
  }
  auto entries = model.pdt()->Flatten();
  for (Sid target = 0; target < 210; target += 7) {
    auto cursor = model.pdt()->SeekSid(target);
    // Reference: first entry with sid >= target via linear scan.
    size_t ref = 0;
    int64_t delta = 0;
    while (ref < entries.size() && entries[ref].sid < target) {
      delta += DeltaOf(entries[ref].type);
      ++ref;
    }
    if (ref == entries.size()) {
      EXPECT_FALSE(cursor.Valid()) << "target " << target;
    } else {
      ASSERT_TRUE(cursor.Valid()) << "target " << target;
      EXPECT_EQ(cursor.sid(), entries[ref].sid) << "target " << target;
      EXPECT_EQ(cursor.delta_before(), delta) << "target " << target;
    }
  }
}

TEST(PdtStressTest, LongRandomRunWithPerOpInvariants) {
  auto schema = IntSchema();
  auto base = IntRows(50);
  auto store = BuildStore(schema, base, {.chunk_rows = 16});
  ModelTable model(schema, base);
  Random rng(13);
  for (int i = 0; i < 2500; ++i) {
    double d = rng.NextDouble();
    if (d < 0.45 || model.size() == 0) {
      (void)model.Insert({rng.UniformRange(0, 9999), int64_t{i}});
    } else if (d < 0.8) {
      ASSERT_TRUE(model.DeleteAt(rng.Uniform(model.size())).ok());
    } else {
      ASSERT_TRUE(
          model.ModifyAt(rng.Uniform(model.size()), 1, Value(int64_t{i}))
              .ok());
    }
    Status st = model.pdt()->CheckInvariants();
    ASSERT_TRUE(st.ok()) << st.ToString() << " at op " << i;
  }
  EXPECT_EQ(MergedRows(*store, {model.pdt()}), model.rows());
}

TEST(PdtStressTest, MemoryAccountingTracksGrowth) {
  auto schema = IntSchema();
  ModelTable model(schema, IntRows(10));
  size_t empty_bytes = model.pdt()->MemoryBytes();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(model.Insert({int64_t{i * 10 + 1}, int64_t{i}}).ok());
  }
  EXPECT_GT(model.pdt()->MemoryBytes(), empty_bytes);
  model.pdt()->Clear();
  EXPECT_EQ(model.pdt()->EntryCount(), 0u);
  EXPECT_TRUE(model.pdt()->CheckInvariants().ok());
}

}  // namespace
}  // namespace pdtstore
