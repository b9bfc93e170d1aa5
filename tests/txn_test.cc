// Transaction-manager tests: snapshot isolation over the three PDT
// layers, optimistic conflict detection (Alg. 9), the paper's Fig. 15
// three-transaction timeline, Write->Read propagation, and WAL recovery.
#include "txn/txn_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "test_util.h"
#include "util/random.h"

namespace pdtstore {
namespace {

using testutil::InventoryRows;
using testutil::InventorySchema;

std::vector<Tuple> TxnScan(const Transaction& txn, const Schema& schema) {
  std::vector<ColumnId> all(schema.num_columns());
  for (ColumnId i = 0; i < all.size(); ++i) all[i] = i;
  auto src = txn.Scan(all);
  auto rows = CollectRows(src.get());
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? *rows : std::vector<Tuple>{};
}

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = InventorySchema();
    table_ = std::make_unique<Table>("inventory", schema_, TableOptions{});
    ASSERT_TRUE(table_->Load(InventoryRows()).ok());
    mgr_ = std::make_unique<TxnManager>(table_.get(), &wal_);
  }
  std::shared_ptr<const Schema> schema_;
  std::unique_ptr<Table> table_;
  Wal wal_;
  std::unique_ptr<TxnManager> mgr_;
};

TEST_F(TxnTest, OwnUpdatesVisibleBeforeCommit) {
  auto txn = mgr_->Begin();
  ASSERT_TRUE(txn->Insert({"Berlin", "table", "Y", 10}).ok());
  ASSERT_TRUE(
      txn->ModifyByKey({Value("London"), Value("stool")}, 3, Value(9)).ok());
  auto rows = TxnScan(*txn, *schema_);
  EXPECT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows.front()[0], Value("Berlin"));
  auto got = txn->GetByKey({Value("London"), Value("stool")});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)[3], Value(9));
  ASSERT_TRUE(txn->Commit().ok());
}

TEST_F(TxnTest, SnapshotIsolationHidesConcurrentCommit) {
  auto reader = mgr_->Begin();
  auto writer = mgr_->Begin();
  ASSERT_TRUE(writer->Insert({"Berlin", "table", "Y", 10}).ok());
  ASSERT_TRUE(writer->Commit().ok());
  // The reader's snapshot predates the commit.
  EXPECT_EQ(TxnScan(*reader, *schema_).size(), 5u);
  ASSERT_TRUE(reader->Commit().ok());
  // A fresh transaction sees it.
  auto later = mgr_->Begin();
  EXPECT_EQ(TxnScan(*later, *schema_).size(), 6u);
}

TEST_F(TxnTest, WriteWriteConflictAborts) {
  auto a = mgr_->Begin();
  auto b = mgr_->Begin();
  ASSERT_TRUE(
      a->ModifyByKey({Value("Paris"), Value("rug")}, 3, Value(2)).ok());
  ASSERT_TRUE(
      b->ModifyByKey({Value("Paris"), Value("rug")}, 3, Value(3)).ok());
  ASSERT_TRUE(a->Commit().ok());
  Status st = b->Commit();
  EXPECT_EQ(st.code(), StatusCode::kConflict) << st.ToString();
  EXPECT_EQ(mgr_->aborted_count(), 1u);
  // a's value won.
  auto txn = mgr_->Begin();
  auto got = txn->GetByKey({Value("Paris"), Value("rug")});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)[3], Value(2));
}

TEST_F(TxnTest, DifferentColumnModifiesReconcile) {
  auto a = mgr_->Begin();
  auto b = mgr_->Begin();
  ASSERT_TRUE(
      a->ModifyByKey({Value("Paris"), Value("rug")}, 2, Value("Y")).ok());
  ASSERT_TRUE(
      b->ModifyByKey({Value("Paris"), Value("rug")}, 3, Value(3)).ok());
  ASSERT_TRUE(a->Commit().ok());
  ASSERT_TRUE(b->Commit().ok());
  auto txn = mgr_->Begin();
  auto got = txn->GetByKey({Value("Paris"), Value("rug")});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)[2], Value("Y"));
  EXPECT_EQ((*got)[3], Value(3));
}

TEST_F(TxnTest, InsertInsertSameKeyConflicts) {
  auto a = mgr_->Begin();
  auto b = mgr_->Begin();
  ASSERT_TRUE(a->Insert({"Berlin", "table", "Y", 10}).ok());
  ASSERT_TRUE(b->Insert({"Berlin", "table", "Y", 99}).ok());
  ASSERT_TRUE(a->Commit().ok());
  EXPECT_EQ(b->Commit().code(), StatusCode::kConflict);
}

TEST_F(TxnTest, AbortDiscardsUpdates) {
  auto a = mgr_->Begin();
  ASSERT_TRUE(a->Insert({"Berlin", "table", "Y", 10}).ok());
  a->Abort();
  auto txn = mgr_->Begin();
  EXPECT_EQ(TxnScan(*txn, *schema_).size(), 5u);
}

TEST_F(TxnTest, Figure15Timeline) {
  // Fig. 15: a and b start from the same snapshot; b commits first; c
  // starts after b's commit; a commits (serialized against b); c commits
  // (serialized against a, which is still cached in TZ).
  auto a = mgr_->Begin();
  auto b = mgr_->Begin();
  ASSERT_TRUE(b->Insert({"Berlin", "cloth", "Y", 5}).ok());
  ASSERT_TRUE(b->Commit().ok());  // t2
  auto c = mgr_->Begin();
  ASSERT_TRUE(c->ModifyByKey({Value("London"), Value("table")}, 3,
                             Value(21)).ok());
  ASSERT_TRUE(
      a->ModifyByKey({Value("Paris"), Value("stool")}, 3, Value(6)).ok());
  ASSERT_TRUE(a->Commit().ok());  // t3: serialize vs b, no conflict
  ASSERT_TRUE(c->Commit().ok());  // t4: serialize vs a' (aligned)
  auto final_txn = mgr_->Begin();
  auto rows = TxnScan(*final_txn, *schema_);
  EXPECT_EQ(rows.size(), 6u);
  auto cloth = final_txn->GetByKey({Value("Berlin"), Value("cloth")});
  auto ltable = final_txn->GetByKey({Value("London"), Value("table")});
  auto pstool = final_txn->GetByKey({Value("Paris"), Value("stool")});
  ASSERT_TRUE(cloth.ok() && ltable.ok() && pstool.ok());
  EXPECT_EQ((*ltable)[3], Value(21));
  EXPECT_EQ((*pstool)[3], Value(6));
}

TEST_F(TxnTest, WritePdtPropagatesToReadPdtAtQuietPoint) {
  mgr_.reset();  // a table has exactly one driver at a time
  TxnManagerOptions opts;
  opts.write_pdt_max_entries = 2;  // force frequent propagation
  auto mgr = std::make_unique<TxnManager>(table_.get(), nullptr, opts);
  for (int i = 0; i < 10; ++i) {
    auto txn = mgr->Begin();
    ASSERT_TRUE(
        txn->Insert({"Z" + std::to_string(i), "p", "Y", i}).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // Most updates should have migrated into the Read-PDT (table's PDT).
  EXPECT_GT(table_->pdt()->EntryCount(), 0u);
  auto txn = mgr->Begin();
  EXPECT_EQ(TxnScan(*txn, *schema_).size(), 15u);
}

TEST_F(TxnTest, ExplicitPropagateAndCheckpoint) {
  {
    auto txn = mgr_->Begin();
    ASSERT_TRUE(txn->Insert({"Berlin", "cloth", "Y", 5}).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  TxnManagerOptions opts;
  opts.read_pdt_max_entries = 0;  // always checkpoint
  // A manager with an active transaction refuses.
  auto held = mgr_->Begin();
  EXPECT_FALSE(mgr_->PropagateAndMaybeCheckpoint().ok());
  ASSERT_TRUE(held->Commit().ok());
  ASSERT_TRUE(mgr_->PropagateAndMaybeCheckpoint().ok());
  EXPECT_TRUE(mgr_->write_pdt().Empty());
}

TEST_F(TxnTest, WalRecoveryReproducesCommittedState) {
  {
    auto t1 = mgr_->Begin();
    ASSERT_TRUE(t1->Insert({"Berlin", "cloth", "Y", 5}).ok());
    ASSERT_TRUE(t1->Commit().ok());
    auto t2 = mgr_->Begin();
    ASSERT_TRUE(
        t2->ModifyByKey({Value("Paris"), Value("rug")}, 3, Value(7)).ok());
    ASSERT_TRUE(t2->DeleteByKey({Value("London"), Value("table")}).ok());
    ASSERT_TRUE(t2->Commit().ok());
    auto t3 = mgr_->Begin();
    ASSERT_TRUE(t3->Insert({"Oslo", "bench", "N", 1}).ok());
    t3->Abort();  // must not reappear after recovery
  }
  auto final_txn = mgr_->Begin();
  auto expected = TxnScan(*final_txn, *schema_);
  ASSERT_TRUE(final_txn->Commit().ok());

  // Round-trip the WAL through a file (written by a WalWriter, read back
  // by crash recovery), then recover into a fresh table.
  std::string path = ::testing::TempDir() + "/pdtstore_wal_test.bin";
  {
    auto writer = WalWriter::Open(FileSystem::Default(), path,
                                  /*truncate=*/true);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    wal_.SetWriter(writer->get());
    ASSERT_TRUE(wal_.SyncTo(wal_.SizeBytes()).ok());
    wal_.SetWriter(nullptr);
  }
  Wal restored;
  auto recovered = restored.RecoverFrom(FileSystem::Default(), path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(restored.SizeBytes(), wal_.SizeBytes());

  Table fresh("inventory", schema_, TableOptions{});
  ASSERT_TRUE(fresh.Load(InventoryRows()).ok());
  TxnManager fresh_mgr(&fresh, nullptr);
  ASSERT_TRUE(fresh_mgr.Recover(restored).ok());
  auto check = fresh_mgr.Begin();
  EXPECT_EQ(TxnScan(*check, *schema_), expected);
}

TEST_F(TxnTest, SortKeyModifyOntoTakenKeyChangesNothing) {
  std::vector<Value> chair = {Value("London"), Value("chair")};
  {
    auto txn = mgr_->Begin();
    auto before = TxnScan(*txn, *schema_);
    EXPECT_EQ(txn->ModifyByKey(chair, 1, Value("stool")).code(),
              StatusCode::kAlreadyExists);
    EXPECT_EQ(txn->RowCount(), 5u);
    EXPECT_EQ(TxnScan(*txn, *schema_), before);
    // A legal SK modify moves the row; it is logged as one record that
    // replay re-runs as delete + insert.
    ASSERT_TRUE(txn->ModifyByKey(chair, 0, Value("Aix")).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  auto check = mgr_->Begin();
  auto expected = TxnScan(*check, *schema_);
  ASSERT_EQ(expected.size(), 5u);
  EXPECT_EQ(expected.front(), (Tuple{"Aix", "chair", "N", 30}));

  Table fresh("inventory", schema_, TableOptions{});
  ASSERT_TRUE(fresh.Load(InventoryRows()).ok());
  TxnManager fresh_mgr(&fresh, nullptr);
  ASSERT_TRUE(fresh_mgr.Recover(wal_).ok());
  auto replayed = fresh_mgr.Begin();
  EXPECT_EQ(TxnScan(*replayed, *schema_), expected);
}

TEST_F(TxnTest, RecoverIsIdempotent) {
  // Regression: a second Recover on the same manager must refuse rather
  // than double-apply every committed update.
  {
    auto t = mgr_->Begin();
    ASSERT_TRUE(t->Insert({"Berlin", "cloth", "Y", 5}).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  Table fresh("inventory", schema_, TableOptions{});
  ASSERT_TRUE(fresh.Load(InventoryRows()).ok());
  TxnManager fresh_mgr(&fresh, nullptr);
  ASSERT_TRUE(fresh_mgr.Recover(wal_).ok());
  Status again = fresh_mgr.Recover(wal_);
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument) << again.ToString();
  auto check = fresh_mgr.Begin();
  EXPECT_EQ(TxnScan(*check, *schema_).size(), 6u);  // applied exactly once
}

TEST_F(TxnTest, RecoverRefusesManagerWithHistory) {
  // Recovery only makes sense into a pristine manager: one that already
  // processed commits would re-apply them on top of live state.
  Wal other;
  std::string payload;
  Wal::EncodeInsert(&payload, "inventory", {"Oslo", "bench", "N", 1});
  other.Append(payload);
  {
    auto t = mgr_->Begin();
    ASSERT_TRUE(t->Insert({"Berlin", "cloth", "Y", 5}).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  Status st = mgr_->Recover(other);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  // Recovering a manager from its own attached WAL is always refused —
  // replaying would append the replayed commits back onto the log.
  Table fresh("inventory", schema_, TableOptions{});
  ASSERT_TRUE(fresh.Load(InventoryRows()).ok());
  TxnManager self_mgr(&fresh, &wal_);
  EXPECT_EQ(self_mgr.Recover(wal_).code(), StatusCode::kInvalidArgument);
}

TEST_F(TxnTest, AbortsAndReadOnlyCommitsWriteNothing) {
  // A WAL frame is one committed transaction with updates: nothing else
  // reaches the log.
  const std::vector<Value> rug = {Value("Paris"), Value("rug")};
  const uint64_t empty = wal_.SizeBytes();
  {
    auto t = mgr_->Begin();  // unpublished abort
    ASSERT_TRUE(t->Insert({"Oslo", "bench", "N", 1}).ok());
    t->Abort();
  }
  EXPECT_EQ(wal_.SizeBytes(), empty);
  {
    auto t = mgr_->Begin();  // published, then withdrawn
    ASSERT_TRUE(t->Insert({"Oslo", "bench", "N", 1}).ok());
    ASSERT_TRUE(t->Publish().ok());
    t->Abort();
  }
  EXPECT_EQ(wal_.SizeBytes(), empty);
  {
    auto t = mgr_->Begin();  // commit with no updates
    EXPECT_EQ(TxnScan(*t, *schema_).size(), 5u);
    ASSERT_TRUE(t->Commit().ok());
  }
  EXPECT_EQ(wal_.SizeBytes(), empty);
  EXPECT_EQ(wal_.RecordCount(), 0u);

  // A conflict-aborted commit: the winner's frame is the only one.
  auto winner = mgr_->Begin();
  auto loser = mgr_->Begin();
  ASSERT_TRUE(winner->ModifyByKey(rug, 3, Value(1)).ok());
  ASSERT_TRUE(loser->ModifyByKey(rug, 3, Value(2)).ok());
  ASSERT_TRUE(winner->Commit().ok());
  const uint64_t after_winner = wal_.SizeBytes();
  EXPECT_GT(after_winner, empty);
  EXPECT_EQ(loser->Commit().code(), StatusCode::kConflict);
  EXPECT_EQ(wal_.SizeBytes(), after_winner);

  // Every commit with updates appends exactly one frame.
  constexpr int kCommits = 4;
  for (int i = 0; i < kCommits; ++i) {
    auto t = mgr_->Begin();
    ASSERT_TRUE(t->Insert({"Oslo", "bin" + std::to_string(i), "N", i}).ok());
    ASSERT_TRUE(t->ModifyByKey(rug, 3, Value(i)).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  EXPECT_EQ(wal_.RecordCount(), size_t{1 + kCommits});
  EXPECT_EQ(mgr_->aborted_count(), 3u);
}

TEST_F(TxnTest, RecoveryIgnoresOtherTablesRecords) {
  // Several tables share one log; replay into this manager must apply
  // only the records addressed to its table, and skip a frame with none.
  Wal log;
  std::string mixed;
  Wal::EncodeInsert(&mixed, "inventory", {"Oslo", "bench", "N", 1});
  Wal::EncodeInsert(&mixed, "orders", {"not-even-the-right-schema"});
  log.Append(mixed);
  std::string foreign;
  Wal::EncodeDelete(&foreign, "orders", {Value("no-such-key")});
  log.Append(foreign);

  Table fresh("inventory", schema_, TableOptions{});
  ASSERT_TRUE(fresh.Load(InventoryRows()).ok());
  TxnManager fresh_mgr(&fresh, nullptr);
  ASSERT_TRUE(fresh_mgr.Recover(log).ok());
  EXPECT_EQ(fresh_mgr.committed_count(), 1u);  // the foreign frame skipped
  auto check = fresh_mgr.Begin();
  EXPECT_EQ(TxnScan(*check, *schema_).size(), 6u);
}

TEST_F(TxnTest, ManyConcurrentTransactionsRandomized) {
  // Interleaved transactions on disjoint keys must all commit and the
  // result must match a serial replay.
  Random rng(99);
  std::vector<std::unique_ptr<Transaction>> txns;
  for (int i = 0; i < 8; ++i) txns.push_back(mgr_->Begin());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        txns[i]->Insert({"T" + std::to_string(i), "p", "Y", i}).ok());
  }
  // Commit in shuffled order.
  std::vector<int> order = {3, 1, 7, 0, 5, 2, 6, 4};
  for (int i : order) {
    ASSERT_TRUE(txns[i]->Commit().ok()) << "txn " << i;
  }
  auto txn = mgr_->Begin();
  EXPECT_EQ(TxnScan(*txn, *schema_).size(), 13u);
  EXPECT_EQ(mgr_->committed_count(), 8u);
}


TEST_F(TxnTest, QueryPdtShieldsScanFromOwnUpdates) {
  // Footnote 5: a query that must not see its own changes (Halloween
  // protection) routes updates into a Query-PDT while scanning the
  // unchanged three-layer snapshot.
  auto txn = mgr_->Begin();
  ASSERT_TRUE(txn->BeginQueryPdt().ok());
  // "Query": scan all rows, inserting a shadow row for each one seen.
  auto rows_before = TxnScan(*txn, *schema_);
  for (const auto& t : rows_before) {
    Tuple shadow = t;
    shadow[1] = Value(t[1].AsString() + "-copy");
    ASSERT_TRUE(txn->Insert(shadow).ok());
    // The protected scan still sees only the original 5 rows, so the
    // loop cannot feed on its own output.
    EXPECT_EQ(TxnScan(*txn, *schema_).size(), 5u);
  }
  // Commit is refused while the query is open.
  EXPECT_FALSE(txn->Commit().ok());
  ASSERT_TRUE(txn->EndQueryPdt().ok());
  // Now the updates are in the Trans-PDT and visible.
  EXPECT_EQ(TxnScan(*txn, *schema_).size(), 10u);
  ASSERT_TRUE(txn->Commit().ok());
  auto check = mgr_->Begin();
  EXPECT_EQ(TxnScan(*check, *schema_).size(), 10u);
}

TEST_F(TxnTest, QueryPdtLifecycleErrors) {
  auto txn = mgr_->Begin();
  EXPECT_FALSE(txn->EndQueryPdt().ok());  // none active
  ASSERT_TRUE(txn->BeginQueryPdt().ok());
  EXPECT_FALSE(txn->BeginQueryPdt().ok());  // double begin
  ASSERT_TRUE(txn->EndQueryPdt().ok());
  ASSERT_TRUE(txn->Commit().ok());
}

TEST_F(TxnTest, QueryPdtUpdatesCompose) {
  // Mixed: some updates inside a query context, some outside; the final
  // image must reflect all of them in order.
  auto txn = mgr_->Begin();
  ASSERT_TRUE(
      txn->ModifyByKey({Value("London"), Value("chair")}, 3, Value(1)).ok());
  ASSERT_TRUE(txn->BeginQueryPdt().ok());
  ASSERT_TRUE(
      txn->ModifyByKey({Value("London"), Value("chair")}, 3, Value(2)).ok());
  ASSERT_TRUE(txn->DeleteByKey({Value("Paris"), Value("rug")}).ok());
  ASSERT_TRUE(txn->EndQueryPdt().ok());
  ASSERT_TRUE(txn->Commit().ok());
  auto check = mgr_->Begin();
  auto chair = check->GetByKey({Value("London"), Value("chair")});
  ASSERT_TRUE(chair.ok());
  EXPECT_EQ((*chair)[3], Value(2));
  EXPECT_FALSE(check->GetByKey({Value("Paris"), Value("rug")}).ok());
}

// ---------------------------------------------------------------------
// Concurrent write path: the commit FIFO, decisions in publication
// order, inline Write->Read folds under running snapshots.
// ---------------------------------------------------------------------

TEST_F(TxnTest, PublishedBatchFoldsUnderOneLeader) {
  // Two transactions publish into the commit FIFO; the first
  // AwaitCommit decides BOTH records in one drain.
  auto a = mgr_->Begin();
  auto b = mgr_->Begin();
  ASSERT_TRUE(a->Insert({"Berlin", "table", "Y", 10}).ok());
  ASSERT_TRUE(b->Insert({"Berlin", "cloth", "Y", 5}).ok());
  ASSERT_TRUE(a->Publish().ok());
  ASSERT_TRUE(b->Publish().ok());
  EXPECT_EQ(mgr_->GetStats().pending_deltas, 2u);
  // After Publish the transaction is sealed: reads fail loudly instead
  // of silently returning nothing, and RowCount is frozen at Publish.
  EXPECT_FALSE(a->Insert({"X", "x", "N", 1}).ok());
  auto sealed = a->Scan({0});
  ASSERT_NE(sealed, nullptr);
  Batch scratch;
  auto next = sealed->Next(&scratch, 1024);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(a->RowCount(), 6u);  // 5 seed rows + a's insert, cached
  ASSERT_TRUE(a->AwaitCommit().ok());
  TxnManagerStats s = mgr_->GetStats();
  EXPECT_EQ(s.pending_deltas, 0u);
  EXPECT_EQ(s.fold_batches, 1u);
  EXPECT_EQ(s.folded_records, 2u);
  // b's verdict was decided by a's drain; AwaitCommit just reads it.
  ASSERT_TRUE(b->AwaitCommit().ok());
  EXPECT_EQ(mgr_->committed_count(), 2u);
  auto check = mgr_->Begin();
  EXPECT_EQ(TxnScan(*check, *schema_).size(), 7u);
}

TEST_F(TxnTest, ConflictDecidedAcrossFoldBoundary) {
  // Both sides of a write-write conflict publish before either is
  // decided: the first AwaitCommit commits the first record and aborts
  // the second, in publication order.
  auto a = mgr_->Begin();
  auto b = mgr_->Begin();
  ASSERT_TRUE(
      a->ModifyByKey({Value("Paris"), Value("rug")}, 3, Value(2)).ok());
  ASSERT_TRUE(
      b->ModifyByKey({Value("Paris"), Value("rug")}, 3, Value(3)).ok());
  ASSERT_TRUE(a->Publish().ok());
  ASSERT_TRUE(b->Publish().ok());
  ASSERT_TRUE(a->AwaitCommit().ok());
  EXPECT_EQ(b->AwaitCommit().code(), StatusCode::kConflict);
  EXPECT_EQ(mgr_->aborted_count(), 1u);
  auto check = mgr_->Begin();
  auto got = check->GetByKey({Value("Paris"), Value("rug")});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)[3], Value(2));
}

TEST_F(TxnTest, AbortUnlinksPublishedRecordBeforeFold) {
  // A published-but-undecided record withdraws cleanly: its neighbours
  // in the commit FIFO still commit.
  auto a = mgr_->Begin();
  auto b = mgr_->Begin();
  auto c = mgr_->Begin();
  ASSERT_TRUE(a->Insert({"A1", "p", "Y", 1}).ok());
  ASSERT_TRUE(b->Insert({"B1", "p", "Y", 2}).ok());
  ASSERT_TRUE(c->Insert({"C1", "p", "Y", 3}).ok());
  ASSERT_TRUE(a->Publish().ok());
  ASSERT_TRUE(b->Publish().ok());
  ASSERT_TRUE(c->Publish().ok());
  b->Abort();  // withdraw from the middle of the FIFO
  EXPECT_TRUE(b->finished());
  EXPECT_EQ(mgr_->GetStats().pending_deltas, 2u);
  ASSERT_TRUE(a->AwaitCommit().ok());
  ASSERT_TRUE(c->AwaitCommit().ok());
  EXPECT_EQ(mgr_->committed_count(), 2u);
  EXPECT_EQ(mgr_->aborted_count(), 1u);
  auto check = mgr_->Begin();
  auto rows = TxnScan(*check, *schema_);
  EXPECT_EQ(rows.size(), 7u);
  EXPECT_FALSE(check->GetByKey({Value("B1"), Value("p")}).ok());
}

TEST_F(TxnTest, AbortAfterFoldIsANoOp) {
  // If another AwaitCommit already committed the record, the commit
  // stands: Abort afterwards must not undo it or double-release TZ
  // references.
  auto a = mgr_->Begin();
  auto b = mgr_->Begin();
  ASSERT_TRUE(a->Insert({"A2", "p", "Y", 1}).ok());
  ASSERT_TRUE(b->Insert({"B2", "p", "Y", 2}).ok());
  ASSERT_TRUE(a->Publish().ok());
  ASSERT_TRUE(b->Publish().ok());
  ASSERT_TRUE(a->AwaitCommit().ok());  // decides b's record too
  b->Abort();                          // verdict already committed
  EXPECT_TRUE(b->finished());
  EXPECT_EQ(mgr_->committed_count(), 2u);
  EXPECT_EQ(mgr_->aborted_count(), 0u);
  auto check = mgr_->Begin();
  EXPECT_TRUE(check->GetByKey({Value("B2"), Value("p")}).ok());
}

TEST_F(TxnTest, AwaitOnLaterRecordDecidesEarlierFirst) {
  // Awaiting the newest record decides every record published before
  // it, in publication order: the WAL's frames insert A3, B3, C3.
  auto a = mgr_->Begin();
  auto b = mgr_->Begin();
  auto c = mgr_->Begin();
  ASSERT_TRUE(a->Insert({"A3", "p", "Y", 1}).ok());
  ASSERT_TRUE(b->Insert({"B3", "p", "Y", 2}).ok());
  ASSERT_TRUE(c->Insert({"C3", "p", "Y", 3}).ok());
  ASSERT_TRUE(a->Publish().ok());
  ASSERT_TRUE(b->Publish().ok());
  ASSERT_TRUE(c->Publish().ok());
  ASSERT_TRUE(c->AwaitCommit().ok());
  // a and b were decided by c's call, before their own AwaitCommit.
  EXPECT_EQ(mgr_->committed_count(), 3u);
  TxnManagerStats s = mgr_->GetStats();
  EXPECT_EQ(s.pending_deltas, 0u);
  EXPECT_EQ(s.fold_batches, 1u);
  EXPECT_EQ(s.folded_records, 3u);
  std::vector<Value> commits;
  ASSERT_TRUE(wal_.Replay([&](const std::vector<WalRecord>& ops) -> Status {
                    EXPECT_EQ(ops.size(), 1u);
                    commits.push_back(ops.at(0).tuple.at(0));
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(commits,
            (std::vector<Value>{Value("A3"), Value("B3"), Value("C3")}));
  ASSERT_TRUE(a->AwaitCommit().ok());
  ASSERT_TRUE(b->AwaitCommit().ok());
  EXPECT_EQ(mgr_->committed_count(), 3u);
}

TEST_F(TxnTest, FoldUnderPinnedReaderIsInline) {
  // A long-running reader pins its snapshot while commits overflow the
  // Write-PDT. Each over-cap commit folds inline before it returns —
  // the running reader does not defer it — and installs a new Read-PDT
  // without changing the reader's view.
  mgr_.reset();  // a table has exactly one driver at a time
  TxnManagerOptions opts;
  opts.write_pdt_max_entries = 2;  // overflow quickly
  auto mgr = std::make_unique<TxnManager>(table_.get(), nullptr, opts);
  auto reader = mgr->Begin();
  EXPECT_EQ(TxnScan(*reader, *schema_).size(), 5u);
  for (int i = 0; i < 12; ++i) {
    auto txn = mgr->Begin();
    ASSERT_TRUE(txn->Insert({"M" + std::to_string(i), "p", "Y", i}).ok());
    ASSERT_TRUE(txn->Commit().ok());
    TxnManagerStats s = mgr->GetStats();
    EXPECT_LE(s.write_pdt_entries, 2u) << "commit " << i;
    EXPECT_EQ(s.merge_pending_entries, 0u) << "commit " << i;
    // The reader's snapshot stays at 5 rows throughout.
    EXPECT_EQ(TxnScan(*reader, *schema_).size(), 5u) << "commit " << i;
  }
  // One single-entry commit per insert: every third commit crosses the
  // cap of 2 and folds.
  EXPECT_EQ(mgr->GetStats().background_merges, 4u);
  ASSERT_TRUE(reader->Commit().ok());
  auto check = mgr->Begin();
  EXPECT_EQ(TxnScan(*check, *schema_).size(), 17u);
  ASSERT_TRUE(check->Commit().ok());
  // Quiesce: the last commits' Write-PDT entries collapse into the
  // Read-PDT and the image stays the same.
  ASSERT_TRUE(mgr->PropagateAndMaybeCheckpoint().ok());
  EXPECT_EQ(mgr->GetStats().write_pdt_entries, 0u);
  auto after = mgr->Begin();
  EXPECT_EQ(TxnScan(*after, *schema_).size(), 17u);
}

TEST_F(TxnTest, RecoveryReplaysInterleavedGroupCommitBatches) {
  // Concurrent writers publish into shared fold batches (group commit);
  // the WAL those folds wrote must replay to exactly the same state.
  constexpr int kWriters = 4;
  constexpr int kTxnsPerWriter = 16;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kTxnsPerWriter; ++i) {
        auto txn = mgr_->Begin();
        const std::string key =
            "W" + std::to_string(w) + "_" + std::to_string(i);
        if (!txn->Insert({key, "p", "Y", w * 100 + i}).ok() ||
            !txn->Commit().ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_EQ(mgr_->committed_count(),
            static_cast<uint64_t>(kWriters * kTxnsPerWriter));
  // Replay the interleaved log into a fresh table.
  Table fresh("inventory", schema_, TableOptions{});
  ASSERT_TRUE(fresh.Load(InventoryRows()).ok());
  TxnManager fresh_mgr(&fresh, nullptr);
  ASSERT_TRUE(fresh_mgr.Recover(wal_).ok());
  auto replayed = fresh_mgr.Begin();
  auto original = mgr_->Begin();
  EXPECT_EQ(TxnScan(*replayed, *schema_), TxnScan(*original, *schema_));
}

TEST_F(TxnTest, QuietPointFoldDoesNotRaceDriverlessScans) {
  // A single writer keeps every commit at a quiet point, so each
  // oversized Write-PDT folds inline — while a driverless Table::Scan
  // has the Read-PDT pinned on another thread. The fold must install a
  // merged clone instead of mutating the pinned layer (TSan checks the
  // absence of the race; the row counts check each scan saw one image).
  mgr_.reset();  // a table has exactly one driver at a time
  TxnManagerOptions opts;
  opts.write_pdt_max_entries = 2;
  TxnManager mgr(table_.get(), nullptr, opts);
  constexpr int kCommits = 40;
  std::atomic<bool> done{false};
  std::atomic<int> bad_scans{0};
  std::thread scanner([&] {
    const std::vector<ColumnId> all = {0, 1, 2, 3};
    while (!done.load()) {
      auto rows = CollectRows(table_->Scan(all).get());
      if (!rows.ok() || rows->size() < 5 || rows->size() > 5 + kCommits) {
        bad_scans.fetch_add(1);
      }
    }
  });
  for (int i = 0; i < kCommits; ++i) {
    auto txn = mgr.Begin();
    ASSERT_TRUE(txn->Insert({"Q" + std::to_string(100 + i), "p", "Y", i}).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  done.store(true);
  scanner.join();
  EXPECT_EQ(bad_scans.load(), 0);
  // Every insert but the at most two still in the Write-PDT reached the
  // installed Read-PDT.
  EXPECT_GE(table_->RowCount(), static_cast<uint64_t>(5 + kCommits - 2));
  auto check = mgr.Begin();
  EXPECT_EQ(TxnScan(*check, *schema_).size(), 5u + kCommits);
}

TEST(TxnBoundedScanTest, OwnInsertSurvivesCommittedDeletesEmptyingRange) {
  // A key-bounded scan whose stable range is wholly deleted by a lower
  // (committed) layer: the lower merge yields no rows, so the top
  // layer's cursor must already sit at the range start to emit the
  // transaction's own insert there.
  auto schema = std::make_shared<const Schema>(
      std::move(*Schema::Make({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}},
                              {0})));
  TableOptions opts;
  opts.store.chunk_rows = 10;
  Table table("t", schema, opts);
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({i * 10, i});
  ASSERT_TRUE(table.Load(rows).ok());
  TxnManager mgr(&table, nullptr);
  {
    auto del = mgr.Begin();
    for (int64_t k = 200; k <= 290; k += 10) {
      ASSERT_TRUE(del->DeleteByKey({Value(k)}).ok());
    }
    ASSERT_TRUE(del->Commit().ok());
  }
  auto txn = mgr.Begin();
  ASSERT_TRUE(txn->Insert({int64_t{255}, int64_t{-1}}).ok());
  const KeyBounds bounds{{Value(250)}, {Value(260)}};
  for (int threads : {1, 2}) {
    ScanOptions so;
    so.num_threads = threads;
    auto got = CollectRows(txn->Scan({0, 1}, &bounds, so).get());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    std::vector<Tuple> in_bounds;
    for (const Tuple& t : *got) {
      if (t[0].AsInt64() >= 250 && t[0].AsInt64() <= 260) {
        in_bounds.push_back(t);
      }
    }
    EXPECT_EQ(in_bounds, (std::vector<Tuple>{{int64_t{255}, int64_t{-1}}}))
        << threads << " thread(s)";
  }
}

TEST(TxnBoundedScanTest, BoundsMissingEveryChunkReadOnlyTheirInserts) {
  // A transaction's bounded scan over keys no chunk holds — above the
  // max, or in the gap between two chunks — reads no chunk and returns
  // exactly the insert in the bounds: first as the transaction's own
  // uncommitted insert, then committed, from a later snapshot.
  auto schema = std::make_shared<const Schema>(
      std::move(*Schema::Make({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}},
                              {0})));
  TableOptions opts;
  opts.store.chunk_rows = 10;  // chunk c holds keys 100c..100c+90
  Table table("t", schema, opts);
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({i * 10, i});
  ASSERT_TRUE(table.Load(rows).ok());
  TxnManager mgr(&table, nullptr);
  const Tuple gap = {int64_t{95}, int64_t{-1}};     // chunks 0 and 1
  const Tuple above = {int64_t{5000}, int64_t{-2}};  // past key 990
  const std::vector<ColumnId> projection = {0, 1};
  BufferPool* pool = table.buffer_pool();
  auto check = [&](const Transaction& txn, const char* label) {
    for (const Tuple& want : {gap, above}) {
      const int64_t k = want[0].AsInt64();
      const KeyBounds bounds{{Value(k - 3)}, {Value(k + 3)}};
      for (int threads : {1, 2}) {
        pool->EvictAll();
        pool->ResetStats();
        ScanOptions so;
        so.num_threads = threads;
        auto got = CollectRows(txn.Scan(projection, &bounds, so).get());
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(*got, std::vector<Tuple>{want})
            << label << ": key " << k << ", " << threads << " thread(s)";
        const IoStats st = pool->stats();
        EXPECT_EQ(st.chunks_skipped,
                  table.store().num_chunks() * projection.size())
            << label << ": key " << k << ", " << threads << " thread(s)";
        EXPECT_EQ(st.chunks_read, 0u)
            << label << ": key " << k << ", " << threads << " thread(s)";
      }
    }
  };
  auto writer = mgr.Begin();
  ASSERT_TRUE(writer->Insert(gap).ok());
  ASSERT_TRUE(writer->Insert(above).ok());
  check(*writer, "own inserts");
  ASSERT_TRUE(writer->Commit().ok());
  auto reader = mgr.Begin();
  check(*reader, "committed inserts");
}

TEST_F(TxnTest, ReadPdtValueSpaceStaysBoundedAcrossFolds) {
  // Cycles of "insert K keys, fold; delete them, fold" leave the
  // Read-PDT with no live entries after every cycle. Deleting a folded
  // insert erases its entry but not its value-space row; each fold
  // clones the Read-PDT, and the clone drops those rows, so the insert
  // table never holds more than one cycle's keys.
  constexpr int kKeys = 20;
  constexpr int kCycles = 10;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (bool insert : {true, false}) {
      auto txn = mgr_->Begin();
      for (int i = 0; i < kKeys; ++i) {
        const std::string prod = "p" + std::to_string(i);
        Status st = insert ? txn->Insert({"Zurich", prod, "Y", i})
                           : txn->DeleteByKey({Value("Zurich"), Value(prod)});
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
      ASSERT_TRUE(txn->Commit().ok());
      ASSERT_TRUE(mgr_->PropagateAndMaybeCheckpoint().ok());
      const Pdt& read = *table_->pdt();
      EXPECT_EQ(read.InsertCount(), insert ? size_t{kKeys} : 0u);
      // After an insert fold the table holds exactly the live inserts;
      // after a delete fold, the rows that fold's deletes left behind.
      EXPECT_EQ(read.value_space().insert_count(), size_t{kKeys})
          << "cycle " << cycle << (insert ? " insert" : " delete");
    }
  }
  EXPECT_EQ(table_->pdt()->EntryCount(), 0u);
}

TEST_F(TxnTest, CheckpointKeepsSharedWalForOtherTables) {
  // Two managers log to one WAL (as Database's per-table managers do).
  // One checkpoints its table; the log must keep the other table's
  // committed redo, which recovery then replays.
  mgr_.reset();
  Wal shared;
  Table stock("stock", schema_, TableOptions{});
  ASSERT_TRUE(stock.Load(InventoryRows()).ok());
  TxnManagerOptions checkpointing;
  checkpointing.read_pdt_max_entries = 0;  // always checkpoint
  TxnManager inventory_mgr(table_.get(), &shared, checkpointing);
  TxnManager stock_mgr(&stock, &shared);
  for (TxnManager* m : {&stock_mgr, &inventory_mgr}) {
    auto txn = m->Begin();
    ASSERT_TRUE(txn->Insert({"Berlin", "cloth", "Y", 5}).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  ASSERT_TRUE(inventory_mgr.PropagateAndMaybeCheckpoint().ok());
  EXPECT_EQ(table_->store().num_rows(), 6u);  // checkpointed
  Table fresh("stock", schema_, TableOptions{});
  ASSERT_TRUE(fresh.Load(InventoryRows()).ok());
  TxnManager fresh_mgr(&fresh, nullptr);
  ASSERT_TRUE(fresh_mgr.Recover(shared).ok());
  auto check = fresh_mgr.Begin();
  EXPECT_EQ(TxnScan(*check, *schema_).size(), 6u);
  EXPECT_TRUE(check->GetByKey({Value("Berlin"), Value("cloth")}).ok());
}

}  // namespace
}  // namespace pdtstore
