// Crash-recovery fuzzing: every seeded iteration runs a random
// transactional workload against a persistent Database on a
// fault-injecting file system, kills the "machine" at a random point (a
// torn write at an exact byte, a failed fsync, a crash around a
// checkpoint rename), then restarts on a clean file system and checks
// the commit-prefix contract:
//
//   - every acknowledged commit is visible after recovery,
//   - aborted and unacknowledged work is invisible, EXCEPT that the one
//     commit in flight at the moment of the crash may survive whole
//     (its frames reached disk before the ack could be delivered) —
//     never partially.
//
// Knobs (environment):
//   PDT_CRASH_SEED   base seed (default 20260808)
//   PDT_CRASH_ITERS  iterations (default 40; the CI batch runs 200)
//
// A failure prints the iteration's seed; rerun exactly that case with
//   PDT_CRASH_SEED=<seed> PDT_CRASH_ITERS=1 ./crash_recovery_fuzz_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "util/file.h"
#include "util/random.h"

namespace pdtstore {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

std::shared_ptr<const Schema> CrashSchema() {
  auto s = Schema::Make(
      {{"k", TypeId::kInt64}, {"v", TypeId::kInt64}, {"s", TypeId::kString}},
      {0});
  return std::make_shared<const Schema>(std::move(*s));
}

// Ground truth: key -> row. Rows are keyed by the int64 sort key.
using Model = std::map<int64_t, Tuple>;

std::vector<Tuple> ModelRows(const Model& m) {
  std::vector<Tuple> rows;
  rows.reserve(m.size());
  for (const auto& [k, row] : m) rows.push_back(row);
  return rows;
}

StatusOr<std::vector<Tuple>> ScanAll(Table* table) {
  auto src = table->Scan({0, 1, 2});
  return CollectRows(src.get());
}

// One random transaction's ops, applied both to the live txn and to
// `model` (the would-be state if this txn commits). Ops are constructed
// to be individually valid, so any failure is a real engine bug.
Status ApplyRandomTxn(Random* rng, Transaction* txn, Model* model) {
  const int ops = 1 + static_cast<int>(rng->Uniform(4));
  for (int i = 0; i < ops; ++i) {
    const double d = rng->NextDouble();
    if (d < 0.5 || model->empty()) {
      int64_t k;
      do {
        k = static_cast<int64_t>(rng->Uniform(10000));
      } while (model->count(k) > 0);
      Tuple row{k, static_cast<int64_t>(rng->Uniform(1000)),
                rng->NextString(1 + rng->Uniform(6))};
      PDT_RETURN_NOT_OK(txn->Insert(row));
      (*model)[k] = std::move(row);
    } else {
      auto it = model->begin();
      std::advance(it, rng->Uniform(model->size()));
      const int64_t k = it->first;
      if (d < 0.75) {
        PDT_RETURN_NOT_OK(txn->DeleteByKey({Value(k)}));
        model->erase(it);
      } else {
        const int64_t v = static_cast<int64_t>(rng->Uniform(1 << 20));
        PDT_RETURN_NOT_OK(txn->ModifyByKey({Value(k)}, 1, Value(v)));
        it->second[1] = v;
      }
    }
  }
  return Status::OK();
}

void RunIteration(uint64_t seed) {
  Random rng(seed);
  const std::string dir =
      ::testing::TempDir() + "/crash_fuzz_" + std::to_string(seed);
  std::filesystem::remove_all(dir);

  // --- Phase A: clean setup (real fs). A bulk-loaded, checkpointed
  // base image plus a few WAL-only commits, so recovery exercises both
  // the image-load and the replay path.
  Model acked;
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto table = (*db)->CreateTable("fuzz", CrashSchema());
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    const int base = 10 + static_cast<int>(rng.Uniform(30));
    for (int i = 0; i < base; ++i) {
      Tuple row{int64_t{i * 16}, static_cast<int64_t>(rng.Uniform(1000)),
                rng.NextString(1 + rng.Uniform(5))};
      acked[i * 16] = row;
    }
    ASSERT_TRUE((*table)->Load(ModelRows(acked)).ok());
    ASSERT_TRUE((*db)->Save().ok());
    auto mgr = (*db)->Txn("fuzz");
    ASSERT_TRUE(mgr.ok());
    const int setup_txns = static_cast<int>(rng.Uniform(4));
    for (int t = 0; t < setup_txns; ++t) {
      auto txn = (*mgr)->Begin();
      Model next = acked;
      ASSERT_TRUE(ApplyRandomTxn(&rng, txn.get(), &next).ok());
      ASSERT_TRUE(txn->Commit().ok());
      acked = std::move(next);
    }
  }

  // --- Phase B: the faulty run. One fault is armed; the workload runs
  // until the machine dies (or ends unscathed, if the fault was never
  // reached — e.g. a rename crash with no Save).
  FaultInjectingFs fs(FileSystem::Default());
  const int fault_kind = static_cast<int>(rng.Uniform(3));
  switch (fault_kind) {
    case 0:
      fs.ScheduleCrashAfterBytes(1 + rng.Uniform(4000));
      break;
    case 1:
      fs.ScheduleCrashAtRename(1 + static_cast<int>(rng.Uniform(3)),
                               rng.Bernoulli(0.5) ? RenameCrash::kBefore
                                                  : RenameCrash::kAfter);
      break;
    default:
      fs.FailNextSync();
      break;
  }
  // The fault can fire while Phase B's Open replays + reattaches; a
  // degraded or failed open here just means the crash landed before any
  // new work — recovery is then checked against the Phase A state.
  Model in_flight;     // state if the crash-interrupted commit survived
  bool have_in_flight = false;
  {
    DatabaseOptions opts;
    opts.fs = &fs;
    auto db = Database::Open(dir, opts);
    if (db.ok() && !(*db)->read_only()) {
      auto mgr = (*db)->Txn("fuzz");
      ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
      const int txns = 8 + static_cast<int>(rng.Uniform(25));
      for (int t = 0; t < txns && !fs.crashed(); ++t) {
        auto txn = (*mgr)->Begin();
        Model next = acked;
        if (!ApplyRandomTxn(&rng, txn.get(), &next).ok()) break;
        if (rng.Bernoulli(0.1)) {
          txn->Abort();  // aborted work must never resurface
          continue;
        }
        if (txn->Commit().ok()) {
          acked = std::move(next);
        } else {
          // The unacknowledged commit: its frames may or may not have
          // reached disk before the fault. Durability was refused, so
          // it is allowed to survive whole — or to vanish.
          in_flight = std::move(next);
          have_in_flight = true;
          break;
        }
        if (rng.Bernoulli(0.12)) {
          // A checkpoint mid-workload: its renames are fault targets.
          // All acked state is inside it, so success or failure does
          // not change the expected outcome.
          if (!(*db)->Save().ok()) break;
        }
      }
    }
  }

  // --- Phase C: restart on a pristine file system.
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_FALSE((*db)->read_only())
      << "recovery degraded: " << (*db)->recovery_status().ToString();
  auto table = (*db)->GetTable("fuzz");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  auto rows = ScanAll(*table);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();

  const std::vector<Tuple> want_acked = ModelRows(acked);
  if (*rows == want_acked) {
    // The acknowledged prefix, exactly.
  } else if (have_in_flight && *rows == ModelRows(in_flight)) {
    // The in-flight commit made it to disk whole before the crash.
  } else {
    FAIL() << "recovered state matches neither the acknowledged state ("
           << want_acked.size() << " rows) nor acked+in-flight; got "
           << rows->size() << " rows";
  }

  // The recovered database is live: one more commit must stick.
  auto mgr = (*db)->Txn("fuzz");
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  auto txn = (*mgr)->Begin();
  ASSERT_TRUE(txn->Insert({int64_t{-1}, int64_t{0}, std::string("post")})
                  .ok());
  ASSERT_TRUE(txn->Commit().ok());

  std::filesystem::remove_all(dir);
}

TEST(CrashRecoveryFuzz, AcknowledgedCommitsSurviveRandomCrashes) {
  const uint64_t base = EnvOr("PDT_CRASH_SEED", 20260808);
  const uint64_t iters = EnvOr("PDT_CRASH_ITERS", 40);
  for (uint64_t i = 0; i < iters; ++i) {
    const uint64_t seed = base + i;
    SCOPED_TRACE("repro: PDT_CRASH_SEED=" + std::to_string(seed) +
                 " PDT_CRASH_ITERS=1 ./crash_recovery_fuzz_test");
    RunIteration(seed);
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;
    }
  }
}

TEST(CrashRecoveryFuzz, MidLogCorruptionIsAlwaysReported) {
  // Not a crash shape: a bad frame with valid frames after it means the
  // storage lied, and recovery must refuse — loudly, read-only — rather
  // than silently drop committed transactions.
  const uint64_t base = EnvOr("PDT_CRASH_SEED", 20260808);
  for (uint64_t i = 0; i < 8; ++i) {
    const uint64_t seed = base ^ (0xC0FFEEULL + i);
    SCOPED_TRACE("corruption seed " + std::to_string(seed));
    Random rng(seed);
    const std::string dir =
        ::testing::TempDir() + "/crash_flip_" + std::to_string(seed);
    std::filesystem::remove_all(dir);
    {
      auto db = Database::Open(dir);
      ASSERT_TRUE(db.ok());
      ASSERT_TRUE((*db)->CreateTable("fuzz", CrashSchema()).ok());
      auto mgr = (*db)->Txn("fuzz");
      ASSERT_TRUE(mgr.ok());
      for (int t = 0; t < 6; ++t) {
        auto txn = (*mgr)->Begin();
        ASSERT_TRUE(txn->Insert({int64_t{t}, int64_t{t}, std::string("r")})
                        .ok());
        ASSERT_TRUE(txn->Commit().ok());
      }
    }
    const std::string wal_path = dir + "/wal.000000";
    std::string data;
    ASSERT_TRUE(
        FileSystem::Default()->ReadFileToString(wal_path, &data).ok());
    ASSERT_GT(data.size(), 64u);
    // Flip one bit in the first half: guaranteed to damage a frame that
    // has valid data after it (never the torn-tail shape).
    const size_t at = rng.Uniform(data.size() / 2);
    data[at] ^= static_cast<char>(1 << rng.Uniform(8));
    auto f = FileSystem::Default()->NewWritableFile(wal_path, true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(data).ok());
    ASSERT_TRUE((*f)->Close().ok());

    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok());
    EXPECT_TRUE((*db)->read_only());
    EXPECT_EQ((*db)->recovery_status().code(), StatusCode::kCorruption);
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace pdtstore
