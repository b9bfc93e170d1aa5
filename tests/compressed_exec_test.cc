// Targeted tests for the compressed-execution machinery: zero-copy
// borrowed spans (lifetime, copy-on-write), dictionary code columns
// (breaker re-encoding and decay), encoded predicate kernels (RLE
// run-at-a-time, dict verdict tables) and buffer-pool stats atomicity.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/table.h"
#include "exec/filter.h"
#include "storage/buffer_pool.h"
#include "storage/column_store.h"

namespace pdtstore {
namespace {

std::shared_ptr<const Schema> TestSchema() {
  auto s = Schema::Make({{"k", TypeId::kInt64},
                         {"v", TypeId::kInt64},
                         {"s", TypeId::kString}},
                        {0});
  return std::make_shared<const Schema>(std::move(*s));
}

// n rows: k = i, v = i / 8 (long runs), s cycles over 4 values (small
// dictionary). Chunked small so multi-chunk behavior shows up at tiny n.
std::unique_ptr<Table> MakeTable(int64_t n, bool encoded_exec = true,
                                 std::vector<Encoding> forced = {}) {
  TableOptions opts;
  opts.store.chunk_rows = 64;
  opts.store.encoded_exec = encoded_exec;
  opts.store.forced_encodings = std::move(forced);
  auto t = std::make_unique<Table>("t", TestSchema(), opts);
  std::vector<Tuple> rows;
  rows.reserve(n);
  const char* names[] = {"alpha", "beta", "gamma", "delta"};
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({i, i / 8, std::string(names[i % 4])});
  }
  EXPECT_TRUE(t->Load(rows).ok());
  return t;
}

std::vector<Tuple> Collect(BatchSource* src) {
  auto rows = CollectRows(src);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? std::move(*rows) : std::vector<Tuple>{};
}

// ---------------------------------------------------------------------
// Borrowed spans.
// ---------------------------------------------------------------------

// A batch pulled from a scan stays readable after the scan source is
// destroyed and the pool evicts everything: the borrow's shared_ptr pins
// the decoded chunk.
TEST(CompressedExec, BorrowedBatchOutlivesScanAndEviction) {
  auto t = MakeTable(256);
  Batch b;
  {
    auto scan = t->Scan({0, 1, 2});
    auto more = scan->Next(&b, 64);
    ASSERT_TRUE(more.ok() && *more);
  }                              // scan source gone
  t->buffer_pool()->EvictAll();  // pool reference gone too
  ASSERT_EQ(b.num_rows(), 64u);
  EXPECT_TRUE(b.column(0).is_borrowed());
  const int64_t* k = b.column(0).ints_data();
  const char* names[] = {"alpha", "beta", "gamma", "delta"};
  for (size_t i = 0; i < b.num_rows(); ++i) {
    EXPECT_EQ(k[i], static_cast<int64_t>(i));
    EXPECT_EQ(b.column(2).StringAt(i), names[i % 4]);
  }
}

// Mutating a borrowed column detaches a private copy; the pool-owned
// chunk the scan borrowed from is not scribbled on.
TEST(CompressedExec, CopyOnWriteDetachProtectsChunkStorage) {
  auto t = MakeTable(128);
  auto scan = t->Scan({0, 1, 2});
  Batch b;
  ASSERT_TRUE(scan->Next(&b, 64).ok());
  ASSERT_TRUE(b.column(0).is_borrowed());

  b.column(0).ints()[0] = -999;  // copy-on-write detach
  EXPECT_FALSE(b.column(0).is_borrowed());
  EXPECT_EQ(b.column(0).ints_data()[0], -999);

  // A fresh scan still sees the original values.
  auto scan2 = t->Scan({0});
  Batch b2;
  ASSERT_TRUE(scan2->Next(&b2, 64).ok());
  EXPECT_EQ(b2.column(0).ints_data()[0], 0);
}

// ---------------------------------------------------------------------
// Dictionary columns at breakers.
// ---------------------------------------------------------------------

// AppendRange from a dictionary column into an empty string column
// adopts the dictionary (code copy); appending from a column with a
// *different* dictionary then decays to plain — values stay correct.
TEST(CompressedExec, DictAdoptionAndDecayAtBreakers) {
  auto t1 = MakeTable(64, true, {Encoding::kPlain, Encoding::kPlain,
                                 Encoding::kDict});
  TableOptions opts2;
  opts2.store.chunk_rows = 64;
  auto t2 = std::make_unique<Table>("t2", TestSchema(), opts2);
  std::vector<Tuple> rows2;
  for (int64_t i = 0; i < 64; ++i) {
    rows2.push_back({i, i, std::string(i % 2 ? "omega" : "sigma")});
  }
  ASSERT_TRUE(t2->Load(rows2).ok());

  auto c1 = t1->store().FetchChunk(2, 0);
  auto c2 = t2->store().FetchChunk(2, 0);
  ASSERT_TRUE(c1.ok() && c2.ok());
  ASSERT_TRUE((*c1)->is_dict());

  ColumnVector out(TypeId::kString);
  out.AppendRange(**c1, 0, 8);
  EXPECT_TRUE(out.is_dict());  // adopted c1's dictionary
  EXPECT_EQ(out.dict().get(), (*c1)->dict().get());

  out.AppendRange(**c2, 0, 4);  // different (or no) dict: must decay
  EXPECT_FALSE(out.is_dict());
  ASSERT_EQ(out.size(), 12u);
  EXPECT_EQ(out.StringAt(0), "alpha");
  EXPECT_EQ(out.StringAt(7), "delta");
  EXPECT_EQ(out.StringAt(8), "sigma");
  EXPECT_EQ(out.StringAt(9), "omega");
}

// Equal hashes across representations: group-by and join partitioning
// rely on the dict path producing the same per-row hash as plain.
TEST(CompressedExec, DictAndPlainHashesAgree) {
  auto enc = MakeTable(64, true, {Encoding::kPlain, Encoding::kPlain,
                                  Encoding::kDict});
  auto dec = MakeTable(64, false);
  auto c_enc = enc->store().FetchChunk(2, 0);
  auto c_dec = dec->store().FetchChunk(2, 0);
  ASSERT_TRUE(c_enc.ok() && c_dec.ok());
  ASSERT_TRUE((*c_enc)->is_dict());
  ASSERT_FALSE((*c_dec)->is_dict());
  std::vector<uint64_t> h1((*c_enc)->size(), kHashSeed);
  std::vector<uint64_t> h2((*c_dec)->size(), kHashSeed);
  (*c_enc)->HashColumn(h1.data());
  (*c_dec)->HashColumn(h2.data());
  EXPECT_EQ(h1, h2);
}

// ---------------------------------------------------------------------
// Encoded predicate kernels.
// ---------------------------------------------------------------------

// Same data stored four ways; every predicate shape must select the
// same rows, whether it runs per-row, per-run (RLE sidecar), or per
// dictionary entry.
TEST(CompressedExec, EncodedPredicatesMatchDecodedReference) {
  const int64_t n = 500;
  std::vector<std::vector<Encoding>> variants = {
      {},  // heuristics
      {Encoding::kPlain, Encoding::kRle, Encoding::kDict},
      {Encoding::kForBitPack, Encoding::kPlain, Encoding::kPlain},
  };
  auto ref_table = MakeTable(n, false);
  std::vector<std::pair<const char*, VecPredicate>> preds;
  preds.emplace_back("between", Int64Between(1, 10, 40));
  preds.emplace_back("str_eq", StringEquals(2, "gamma"));
  preds.emplace_back("str_match", StringMatch(2, [](const std::string& s) {
                       return !s.empty() && s[0] == 'd';
                     }));
  for (auto& [name, pred] : preds) {
    auto rs = std::make_unique<FilterNode>(ref_table->Scan({0, 1, 2}), pred);
    const std::vector<Tuple> want = Collect(rs.get());
    EXPECT_FALSE(want.empty()) << name;
    for (const auto& forced : variants) {
      auto t = MakeTable(n, true, forced);
      auto fs = std::make_unique<FilterNode>(t->Scan({0, 1, 2}), pred);
      EXPECT_EQ(Collect(fs.get()), want) << name;
    }
  }
}

// The RLE sidecar actually exists on forced-RLE columns (so the
// run-at-a-time kernel, not the per-row loop, is what the test above
// exercised), and run bounds reconstruct the column.
TEST(CompressedExec, RleSidecarPresentAndConsistent) {
  auto t = MakeTable(256, true,
                     {Encoding::kPlain, Encoding::kRle, Encoding::kPlain});
  auto c = t->store().FetchChunk(1, 0);
  ASSERT_TRUE(c.ok());
  const RleRuns* runs = (*c)->rle_runs();
  ASSERT_NE(runs, nullptr);
  const int64_t* v = (*c)->ints_data();
  uint32_t begin = 0;
  for (uint32_t end : runs->ends) {
    ASSERT_LT(begin, end);
    for (uint32_t i = begin; i < end; ++i) EXPECT_EQ(v[i], v[begin]);
    if (end < (*c)->size()) EXPECT_NE(v[end], v[begin]);
    begin = end;
  }
  EXPECT_EQ(begin, (*c)->size());
}

// ---------------------------------------------------------------------
// BufferPool stats.
// ---------------------------------------------------------------------

// Concurrent fetches with a concurrent stats() poller: counters must
// add up exactly afterwards (they are relaxed atomics, not a racy
// read-modify-write under no lock).
TEST(CompressedExec, PoolStatsAreExactUnderConcurrency) {
  auto t = MakeTable(512);
  BufferPool* pool = t->buffer_pool();
  pool->EvictAll();
  pool->ResetStats();
  const size_t chunks = t->store().num_chunks();
  const int kThreads = 8, kRounds = 50;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        for (size_t ci = 0; ci < chunks; ++ci) {
          auto c = t->store().FetchChunk(0, ci);
          ASSERT_TRUE(c.ok());
        }
      }
    });
  }
  std::thread poller([&] {
    for (int i = 0; i < 1000; ++i) (void)pool->stats();
  });
  for (auto& w : workers) w.join();
  poller.join();
  const IoStats s = pool->stats();
  EXPECT_EQ(s.chunks_read + s.hits,
            static_cast<uint64_t>(kThreads) * kRounds * chunks);
  EXPECT_GE(s.chunks_read, chunks);  // every chunk missed at least once
  EXPECT_GT(s.bytes_read, 0u);
}

}  // namespace
}  // namespace pdtstore
