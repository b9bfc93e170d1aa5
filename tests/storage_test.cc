// Storage-layer tests: chunk build/decode with zone maps, buffer-pool
// caching / eviction / I/O accounting (including the chunks a bounded
// scan's sparse-index lookup skips), and ColumnStore bulk load, random
// access and disk-byte reporting.
#include <gtest/gtest.h>

#include "db/table.h"
#include "storage/buffer_pool.h"
#include "storage/chunk.h"
#include "storage/column_store.h"
#include "test_util.h"
#include "txn/txn_manager.h"
#include "util/random.h"

namespace pdtstore {
namespace {

using testutil::InventoryRows;
using testutil::InventorySchema;

TEST(ChunkTest, BuildRoundtripsValues) {
  ColumnVector col(TypeId::kInt64);
  col.ints() = {5, 1, 9, 3};
  auto chunk = BuildChunk(col, 100, /*compression=*/true);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk->start_sid, 100u);
  EXPECT_EQ(chunk->row_count, 4u);
  ColumnVector decoded;
  ASSERT_TRUE(DecodeChunk(*chunk, &decoded).ok());
  EXPECT_EQ(decoded.ints(), col.ints());
}

TEST(ChunkTest, EmptyChunkRejected) {
  ColumnVector col(TypeId::kInt64);
  EXPECT_FALSE(BuildChunk(col, 0, true).ok());
}

TEST(BufferPoolTest, HitMissAccounting) {
  ColumnVector col(TypeId::kInt64);
  for (int i = 0; i < 100; ++i) col.ints().push_back(i);
  auto chunk = BuildChunk(col, 0, false);
  ASSERT_TRUE(chunk.ok());
  BufferPool pool;
  auto first = pool.Fetch(1, *chunk);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(pool.stats().chunks_read, 1u);
  EXPECT_EQ(pool.stats().bytes_read, chunk->DiskBytes());
  EXPECT_EQ(pool.stats().hits, 0u);
  auto second = pool.Fetch(1, *chunk);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(pool.stats().chunks_read, 1u);  // cached
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(first->get(), second->get());  // same decoded object
  // EvictAll forces a re-read.
  pool.EvictAll();
  auto third = pool.Fetch(1, *chunk);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(pool.stats().chunks_read, 2u);
}

TEST(BufferPoolTest, LruEvictionUnderCapacity) {
  ColumnVector col(TypeId::kInt64);
  for (int i = 0; i < 1000; ++i) col.ints().push_back(i);
  auto chunk = BuildChunk(col, 0, false);
  ASSERT_TRUE(chunk.ok());
  // Capacity for ~2 decoded chunks (8KB each).
  BufferPool pool(20000);
  for (uint64_t key = 0; key < 10; ++key) {
    ASSERT_TRUE(pool.Fetch(key, *chunk).ok());
  }
  EXPECT_LE(pool.cached_bytes(), 20000u);
  EXPECT_LT(pool.cached_chunks(), 10u);
  // Most-recent key is still cached.
  uint64_t reads_before = pool.stats().chunks_read;
  ASSERT_TRUE(pool.Fetch(9, *chunk).ok());
  EXPECT_EQ(pool.stats().chunks_read, reads_before);
}

TEST(BufferPoolTest, DecodeTimeCountsMissesOnly) {
  auto schema_or = Schema::Make(
      {{"k", TypeId::kInt64}, {"v", TypeId::kString}}, {0});
  auto schema = std::make_shared<const Schema>(std::move(*schema_or));
  auto pool = std::make_shared<BufferPool>();
  ColumnStoreOptions opts;
  opts.compression = true;
  ColumnStore store(*schema, opts, pool);
  std::vector<Tuple> rows;
  for (int i = 0; i < 40000; ++i) {
    rows.push_back({int64_t{i}, "v" + std::to_string(i % 7)});
  }
  ASSERT_TRUE(store.BulkLoad(rows).ok());
  ASSERT_GT(store.num_chunks(), 1u);
  auto scan_all = [&] {
    for (ColumnId c = 0; c < 2; ++c) {
      for (size_t ci = 0; ci < store.num_chunks(); ++ci) {
        ASSERT_TRUE(store.FetchChunk(c, ci).ok());
      }
    }
  };
  pool->EvictAll();
  pool->ResetStats();
  EXPECT_EQ(pool->stats().decode_ns, 0u);
  scan_all();  // cold: every chunk misses and decodes
  const IoStats cold = pool->stats();
  EXPECT_EQ(cold.chunks_read, 2 * store.num_chunks());
  EXPECT_GT(cold.decode_ns, 0u);
  scan_all();  // hot: every chunk hits, nothing decodes
  const IoStats hot = pool->stats();
  EXPECT_EQ(hot.hits, 2 * store.num_chunks());
  EXPECT_EQ(hot.decode_ns, cold.decode_ns);
  pool->ResetStats();
  EXPECT_EQ(pool->stats().decode_ns, 0u);
}

TEST(ColumnStoreTest, BulkLoadValidation) {
  auto schema = InventorySchema();
  ColumnStore store(*schema, {}, nullptr);
  // Out-of-order rows rejected.
  EXPECT_FALSE(store
                   .BulkLoad({{"Z", "z", "N", 1}, {"A", "a", "N", 2}})
                   .ok());
  // Duplicate keys rejected (SK is a key).
  ColumnStore store2(*schema, {}, nullptr);
  EXPECT_FALSE(store2
                   .BulkLoad({{"A", "a", "N", 1}, {"A", "a", "N", 2}})
                   .ok());
  // Double load rejected.
  ColumnStore store3(*schema, {}, nullptr);
  ASSERT_TRUE(store3.BulkLoad(InventoryRows()).ok());
  EXPECT_FALSE(store3.BulkLoad(InventoryRows()).ok());
}

TEST(ColumnStoreTest, ChunkingAndRandomAccess) {
  auto schema_or = Schema::Make(
      {{"k", TypeId::kInt64}, {"v", TypeId::kString}}, {0});
  auto schema = std::make_shared<const Schema>(std::move(*schema_or));
  ColumnStoreOptions opts;
  opts.chunk_rows = 10;
  ColumnStore store(*schema, opts, nullptr);
  std::vector<Tuple> rows;
  for (int i = 0; i < 95; ++i) {
    rows.push_back({int64_t{i}, "v" + std::to_string(i)});
  }
  ASSERT_TRUE(store.BulkLoad(rows).ok());
  EXPECT_EQ(store.num_rows(), 95u);
  EXPECT_EQ(store.num_chunks(), 10u);  // 9 full + 1 partial
  auto [b0, e0] = store.ChunkSidRange(0);
  EXPECT_EQ(b0, 0u);
  EXPECT_EQ(e0, 10u);
  auto [b9, e9] = store.ChunkSidRange(9);
  EXPECT_EQ(b9, 90u);
  EXPECT_EQ(e9, 95u);
  EXPECT_EQ(store.ChunkIndexForSid(0), 0u);
  EXPECT_EQ(store.ChunkIndexForSid(9), 0u);
  EXPECT_EQ(store.ChunkIndexForSid(10), 1u);
  EXPECT_EQ(store.ChunkIndexForSid(94), 9u);
  for (Sid sid : {Sid{0}, Sid{17}, Sid{94}}) {
    auto t = store.GetTuple(sid);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ((*t)[0], Value(static_cast<int64_t>(sid)));
    EXPECT_EQ((*t)[1], Value("v" + std::to_string(sid)));
  }
  EXPECT_FALSE(store.GetValue(0, 95).ok());
  EXPECT_GT(store.DiskBytes(), 0u);
  EXPECT_EQ(store.DiskBytes(),
            store.DiskBytesForColumn(0) + store.DiskBytesForColumn(1));
}

TEST(ColumnStoreTest, CompressionShrinksSortedKeys) {
  auto schema_or = Schema::Make(
      {{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}, {0});
  auto schema = std::make_shared<const Schema>(std::move(*schema_or));
  std::vector<Tuple> rows;
  Random rng(3);
  for (int i = 0; i < 20000; ++i) {
    rows.push_back({int64_t{i}, static_cast<int64_t>(rng.Next())});
  }
  ColumnStoreOptions on, off;
  on.compression = true;
  off.compression = false;
  ColumnStore compressed(*schema, on, nullptr);
  ColumnStore plain(*schema, off, nullptr);
  ASSERT_TRUE(compressed.BulkLoad(rows).ok());
  ASSERT_TRUE(plain.BulkLoad(rows).ok());
  // The sorted key column compresses dramatically (delta-varint)...
  EXPECT_LT(compressed.DiskBytesForColumn(0) * 4,
            plain.DiskBytesForColumn(0));
  // ...while random payloads do not.
  EXPECT_EQ(compressed.DiskBytesForColumn(1), plain.DiskBytesForColumn(1));
}

TEST(ColumnStoreTest, GetSortKeyMatchesTuple) {
  auto schema = InventorySchema();
  ColumnStore store(*schema, {}, nullptr);
  ASSERT_TRUE(store.BulkLoad(InventoryRows()).ok());
  auto key = store.GetSortKey(3);
  ASSERT_TRUE(key.ok());
  EXPECT_EQ((*key)[0], Value("Paris"));
  EXPECT_EQ((*key)[1], Value("rug"));
}

// A key-bounded scan fetches only the chunks of its sparse-index
// interval; every other chunk of the projection counts as skipped, on
// the table and the transaction scan paths alike.
TEST(BufferPoolTest, BoundedScanCountsLookupSkips) {
  auto schema = std::make_shared<const Schema>(
      std::move(*Schema::Make({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}},
                              {0})));
  TableOptions opts;
  opts.store.chunk_rows = 10;
  Table table("t", schema, opts);
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({i * 10, i});
  ASSERT_TRUE(table.Load(rows).ok());
  const ColumnStore& store = table.store();
  ASSERT_EQ(store.num_chunks(), 10u);
  // Keys 250..260 lie in chunk 2 (keys 200..290): one range chunk.
  const KeyBounds bounds{{Value(250)}, {Value(260)}};
  const std::vector<ColumnId> projection = {0, 1};
  uint64_t skipped_bytes = 0;
  for (size_t ci = 0; ci < store.num_chunks(); ++ci) {
    if (ci == 2) continue;
    for (ColumnId col : projection) {
      skipped_bytes += store.chunk_meta(col, ci).DiskBytes();
    }
  }
  TxnManager mgr(&table, nullptr);
  auto txn = mgr.Begin();
  BufferPool* pool = table.buffer_pool();
  for (int path = 0; path < 3; ++path) {
    pool->EvictAll();
    pool->ResetStats();
    ScanOptions so;
    so.num_threads = path == 1 ? 2 : 1;
    auto scan = path == 2 ? txn->Scan(projection, &bounds, so)
                          : table.Scan(projection, &bounds, so);
    auto got = CollectRows(scan.get());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->size(), 10u) << "path " << path;
    const IoStats s = pool->stats();
    EXPECT_EQ(s.chunks_skipped, (10u - 1u) * projection.size())
        << "path " << path;
    EXPECT_EQ(s.bytes_skipped, skipped_bytes) << "path " << path;
    EXPECT_EQ(s.chunks_read, 1u * projection.size()) << "path " << path;
  }
  // An unbounded scan skips nothing.
  pool->ResetStats();
  auto all = CollectRows(table.Scan(projection).get());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 100u);
  EXPECT_EQ(pool->stats().chunks_skipped, 0u);
}

}  // namespace
}  // namespace pdtstore
