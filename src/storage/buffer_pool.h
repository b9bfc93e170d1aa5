// Buffer pool over decoded chunks, with I/O accounting. A miss models a
// disk read of the encoded payload: it is counted in IoStats and charged
// at a configurable bandwidth so benches can report simulated "cold" I/O
// time, reproducing the cold/hot distinction of the paper's Fig. 19.
#ifndef PDTSTORE_STORAGE_BUFFER_POOL_H_
#define PDTSTORE_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "columnstore/column_vector.h"
#include "storage/chunk.h"

namespace pdtstore {

/// Snapshot of simulated disk traffic since the last ResetStats.
struct IoStats {
  uint64_t bytes_read = 0;      ///< encoded bytes pulled from "disk"
  uint64_t chunks_read = 0;     ///< number of chunk reads (seeks)
  uint64_t hits = 0;            ///< pool hits (no I/O)
  uint64_t chunks_skipped = 0;  ///< chunks outside a bounded scan's range
  uint64_t bytes_skipped = 0;   ///< encoded bytes of skipped chunks
  uint64_t decode_ns = 0;       ///< time spent decoding missed chunks

  void Reset() { *this = IoStats{}; }
};

/// LRU cache of decoded chunks keyed by an opaque 64-bit id. Fetch and
/// eviction are internally synchronized so the morsel-driven parallel
/// scan's workers can pull chunks concurrently (one lock acquisition per
/// chunk, i.e. per tens of thousands of rows — not a hot path). The
/// returned shared_ptrs keep decoded chunks alive across evictions.
///
/// I/O counters are relaxed atomics, so stats() may be sampled mid-scan
/// (benches poll it while workers fetch): each counter is individually
/// exact, and the snapshot is a consistent-enough view for accounting —
/// there is no cross-counter invariant a reader could observe torn.
class BufferPool {
 public:
  /// `capacity_bytes` bounds the decoded footprint; 0 = unbounded.
  explicit BufferPool(size_t capacity_bytes = 0)
      : capacity_bytes_(capacity_bytes) {}

  /// Returns the decoded values of `chunk`, from cache or by "reading"
  /// (miss: counts chunk.DiskBytes() into the I/O stats and decodes,
  /// adding the decode's wall time to IoStats::decode_ns).
  /// With `keep_encoded`, a miss decodes to the compressed-execution
  /// representation (dictionary codes / RLE sidecar) instead of plain
  /// values; the flag must be stable per pool key (it is: it comes from
  /// per-store options baked into the key space).
  StatusOr<std::shared_ptr<const ColumnVector>> Fetch(
      uint64_t key, const Chunk& chunk, bool keep_encoded = false);

  /// Drops all cached chunks: the next scan is fully "cold".
  void EvictAll();

  /// Records `chunks` chunks (`bytes` encoded bytes) that a key-bounded
  /// scan's sparse-index lookup excluded and that are never fetched.
  void NoteSkipped(uint64_t chunks, uint64_t bytes) {
    chunks_skipped_.fetch_add(chunks, std::memory_order_relaxed);
    bytes_skipped_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// Snapshot of the I/O counters (safe to call mid-scan).
  IoStats stats() const {
    IoStats s;
    s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    s.chunks_read = chunks_read_.load(std::memory_order_relaxed);
    s.hits = hits_.load(std::memory_order_relaxed);
    s.chunks_skipped = chunks_skipped_.load(std::memory_order_relaxed);
    s.bytes_skipped = bytes_skipped_.load(std::memory_order_relaxed);
    s.decode_ns = decode_ns_.load(std::memory_order_relaxed);
    return s;
  }
  void ResetStats() {
    bytes_read_.store(0, std::memory_order_relaxed);
    chunks_read_.store(0, std::memory_order_relaxed);
    hits_.store(0, std::memory_order_relaxed);
    chunks_skipped_.store(0, std::memory_order_relaxed);
    bytes_skipped_.store(0, std::memory_order_relaxed);
    decode_ns_.store(0, std::memory_order_relaxed);
  }

  size_t cached_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cached_bytes_;
  }
  size_t cached_chunks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  struct Entry {
    std::shared_ptr<const ColumnVector> data;
    size_t bytes;
    std::list<uint64_t>::iterator lru_it;
  };

  void MaybeEvict();  // callers hold mu_

  mutable std::mutex mu_;
  size_t capacity_bytes_;
  size_t cached_bytes_ = 0;
  std::unordered_map<uint64_t, Entry> entries_;
  std::list<uint64_t> lru_;  // front = most recent
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> chunks_read_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> chunks_skipped_{0};
  std::atomic<uint64_t> bytes_skipped_{0};
  std::atomic<uint64_t> decode_ns_{0};
};

}  // namespace pdtstore

#endif  // PDTSTORE_STORAGE_BUFFER_POOL_H_
