#include "storage/buffer_pool.h"

#include <chrono>

namespace pdtstore {

StatusOr<std::shared_ptr<const ColumnVector>> BufferPool::Fetch(
    uint64_t key, const Chunk& chunk, bool keep_encoded) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      lru_.erase(it->second.lru_it);
      lru_.push_front(key);
      it->second.lru_it = lru_.begin();
      return it->second.data;
    }
  }
  // Miss: simulated disk read of the encoded payload, then decode. The
  // decode runs unlocked so concurrent scan workers decode distinct
  // chunks in parallel; a racing decode of the same chunk is resolved
  // below (first insert wins, the loser's copy is dropped).
  auto decoded = std::make_shared<ColumnVector>();
  const auto t0 = std::chrono::steady_clock::now();
  PDT_RETURN_NOT_OK(DecodeChunk(chunk, decoded.get(), keep_encoded));
  const std::chrono::nanoseconds decode_time =
      std::chrono::steady_clock::now() - t0;
  decode_ns_.fetch_add(static_cast<uint64_t>(decode_time.count()),
                       std::memory_order_relaxed);
  size_t bytes = decoded->ByteSize();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Lost the decode race: serve the winner's entry as a hit,
    // including the LRU touch.
    hits_.fetch_add(1, std::memory_order_relaxed);
    lru_.erase(it->second.lru_it);
    lru_.push_front(key);
    it->second.lru_it = lru_.begin();
    return it->second.data;
  }
  bytes_read_.fetch_add(chunk.DiskBytes(), std::memory_order_relaxed);
  chunks_read_.fetch_add(1, std::memory_order_relaxed);
  lru_.push_front(key);
  entries_[key] = Entry{decoded, bytes, lru_.begin()};
  cached_bytes_ += bytes;
  MaybeEvict();
  return std::shared_ptr<const ColumnVector>(decoded);
}

void BufferPool::EvictAll() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  cached_bytes_ = 0;
}

void BufferPool::MaybeEvict() {
  if (capacity_bytes_ == 0) return;
  while (cached_bytes_ > capacity_bytes_ && lru_.size() > 1) {
    uint64_t victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    if (it != entries_.end()) {
      cached_bytes_ -= it->second.bytes;
      entries_.erase(it);
    }
  }
}

}  // namespace pdtstore
