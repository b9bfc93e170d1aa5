// Write-ahead log of *logical* update records. The paper (footnote 2)
// notes column stores write a WAL at commit like row stores do — the
// point being that WAL I/O is sequential and does not limit throughput,
// unlike in-place columnar updates. Records are logical (key-addressed)
// so replay works regardless of how positions shifted.
//
// On-disk format (v2): every record is one self-checking frame
//
//   [u32 payload_len][u32 crc32c(lsn || payload)][u64 lsn][payload]
//
// with the LSN equal to the frame's byte offset in the log, so a frame
// also proves it sits where it was written. Recovery distinguishes two
// corruption shapes: a bad or incomplete frame that reaches the end of
// the log is a *torn tail* — the expected residue of a crash mid-append
// — and is truncated away, recovering the committed prefix; a bad frame with
// valid data after it is mid-log corruption and is reported as
// Corruption, never silently dropped. The self-proving LSN is what makes
// the distinction decidable even when a corrupt length field hides the
// next frame boundary: recovery rescans for any intact frame sitting at
// its claimed offset, and only calls the damage a tail if none exists.
#ifndef PDTSTORE_TXN_WAL_H_
#define PDTSTORE_TXN_WAL_H_

#include <condition_variable>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "columnstore/schema.h"
#include "util/file.h"
#include "util/status.h"

namespace pdtstore {

/// Kind of a WAL record.
enum class WalRecordType : uint8_t {
  kBegin = 1,
  kInsert = 2,
  kDelete = 3,
  kModify = 4,
  kCommit = 5,
  kAbort = 6,
  kCheckpoint = 7,  ///< updates up to this LSN are in the stable image
};

/// One logical WAL record.
struct WalRecord {
  WalRecordType type = WalRecordType::kBegin;
  uint64_t txn_id = 0;
  std::string table;
  Tuple tuple;              ///< kInsert: the full tuple
  std::vector<Value> key;   ///< kDelete / kModify: the sort key
  ColumnId column = 0;      ///< kModify
  Value value;              ///< kModify
};

/// Append-only sink for framed WAL bytes: a WritableFile opened in
/// append mode plus an explicit Sync() — the durability point commits
/// wait on. Counts fsyncs so the write-path bench can report
/// syncs-per-transaction honestly.
class WalWriter {
 public:
  static StatusOr<std::unique_ptr<WalWriter>> Open(FileSystem* fs,
                                                   const std::string& path,
                                                   bool truncate = false);

  Status Append(std::string_view bytes);
  Status Sync();

  // Atomic: monitor threads (shell .stats, the HTAP driver's report)
  // poll this while committers sync.
  uint64_t sync_count() const {
    return sync_count_.load(std::memory_order_relaxed);
  }
  const std::string& path() const { return path_; }

 private:
  WalWriter(std::unique_ptr<WritableFile> file, std::string path)
      : file_(std::move(file)), path_(std::move(path)) {}

  std::unique_ptr<WritableFile> file_;
  std::string path_;
  std::atomic<uint64_t> sync_count_{0};
};

/// What loading a WAL segment from disk found.
struct WalRecoveryStats {
  uint64_t valid_bytes = 0;   ///< bytes of intact committed frames
  size_t records = 0;         ///< records in the valid prefix
  bool tail_truncated = false;  ///< a torn tail was cut off
};

/// The logical log: an in-memory buffer of checksummed frames, appended
/// at commit and flushed/synced through a WalWriter. Thread-safe: several
/// per-table transaction managers may share one log, so appends and the
/// flush bookkeeping are internally synchronized, and the group-commit
/// protocol (SyncTo) lives here — durability state must be shared by
/// everyone writing the same file, or one manager could acknowledge a
/// commit on the strength of another manager's not-yet-synced flush.
class Wal {
 public:
  Wal() = default;

  /// Appends a record as one frame; returns its LSN (byte offset). The
  /// record is encoded immediately (the sequential WAL write); file
  /// flushing is explicit and separate.
  uint64_t Append(const WalRecord& record);

  /// Encodes a record's logical payload (everything but the frame
  /// header) without touching any log. Byte-identical to what Append
  /// would write, so a committer can do the value encoding — the bulk
  /// of the append cost — outside every lock and hand the finished
  /// payloads to AppendEncoded under the commit critical section.
  static std::string EncodeRecordPayload(const WalRecord& record);

  /// Appends pre-encoded payloads (from EncodeRecordPayload) as
  /// consecutive frames under one buffer-lock acquisition; LSNs and
  /// frame CRCs are assigned here, where the offsets become known.
  /// Returns the log size the frames extend to (the batch's durability
  /// target for SyncTo).
  uint64_t AppendEncoded(const std::vector<std::string>& payloads);

  /// Convenience appenders.
  uint64_t LogBegin(uint64_t txn_id);
  uint64_t LogInsert(uint64_t txn_id, const std::string& table,
                     const Tuple& tuple);
  uint64_t LogDelete(uint64_t txn_id, const std::string& table,
                     const std::vector<Value>& key);
  uint64_t LogModify(uint64_t txn_id, const std::string& table,
                     const std::vector<Value>& key, ColumnId col,
                     const Value& v);
  uint64_t LogCommit(uint64_t txn_id);
  uint64_t LogAbort(uint64_t txn_id);
  uint64_t LogCheckpoint(const std::string& table);

  /// Invokes `fn` for every record in LSN order, verifying every frame
  /// checksum. Strict: any corruption (including a torn tail) aborts
  /// with Corruption.
  Status Replay(const std::function<Status(const WalRecord&)>& fn) const;

  /// Drops all records up to the current end. Only legal after every
  /// buffered record was absorbed into a durable checkpoint. Blocks
  /// until in-flight SyncTo waits have drained, so no committer is left
  /// waiting on an offset the truncation erased (and the writer can be
  /// swapped safely afterwards).
  void Truncate();

  /// Crash-recovery load: reads the segment at `path`, accepts the
  /// longest intact frame prefix, truncates a torn tail both in memory
  /// and on disk (so later appends land at the right offset), and
  /// reports mid-log corruption as Corruption. A missing file is an
  /// empty log.
  StatusOr<WalRecoveryStats> RecoverFrom(FileSystem* fs,
                                         const std::string& path);

  // --- durability (group commit) ---

  /// Attaches (or swaps) the durable sink SyncTo flushes through. The
  /// writer lives here, not in the per-table managers, so a swap cannot
  /// race an in-flight flush: SetWriter blocks until no flush is using
  /// the old writer. Call with the log quiet or freshly truncated.
  void SetWriter(WalWriter* writer);

  /// Blocks until the log is durable through offset `upto`: the first
  /// waiter becomes the flush leader, appends and fsyncs the whole
  /// unflushed suffix once, and every committer waiting at that moment
  /// rides on the same fsync. A flush or fsync failure is sticky (see
  /// health()): once durability cannot be promised, every later SyncTo
  /// fails with the same status. If the log was truncated after `upto`
  /// was handed out (a checkpoint absorbed those frames and committed
  /// durably before dropping them), SyncTo returns OK — the records are
  /// durable via the checkpoint, not this segment's fsync.
  Status SyncTo(uint64_t upto);

  /// The sticky durability status: OK until a flush or fsync failed.
  Status health() const;

  /// Marks everything currently buffered as flushed AND durable (bytes
  /// just loaded from disk), and clears the sticky health status. Only
  /// valid at a quiet point — no commit in flight.
  void MarkAllFlushed();

  /// Returns the framed bytes appended since the last take and marks
  /// them flushed; `*end_offset` receives the log size they extend to.
  /// (Exposed for tests; SyncTo is the production path.)
  std::string TakeUnflushed(uint64_t* end_offset);

  uint64_t SizeBytes() const;
  size_t RecordCount() const;

 private:
  // Frames one payload at the current end of the buffer. Caller holds mu_.
  uint64_t AppendPayloadLocked(const std::string& payload);

  // Buffer state. Held only for short, non-blocking operations.
  mutable std::mutex mu_;
  std::string buffer_;
  size_t record_count_ = 0;
  uint64_t flushed_bytes_ = 0;

  // Durability state, under its own lock so committers can wait for an
  // fsync without stalling appends. Lock order: flush_mu_ before mu_
  // (quiet-point ops hold both); the flush leader drops flush_mu_
  // before taking mu_ to grab the unflushed suffix, so it never holds
  // both, and Append takes only mu_.
  mutable std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  WalWriter* writer_ = nullptr;  ///< stable while flushing_ is set
  uint64_t durable_bytes_ = 0;
  bool flushing_ = false;
  size_t sync_waiters_ = 0;  ///< SyncTo calls in flight (Truncate drains)
  Status health_ = Status::OK();
};

}  // namespace pdtstore

#endif  // PDTSTORE_TXN_WAL_H_
