#include "txn/wal.h"

#include <cstring>

#include "storage/encoding.h"
#include "util/crc32c.h"

namespace pdtstore {

namespace {

// --- value codec (logical payload encoding) ---

void PutValue(std::string* out, const Value& v) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case TypeId::kInt64:
      PutVarint64(out, ZigZagEncode(v.AsInt64()));
      break;
    case TypeId::kDouble: {
      uint64_t bits;
      double d = v.AsDouble();
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, 8);
      PutVarint64(out, bits);
      break;
    }
    case TypeId::kString:
      PutVarint64(out, v.AsString().size());
      out->append(v.AsString());
      break;
  }
}

Status GetValue(const std::string& in, size_t* pos, Value* v) {
  if (*pos >= in.size()) return Status::Corruption("truncated WAL value");
  // Validate the tag before casting: `in[*pos]` is char, and on signed-
  // char platforms a corrupt 0x80+ byte sign-extends to a negative that
  // a blind static_cast would turn into a bogus out-of-range TypeId.
  const uint8_t tag = static_cast<uint8_t>(in[*pos]);
  if (tag > static_cast<uint8_t>(TypeId::kString)) {
    return Status::Corruption("bad WAL value type");
  }
  TypeId type = static_cast<TypeId>(tag);
  ++*pos;
  uint64_t raw;
  PDT_RETURN_NOT_OK(GetVarint64(in, pos, &raw));
  switch (type) {
    case TypeId::kInt64:
      *v = Value(ZigZagDecode(raw));
      return Status::OK();
    case TypeId::kDouble: {
      double d;
      std::memcpy(&d, &raw, 8);
      *v = Value(d);
      return Status::OK();
    }
    case TypeId::kString: {
      // Overflow-safe bound: `*pos + raw` could wrap for a corrupt
      // near-2^64 length.
      if (raw > in.size() - *pos) {
        return Status::Corruption("truncated WAL string");
      }
      *v = Value(in.substr(*pos, raw));
      *pos += raw;
      return Status::OK();
    }
  }
  return Status::Corruption("bad WAL value type");
}

void PutValues(std::string* out, const std::vector<Value>& vs) {
  PutVarint64(out, vs.size());
  for (const Value& v : vs) PutValue(out, v);
}

Status GetValues(const std::string& in, size_t* pos, std::vector<Value>* vs) {
  uint64_t n;
  PDT_RETURN_NOT_OK(GetVarint64(in, pos, &n));
  if (n > in.size() - *pos) {
    return Status::Corruption("bad WAL value count");
  }
  vs->clear();
  vs->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Value v;
    PDT_RETURN_NOT_OK(GetValue(in, pos, &v));
    vs->push_back(std::move(v));
  }
  return Status::OK();
}

// An op's `[type][table]` prefix; its values follow.
void PutOpHeader(std::string* out, WalRecordType type,
                 const std::string& table) {
  out->push_back(static_cast<char>(type));
  PutVarint64(out, table.size());
  out->append(table);
}

// Decodes one `[type][table][values]` op starting at `*pos`.
Status DecodeOp(const std::string& payload, size_t* pos, WalRecord* r) {
  // The enum's underlying type is uint8_t, so any byte is a value of it.
  r->type = static_cast<WalRecordType>(payload[*pos]);
  ++*pos;
  uint64_t tlen;
  PDT_RETURN_NOT_OK(GetVarint64(payload, pos, &tlen));
  if (tlen > payload.size() - *pos) {
    return Status::Corruption("truncated WAL table name");
  }
  r->table = payload.substr(*pos, tlen);
  *pos += tlen;
  switch (r->type) {
    case WalRecordType::kInsert:
      return GetValues(payload, pos, &r->tuple);
    case WalRecordType::kDelete:
      return GetValues(payload, pos, &r->key);
    case WalRecordType::kModify: {
      PDT_RETURN_NOT_OK(GetValues(payload, pos, &r->key));
      uint64_t col;
      PDT_RETURN_NOT_OK(GetVarint64(payload, pos, &col));
      r->column = static_cast<ColumnId>(col);
      return GetValue(payload, pos, &r->value);
    }
  }
  return Status::Corruption("bad WAL record type");
}

// Decodes a frame's payload: one transaction's ops, until it ends.
Status DecodePayload(const std::string& payload, std::vector<WalRecord>* ops) {
  size_t pos = 0;
  while (pos < payload.size()) {
    ops->emplace_back();
    PDT_RETURN_NOT_OK(DecodeOp(payload, &pos, &ops->back()));
  }
  return Status::OK();
}

// --- framing ---

constexpr size_t kFrameHeader = 16;  // u32 len + u32 crc + u64 lsn
// Fixed-width frame fields use the explicit little-endian codecs from
// storage/encoding.h, so a segment reads identically on any host.

// True if an intact frame — CRC valid and LSN proving its position —
// starts at any offset in [from, buffer.size()). Used to classify a bad
// frame: a torn write only ever damages the very end of the log, so
// finding real frames after the damage proves mid-log corruption. The
// LSN filter makes the scan cheap (8 bytes must equal their own offset
// before a CRC is ever computed).
bool ValidFrameAfter(const std::string& buffer, size_t from) {
  for (size_t q = from; q + kFrameHeader <= buffer.size(); ++q) {
    if (DecodeFixed64(buffer.data() + q + 8) != q) continue;
    const uint32_t len = DecodeFixed32(buffer.data() + q);
    if (len > Wal::kMaxPayloadBytes ||
        len > buffer.size() - q - kFrameHeader) {
      continue;
    }
    const uint32_t crc = DecodeFixed32(buffer.data() + q + 4);
    if (Crc32c(buffer.data() + q + 8, 8 + len) == crc) return true;
  }
  return false;
}

/// Walks the framed stream, calling `fn` with each intact frame's ops.
/// With `tolerate_tail`, a torn final frame stops the scan cleanly
/// (`*tail_truncated` set, `*valid_bytes` = intact prefix); corruption
/// anywhere before the tail is always a hard error. Without it, any
/// anomaly is Corruption.
Status ScanFrames(
    const std::string& buffer, bool tolerate_tail, uint64_t* valid_bytes,
    bool* tail_truncated,
    const std::function<Status(const std::vector<WalRecord>&)>& fn) {
  size_t pos = 0;
  if (tail_truncated != nullptr) *tail_truncated = false;
  while (pos < buffer.size()) {
    const size_t remaining = buffer.size() - pos;
    bool torn = false;
    std::string torn_reason;
    if (remaining < kFrameHeader) {
      torn = true;
      torn_reason = "truncated WAL frame header";
    } else {
      const uint32_t len = DecodeFixed32(buffer.data() + pos);
      if (len > Wal::kMaxPayloadBytes || len > remaining - kFrameHeader) {
        // A torn header often reads as a garbage length; only a frame
        // overshooting the end of the log can be a tail.
        torn = true;
        torn_reason = "truncated WAL frame body";
      } else {
        const uint32_t crc = DecodeFixed32(buffer.data() + pos + 4);
        const uint64_t lsn = DecodeFixed64(buffer.data() + pos + 8);
        const uint32_t actual =
            Crc32c(buffer.data() + pos + 8, 8 + len);  // lsn || payload
        if (actual != crc) {
          if (pos + kFrameHeader + len == buffer.size()) {
            // Bad checksum on the final frame: a torn write.
            torn = true;
            torn_reason = "bad checksum on final WAL frame";
          } else {
            return Status::Corruption(
                "WAL frame checksum mismatch mid-log at offset " +
                std::to_string(pos));
          }
        } else if (lsn != pos) {
          // An intact frame claiming a different offset is not a torn
          // write — it is misplaced (stale or relocated) data.
          return Status::Corruption("WAL frame LSN mismatch at offset " +
                                    std::to_string(pos));
        } else {
          std::vector<WalRecord> ops;
          PDT_RETURN_NOT_OK(DecodePayload(
              buffer.substr(pos + kFrameHeader, len), &ops));
          PDT_RETURN_NOT_OK(fn(ops));
          pos += kFrameHeader + len;
          if (valid_bytes != nullptr) *valid_bytes = pos;
          continue;
        }
      }
    }
    if (torn) {
      if (!tolerate_tail) return Status::Corruption(torn_reason);
      // A tear leaves nothing real behind it. An intact frame after the
      // damage (proven in place by its checksummed LSN) means this is
      // mid-log corruption wearing a torn disguise — e.g. a length
      // field flipped to overshoot the log — and truncating here would
      // silently drop the committed frames that follow.
      if (ValidFrameAfter(buffer, pos + 1)) {
        return Status::Corruption(torn_reason +
                                  " with intact frames after it");
      }
      if (tail_truncated != nullptr) *tail_truncated = true;
      return Status::OK();
    }
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------
// WalWriter.
// ---------------------------------------------------------------------

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(FileSystem* fs,
                                                     const std::string& path,
                                                     bool truncate) {
  if (fs == nullptr) fs = FileSystem::Default();
  PDT_ASSIGN_OR_RETURN(auto file, fs->NewWritableFile(path, truncate));
  return std::unique_ptr<WalWriter>(new WalWriter(std::move(file), path));
}

Status WalWriter::Append(std::string_view bytes) {
  return file_->Append(bytes);
}

Status WalWriter::Sync() {
  sync_count_.fetch_add(1, std::memory_order_relaxed);
  return file_->Sync();
}

// ---------------------------------------------------------------------
// Wal.
// ---------------------------------------------------------------------

void Wal::EncodeInsert(std::string* payload, const std::string& table,
                       const Tuple& tuple) {
  PutOpHeader(payload, WalRecordType::kInsert, table);
  PutValues(payload, tuple);
}

void Wal::EncodeDelete(std::string* payload, const std::string& table,
                       const std::vector<Value>& key) {
  PutOpHeader(payload, WalRecordType::kDelete, table);
  PutValues(payload, key);
}

void Wal::EncodeModify(std::string* payload, const std::string& table,
                       const std::vector<Value>& key, ColumnId col,
                       const Value& v) {
  PutOpHeader(payload, WalRecordType::kModify, table);
  PutValues(payload, key);
  PutVarint64(payload, col);
  PutValue(payload, v);
}

uint64_t Wal::Append(std::string_view payload) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string lsn;  // 8 bytes: no heap allocation
  PutFixed64(&lsn, buffer_.size());
  PutFixed32(&buffer_, static_cast<uint32_t>(payload.size()));
  // CRC spans (lsn || payload) so a frame also vouches for its position.
  PutFixed32(&buffer_, Crc32cExtend(Crc32c(lsn.data(), lsn.size()),
                                    payload.data(), payload.size()));
  buffer_.append(lsn);
  buffer_.append(payload);
  ++record_count_;
  return buffer_.size();
}

Status Wal::Replay(
    const std::function<Status(const std::vector<WalRecord>&)>& fn) const {
  // Snapshot the buffer so the (possibly reentrant) callback never runs
  // under the buffer lock.
  std::string snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = buffer_;
  }
  return ScanFrames(snapshot, /*tolerate_tail=*/false, nullptr, nullptr, fn);
}

void Wal::Truncate() {
  std::unique_lock<std::mutex> flush_lock(flush_mu_);
  // Drain: a committer may still be waiting (or flushing) for an offset
  // in the log we are about to erase. Truncating under it would strand
  // its wait on an offset durable_bytes_ can never reach again (a
  // busy-spin) and would let the caller swap the writer out from under
  // the leader's flush. Waiters always progress on their own (one of
  // them is or becomes the leader), so this terminates.
  flush_cv_.wait(flush_lock,
                 [this] { return sync_waiters_ == 0 && !flushing_; });
  std::lock_guard<std::mutex> lock(mu_);
  buffer_.clear();
  record_count_ = 0;
  flushed_bytes_ = 0;
  durable_bytes_ = 0;
  health_ = Status::OK();
}

std::string Wal::TakeUnflushed(uint64_t* end_offset) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string chunk = buffer_.substr(flushed_bytes_);
  flushed_bytes_ = buffer_.size();
  if (end_offset != nullptr) *end_offset = buffer_.size();
  return chunk;
}

void Wal::MarkAllFlushed() {
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  flushed_bytes_ = buffer_.size();
  durable_bytes_ = buffer_.size();
  health_ = Status::OK();
}

uint64_t Wal::SizeBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffer_.size();
}

size_t Wal::RecordCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return record_count_;
}

Status Wal::health() const {
  std::lock_guard<std::mutex> lock(flush_mu_);
  return health_;
}

void Wal::SetWriter(WalWriter* writer) {
  std::unique_lock<std::mutex> lock(flush_mu_);
  // Never swap the sink while a leader is appending through it.
  flush_cv_.wait(lock, [this] { return !flushing_; });
  writer_ = writer;
}

Status Wal::SyncTo(uint64_t upto) {
  std::unique_lock<std::mutex> lock(flush_mu_);
  ++sync_waiters_;
  Status result = Status::OK();
  for (;;) {
    if (!health_.ok()) {
      result = health_;
      break;
    }
    if (durable_bytes_ >= upto) break;
    if (upto > SizeBytes()) {
      // Offsets only ever grow — unless Truncate() ran since `upto` was
      // handed out. Truncation is only legal after a durable checkpoint
      // absorbed every buffered frame, so the records this caller is
      // waiting on are durable via that checkpoint; returning OK here
      // (instead of spinning for an offset the log can never reach
      // again) is the truthful answer.
      break;
    }
    if (writer_ == nullptr) {
      result = Status::InvalidArgument("no WAL writer attached");
      break;
    }
    if (flushing_) {
      // A leader is already at the disk; ride on its fsync.
      flush_cv_.wait(lock);
      continue;
    }
    // Become the leader: flush everything buffered so far, on behalf of
    // every committer currently waiting. The writer pointer stays valid
    // while flushing_ is set (SetWriter waits on it), and Truncate
    // cannot run under us (it drains sync_waiters_ first).
    flushing_ = true;
    WalWriter* writer = writer_;
    lock.unlock();
    uint64_t end = 0;
    std::string chunk = TakeUnflushed(&end);
    Status st = Status::OK();
    if (!chunk.empty()) {
      st = writer->Append(chunk);
      if (st.ok()) st = writer->Sync();
    }
    lock.lock();
    flushing_ = false;
    if (st.ok()) {
      if (end > durable_bytes_) durable_bytes_ = end;
      if (durable_bytes_ < upto && chunk.empty()) {
        // Nothing left to flush, no truncation (caught above), and the
        // target is still ahead: the flush watermark was moved without
        // durability (e.g. a bare TakeUnflushed). Fail this wait loudly
        // instead of spinning at 100% CPU; the log itself is healthy.
        result = Status::Internal(
            "SyncTo target is beyond the flushable log");
        flush_cv_.notify_all();
        break;
      }
    } else {
      health_ = st;
    }
    flush_cv_.notify_all();
  }
  --sync_waiters_;
  if (sync_waiters_ == 0) flush_cv_.notify_all();  // wake a draining Truncate
  return result;
}

StatusOr<WalRecoveryStats> Wal::RecoverFrom(FileSystem* fs,
                                            const std::string& path) {
  if (fs == nullptr) fs = FileSystem::Default();
  WalRecoveryStats stats;
  PDT_ASSIGN_OR_RETURN(bool exists, fs->FileExists(path));
  if (!exists) {
    Truncate();
    return stats;
  }
  std::string bytes;
  PDT_RETURN_NOT_OK(fs->ReadFileToString(path, &bytes));
  size_t count = 0;
  bool torn = false;
  uint64_t valid = 0;
  PDT_RETURN_NOT_OK(ScanFrames(bytes, /*tolerate_tail=*/true, &valid, &torn,
                               [&count](const std::vector<WalRecord>&) {
                                 ++count;
                                 return Status::OK();
                               }));
  if (torn) {
    // Cut the torn tail on disk too, so the next append continues the
    // frame stream at the offset the LSNs claim.
    PDT_RETURN_NOT_OK(fs->TruncateFile(path, valid));
    bytes.resize(valid);
  }
  {
    std::lock_guard<std::mutex> flush_lock(flush_mu_);
    std::lock_guard<std::mutex> lock(mu_);
    buffer_ = std::move(bytes);
    record_count_ = count;
    flushed_bytes_ = buffer_.size();
    durable_bytes_ = buffer_.size();
    health_ = Status::OK();
  }
  stats.valid_bytes = valid;
  stats.records = count;
  stats.tail_truncated = torn;
  return stats;
}

}  // namespace pdtstore
