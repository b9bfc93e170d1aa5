#include "db/checkpoint.h"

#include <cstring>

#include "storage/encoding.h"
#include "util/crc32c.h"

namespace pdtstore {

// ---------------------------------------------------------------------
// The manifest and the table images share one file shape:
//
//   [8-byte magic][u32 payload_len][u32 crc32c(payload)][payload]
//
// so a reader can reject truncation and bit rot with one check before
// parsing a single field.
// ---------------------------------------------------------------------

namespace {

constexpr char kManifestMagic[9] = "PDTMANIF";
constexpr char kImageMagic[9] = "PDTIMG01";

// Fixed-width header fields use the explicit little-endian codecs from
// storage/encoding.h, so checkpoint files mean the same bytes anywhere.
std::string FrameFile(const char magic[9], const std::string& payload) {
  std::string out(magic, 8);
  PutFixed32(&out, static_cast<uint32_t>(payload.size()));
  PutFixed32(&out, Crc32c(payload.data(), payload.size()));
  out.append(payload);
  return out;
}

/// Verifies magic + length + checksum and returns the payload.
StatusOr<std::string> UnframeFile(const char magic[9],
                                  const std::string& bytes,
                                  const std::string& what) {
  if (bytes.size() < 16 || std::memcmp(bytes.data(), magic, 8) != 0) {
    return Status::Corruption("bad " + what + " header");
  }
  const uint32_t len = DecodeFixed32(bytes.data() + 8);
  const uint32_t crc = DecodeFixed32(bytes.data() + 12);
  if (len != bytes.size() - 16) {
    return Status::Corruption("bad " + what + " length");
  }
  if (Crc32c(bytes.data() + 16, len) != crc) {
    return Status::Corruption(what + " checksum mismatch");
  }
  return bytes.substr(16);
}

void PutString(std::string* out, const std::string& s) {
  PutVarint64(out, s.size());
  out->append(s);
}

Status GetString(const std::string& in, size_t* pos, std::string* s) {
  uint64_t len;
  PDT_RETURN_NOT_OK(GetVarint64(in, pos, &len));
  if (len > in.size() - *pos) return Status::Corruption("truncated string");
  *s = in.substr(*pos, len);
  *pos += len;
  return Status::OK();
}

}  // namespace

Status WriteFileAtomic(FileSystem* fs, const std::string& path,
                       const std::string& contents) {
  const std::string tmp = path + ".tmp";
  PDT_ASSIGN_OR_RETURN(auto file, fs->NewWritableFile(tmp, /*truncate=*/true));
  PDT_RETURN_NOT_OK(file->Append(contents));
  PDT_RETURN_NOT_OK(file->Sync());
  PDT_RETURN_NOT_OK(file->Close());
  // The rename is the commit point: readers see the old file or the new
  // one, never a partial write. On POSIX the rename itself is not
  // crash-durable until the parent directory is fsynced — without it, a
  // power cut can keep later writes (say, the old WAL's deletion) while
  // losing this rename, leaving the old manifest pointing at files that
  // no longer exist.
  PDT_RETURN_NOT_OK(fs->RenameFile(tmp, path));
  return fs->SyncDir(DirnameOf(path));
}

Status WriteManifest(FileSystem* fs, const std::string& dir,
                     const Manifest& m) {
  std::string p;
  PutVarint64(&p, m.epoch);
  PutString(&p, m.wal_file);
  PutVarint64(&p, m.tables.size());
  for (const ManifestTable& t : m.tables) {
    PutString(&p, t.name);
    p.push_back(t.backend == DeltaBackend::kVdt ? 1 : 0);
    PutVarint64(&p, t.columns.size());
    for (const ColumnDef& c : t.columns) {
      PutString(&p, c.name);
      p.push_back(static_cast<char>(c.type));
    }
    PutVarint64(&p, t.sort_key.size());
    for (ColumnId c : t.sort_key) PutVarint64(&p, c);
    PutVarint64(&p, t.chunk_rows);
    p.push_back(t.compression ? 1 : 0);
    PutString(&p, t.image_file);
    PutVarint64(&p, t.row_count);
  }
  return WriteFileAtomic(fs, dir + "/" + kManifestFileName,
                         FrameFile(kManifestMagic, p));
}

StatusOr<Manifest> ReadManifest(FileSystem* fs, const std::string& dir) {
  const std::string path = dir + "/" + kManifestFileName;
  PDT_ASSIGN_OR_RETURN(bool exists, fs->FileExists(path));
  if (!exists) return Status::NotFound("no manifest in " + dir);
  std::string bytes;
  PDT_RETURN_NOT_OK(fs->ReadFileToString(path, &bytes));
  PDT_ASSIGN_OR_RETURN(std::string p,
                       UnframeFile(kManifestMagic, bytes, "manifest"));
  Manifest m;
  size_t pos = 0;
  PDT_RETURN_NOT_OK(GetVarint64(p, &pos, &m.epoch));
  PDT_RETURN_NOT_OK(GetString(p, &pos, &m.wal_file));
  uint64_t ntables;
  PDT_RETURN_NOT_OK(GetVarint64(p, &pos, &ntables));
  for (uint64_t i = 0; i < ntables; ++i) {
    ManifestTable t;
    PDT_RETURN_NOT_OK(GetString(p, &pos, &t.name));
    if (pos >= p.size()) return Status::Corruption("truncated manifest");
    t.backend = p[pos] == 1 ? DeltaBackend::kVdt : DeltaBackend::kPdt;
    ++pos;
    uint64_t ncols;
    PDT_RETURN_NOT_OK(GetVarint64(p, &pos, &ncols));
    for (uint64_t c = 0; c < ncols; ++c) {
      ColumnDef def;
      PDT_RETURN_NOT_OK(GetString(p, &pos, &def.name));
      if (pos >= p.size()) return Status::Corruption("truncated manifest");
      uint8_t tb = static_cast<uint8_t>(p[pos]);
      if (tb > static_cast<uint8_t>(TypeId::kString)) {
        return Status::Corruption("bad column type in manifest");
      }
      def.type = static_cast<TypeId>(tb);
      ++pos;
      t.columns.push_back(std::move(def));
    }
    uint64_t nsk;
    PDT_RETURN_NOT_OK(GetVarint64(p, &pos, &nsk));
    for (uint64_t k = 0; k < nsk; ++k) {
      uint64_t col;
      PDT_RETURN_NOT_OK(GetVarint64(p, &pos, &col));
      if (col >= t.columns.size()) {
        return Status::Corruption("bad sort-key column in manifest");
      }
      t.sort_key.push_back(static_cast<ColumnId>(col));
    }
    PDT_RETURN_NOT_OK(GetVarint64(p, &pos, &t.chunk_rows));
    if (pos >= p.size()) return Status::Corruption("truncated manifest");
    t.compression = p[pos] != 0;
    ++pos;
    PDT_RETURN_NOT_OK(GetString(p, &pos, &t.image_file));
    PDT_RETURN_NOT_OK(GetVarint64(p, &pos, &t.row_count));
    m.tables.push_back(std::move(t));
  }
  if (pos != p.size()) return Status::Corruption("trailing manifest bytes");
  return m;
}

Status SaveTableImage(FileSystem* fs, const std::string& path,
                      const Table& table) {
  const ColumnStore& store = table.store();
  const Schema& schema = table.schema();
  std::string p;
  PutVarint64(&p, store.num_rows());
  PutVarint64(&p, schema.num_columns());
  for (ColumnId c = 0; c < schema.num_columns(); ++c) {
    // Materialize the stable column and encode it as one run.
    ColumnVector col(schema.column(c).type);
    for (size_t ci = 0; ci < store.num_chunks(); ++ci) {
      PDT_ASSIGN_OR_RETURN(auto chunk, store.FetchChunk(c, ci));
      col.AppendRange(*chunk, 0, chunk->size());
    }
    Encoding enc = ChooseEncoding(col, table.options().store.compression);
    std::string bytes;
    PDT_RETURN_NOT_OK(EncodeColumn(col, enc, &bytes));
    p.push_back(static_cast<char>(enc));
    PutVarint64(&p, bytes.size());
    p.append(bytes);
  }
  return WriteFileAtomic(fs, path, FrameFile(kImageMagic, p));
}

Status LoadTableImage(FileSystem* fs, const std::string& path, Table* table) {
  std::string bytes;
  PDT_RETURN_NOT_OK(fs->ReadFileToString(path, &bytes));
  PDT_ASSIGN_OR_RETURN(std::string p,
                       UnframeFile(kImageMagic, bytes, "table image"));
  size_t pos = 0;
  uint64_t row_count, ncols;
  PDT_RETURN_NOT_OK(GetVarint64(p, &pos, &row_count));
  PDT_RETURN_NOT_OK(GetVarint64(p, &pos, &ncols));
  const Schema& schema = table->schema();
  if (ncols != schema.num_columns()) {
    return Status::Corruption("table image column count mismatch");
  }
  std::vector<ColumnVector> cols;
  cols.reserve(ncols);
  for (ColumnId c = 0; c < ncols; ++c) {
    if (pos >= p.size()) return Status::Corruption("truncated table image");
    uint8_t eb = static_cast<uint8_t>(p[pos]);
    if (eb > static_cast<uint8_t>(Encoding::kForBitPack)) {
      return Status::Corruption("bad encoding in table image");
    }
    Encoding enc = static_cast<Encoding>(eb);
    ++pos;
    uint64_t len;
    PDT_RETURN_NOT_OK(GetVarint64(p, &pos, &len));
    if (len > p.size() - pos) {
      return Status::Corruption("truncated table image");
    }
    ColumnVector col(schema.column(c).type);
    PDT_RETURN_NOT_OK(DecodeColumn(p.substr(pos, len), schema.column(c).type,
                                   enc, row_count, &col));
    pos += len;
    cols.push_back(std::move(col));
  }
  if (pos != p.size()) return Status::Corruption("trailing image bytes");
  return table->LoadColumns(std::move(cols));
}

}  // namespace pdtstore
