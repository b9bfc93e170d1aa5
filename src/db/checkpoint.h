// Durable checkpoint artifacts (Sec. 2, "Checkpointing"). The
// mechanism that rebuilds a stable image from the merged state is
// Table::Checkpoint(); this header defines the files that make such an
// image durable:
//
//   MANIFEST     — the database's root pointer: one checksummed file
//                  naming the current epoch, the live WAL segment and
//                  every table's schema + stable image file. Written
//                  temp-file-then-rename, so a crash leaves either the
//                  old or the new manifest, never a torn one. Whatever
//                  the MANIFEST points at IS the database.
//   table images — one checksummed file per table holding the encoded
//                  stable columns, also written temp-then-rename.
//
// The checkpoint protocol (Database::Save) orders writes so the WAL is
// only truncated after the manifest rename commits the new images.
#ifndef PDTSTORE_DB_CHECKPOINT_H_
#define PDTSTORE_DB_CHECKPOINT_H_

#include <string>
#include <vector>

#include "db/table.h"
#include "util/file.h"

namespace pdtstore {

/// One table's entry in the manifest: enough to recreate the Table
/// object and find its stable image.
struct ManifestTable {
  std::string name;
  DeltaBackend backend = DeltaBackend::kPdt;
  std::vector<ColumnDef> columns;
  std::vector<ColumnId> sort_key;
  uint64_t chunk_rows = 0;
  bool compression = true;
  std::string image_file;  ///< relative to the db dir; "" = empty table
  uint64_t row_count = 0;  ///< stable rows in the image (sanity check)
};

/// The database root pointer.
struct Manifest {
  uint64_t epoch = 0;       ///< bumped by every Save
  std::string wal_file;     ///< live WAL segment, relative to the db dir
  std::vector<ManifestTable> tables;
};

/// Name of the manifest file inside a database directory.
inline const char* kManifestFileName = "MANIFEST";

/// Writes `contents` to `path` atomically: temp file, Sync, rename.
Status WriteFileAtomic(FileSystem* fs, const std::string& path,
                       const std::string& contents);

/// Serializes + writes the manifest atomically into `dir`.
Status WriteManifest(FileSystem* fs, const std::string& dir,
                     const Manifest& m);

/// Reads and validates `dir`'s manifest. Corruption (bad magic or
/// checksum) is reported as Corruption; a missing file as NotFound.
StatusOr<Manifest> ReadManifest(FileSystem* fs, const std::string& dir);

/// Writes `table`'s *stable* image (encoded columns + checksum) to
/// `path` atomically. The caller must have checkpointed first: any
/// buffered delta is NOT part of the image.
Status SaveTableImage(FileSystem* fs, const std::string& path,
                      const Table& table);

/// Loads an image written by SaveTableImage into a freshly created
/// (unloaded) table. Corruption is reported as Corruption.
Status LoadTableImage(FileSystem* fs, const std::string& path, Table* table);

}  // namespace pdtstore

#endif  // PDTSTORE_DB_CHECKPOINT_H_
