#include "storage/chunk.h"

namespace pdtstore {

namespace {

StatusOr<Chunk> BuildChunkWithEncoding(const ColumnVector& values,
                                       Sid start_sid, Encoding encoding) {
  Chunk chunk;
  chunk.start_sid = start_sid;
  chunk.row_count = values.size();
  chunk.type = values.type();
  chunk.encoding = encoding;
  PDT_RETURN_NOT_OK(EncodeColumn(values, chunk.encoding, &chunk.data));
  return chunk;
}

}  // namespace

StatusOr<Chunk> BuildChunk(const ColumnVector& values, Sid start_sid,
                           bool compression) {
  if (values.empty()) {
    return Status::InvalidArgument("cannot build an empty chunk");
  }
  return BuildChunkWithEncoding(values, start_sid,
                                ChooseEncoding(values, compression));
}

StatusOr<Chunk> BuildChunkForced(const ColumnVector& values, Sid start_sid,
                                 Encoding forced) {
  if (values.empty()) {
    return Status::InvalidArgument("cannot build an empty chunk");
  }
  auto chunk = BuildChunkWithEncoding(values, start_sid, forced);
  if (chunk.ok()) return chunk;
  return BuildChunkWithEncoding(values, start_sid, Encoding::kPlain);
}

Status DecodeChunk(const Chunk& chunk, ColumnVector* out, bool keep_encoded) {
  return DecodeColumn(chunk.data, chunk.type, chunk.encoding, chunk.row_count,
                      out, keep_encoded);
}

}  // namespace pdtstore
