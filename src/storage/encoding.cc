#include "storage/encoding.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <unordered_map>

namespace pdtstore {

const char* EncodingToString(Encoding e) {
  switch (e) {
    case Encoding::kPlain:
      return "PLAIN";
    case Encoding::kRle:
      return "RLE";
    case Encoding::kDeltaVarint:
      return "DELTA";
    case Encoding::kDict:
      return "DICT";
    case Encoding::kForBitPack:
      return "FOR";
  }
  return "UNKNOWN";
}

void PutVarint64(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

Status GetVarint64(const std::string& in, size_t* pos, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  while (*pos < in.size() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(in[*pos]);
    ++*pos;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return Status::OK();
    }
    shift += 7;
  }
  return Status::Corruption("truncated varint");
}

namespace {

void PutLengthPrefixed(std::string* out, const std::string& s) {
  PutVarint64(out, s.size());
  out->append(s);
}

// Appends one value of `col[i]` in plain form. Reads through the
// representation-resolving spans: checkpoint hands us columns that may be
// borrowed from pool chunks or still carrying dictionary codes.
void PutOnePlain(std::string* out, const ColumnVector& col, size_t i) {
  switch (col.type()) {
    case TypeId::kInt64:
      PutFixed64(out, static_cast<uint64_t>(col.ints_data()[i]));
      break;
    case TypeId::kDouble: {
      uint64_t bits;
      double d = col.doubles_data()[i];
      std::memcpy(&bits, &d, 8);
      PutFixed64(out, bits);
      break;
    }
    case TypeId::kString:
      PutLengthPrefixed(out, col.StringAt(i));
      break;
  }
}

bool ValuesEqualAt(const ColumnVector& col, size_t i, size_t j) {
  return col.CompareAt(i, col, j) == 0;
}

Status EncodePlain(const ColumnVector& col, std::string* out) {
  for (size_t i = 0; i < col.size(); ++i) PutOnePlain(out, col, i);
  return Status::OK();
}

Status EncodeRle(const ColumnVector& col, std::string* out) {
  size_t i = 0;
  while (i < col.size()) {
    size_t j = i + 1;
    while (j < col.size() && ValuesEqualAt(col, j, i)) ++j;
    PutVarint64(out, j - i);
    PutOnePlain(out, col, i);
    i = j;
  }
  return Status::OK();
}

Status EncodeDeltaVarint(const ColumnVector& col, std::string* out) {
  if (col.type() != TypeId::kInt64) {
    return Status::InvalidArgument("delta encoding requires INT64");
  }
  int64_t prev = 0;
  const int64_t* vals = col.ints_data();
  for (size_t i = 0; i < col.size(); ++i) {
    // Wrapping subtraction: full-range inputs overflow int64_t, and the
    // decoder's wrapping addition undoes exactly this delta.
    const uint64_t delta =
        static_cast<uint64_t>(vals[i]) - static_cast<uint64_t>(prev);
    PutVarint64(out, ZigZagEncode(static_cast<int64_t>(delta)));
    prev = vals[i];
  }
  return Status::OK();
}

Status EncodeDict(const ColumnVector& col, std::string* out) {
  if (col.type() != TypeId::kString) {
    return Status::InvalidArgument("dict encoding requires STRING");
  }
  std::unordered_map<std::string, uint64_t> dict;
  std::vector<const std::string*> order;
  std::vector<uint64_t> codes;
  codes.reserve(col.size());
  for (size_t i = 0; i < col.size(); ++i) {
    auto [it, inserted] = dict.emplace(col.StringAt(i), dict.size());
    if (inserted) order.push_back(&it->first);
    codes.push_back(it->second);
  }
  PutVarint64(out, order.size());
  for (const auto* s : order) PutLengthPrefixed(out, *s);
  for (uint64_t c : codes) PutVarint64(out, c);
  return Status::OK();
}

// Frame-of-reference + bit packing: store min(v) and the bit width of
// max(v - min), then pack each offset into `width` bits. The workhorse
// encoding for narrow-range integer columns (quantities, small codes) in
// columnar systems like the paper's.
Status EncodeForBitPack(const ColumnVector& col, std::string* out) {
  if (col.type() != TypeId::kInt64) {
    return Status::InvalidArgument("FOR encoding requires INT64");
  }
  const int64_t* v = col.ints_data();
  const size_t n = col.size();
  int64_t min_v = n == 0 ? 0 : v[0];
  int64_t max_v = min_v;
  for (size_t i = 0; i < n; ++i) {
    min_v = std::min(min_v, v[i]);
    max_v = std::max(max_v, v[i]);
  }
  uint64_t range = static_cast<uint64_t>(max_v) - static_cast<uint64_t>(min_v);
  int width = 1;
  while (width < 64 && (range >> width) != 0) ++width;
  if (width > 56) {
    // The accumulator scheme below keeps acc_bits < 8 between values, so
    // widths beyond 56 bits could overflow a shift; such columns gain
    // nothing from FOR anyway.
    return Status::InvalidArgument("FOR range too wide; use plain");
  }
  PutVarint64(out, ZigZagEncode(min_v));
  out->push_back(static_cast<char>(width));
  uint64_t acc = 0;
  int acc_bits = 0;  // < 8 between values
  for (size_t i = 0; i < n; ++i) {
    uint64_t off = static_cast<uint64_t>(v[i]) - static_cast<uint64_t>(min_v);
    acc |= off << acc_bits;
    acc_bits += width;
    while (acc_bits >= 8) {
      out->push_back(static_cast<char>(acc & 0xff));
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (acc_bits > 0) out->push_back(static_cast<char>(acc & 0xff));
  return Status::OK();
}

// --- decode kernels ---
// Each kernel takes the typed output vector once, proves from the payload
// size that it can hold `count` values before sizing the output (`count`
// comes from chunk and image headers, so it is not trusted), and then
// writes through a raw pointer. Fixed-width payloads are bounds-checked
// once per chunk; variable-width ones once per value, inside the varint
// reader.

constexpr size_t kMaxVarintBytes = 10;

// Sequential varint reader over a payload. While kMaxVarintBytes remain, a
// varint decodes without per-byte bounds checks; near the end it falls
// back to GetVarint64. Accepts and rejects exactly what GetVarint64 does.
class VarintReader {
 public:
  explicit VarintReader(const std::string& in)
      : in_(in), data_(in.data()), size_(in.size()) {}

  const char* cursor() const { return data_ + pos_; }
  size_t remaining() const { return size_ - pos_; }
  void Skip(size_t n) { pos_ += n; }

  /// False on a truncated or overlong varint.
  bool Read(uint64_t* v) {
    if (size_ - pos_ < kMaxVarintBytes) {
      return GetVarint64(in_, &pos_, v).ok();
    }
    // One- and two-byte varints (small deltas, dictionary codes, run
    // lengths) decode from one 8-byte load.
    const uint64_t word = DecodeFixed64(data_ + pos_);
    if ((word & 0x80) == 0) {
      pos_ += 1;
      *v = word & 0x7f;
      return true;
    }
    if ((word & 0x8000) == 0) {
      pos_ += 2;
      *v = (word & 0x7f) | ((word >> 1) & 0x3f80);
      return true;
    }
    const auto* p = reinterpret_cast<const uint8_t*>(data_ + pos_);
    uint64_t result = (word & 0x7f) | ((word >> 1) & 0x3f80);
    for (size_t i = 2; i < kMaxVarintBytes; ++i) {
      const uint64_t byte = p[i];
      result |= (byte & 0x7f) << (7 * i);
      if (byte < 0x80) {
        pos_ += i + 1;
        *v = result;
        return true;
      }
    }
    return false;
  }

  /// Reads a length-prefixed string's bytes; false on truncation.
  bool ReadString(const char** data, size_t* len) {
    uint64_t n;
    if (!Read(&n) || n > remaining()) return false;
    *data = cursor();
    *len = static_cast<size_t>(n);
    pos_ += *len;
    return true;
  }

 private:
  // The payload's pointer and size are copied so that stores through the
  // output pointer do not force the compiler to reload them.
  const std::string& in_;
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

Status TruncatedVarint() { return Status::Corruption("truncated varint"); }

Status TruncatedString() { return Status::Corruption("truncated string"); }

Status DecodeForBitPack(const std::string& in, size_t count,
                        ColumnVector* out) {
  size_t pos = 0;
  uint64_t zz;
  PDT_RETURN_NOT_OK(GetVarint64(in, &pos, &zz));
  const uint64_t min_v = static_cast<uint64_t>(ZigZagDecode(zz));
  if (pos >= in.size()) return Status::Corruption("truncated FOR header");
  const int width = static_cast<uint8_t>(in[pos]);
  ++pos;
  if (width <= 0 || width > 56) {
    return Status::Corruption("bad FOR bit width");
  }
  // The packed bits must hold `count` values: ceil(count * width / 8) <=
  // avail, i.e. count <= avail * 8 / width. count * width could overflow;
  // avail * 8 cannot, as the payload is in memory.
  const char* base = in.data() + pos;
  const uint64_t avail = in.size() - pos;
  if (count > avail * 8 / width) {
    return Status::Corruption("truncated FOR data");
  }
  std::vector<int64_t>& vals = out->ints();
  vals.resize(count);
  int64_t* dst = vals.data();
  const uint64_t mask = (uint64_t{1} << width) - 1;
  // Value i starts at bit i * width. While the 8-byte word holding its
  // first byte lies inside the payload, one load covers the value: a
  // shift of at most 7 plus a width of at most 56 bits fits in 64. The
  // last values are assembled byte by byte.
  const uint64_t word_bits = avail >= 8 ? (avail - 7) * 8 : 0;
  const size_t fast = static_cast<size_t>(
      std::min<uint64_t>(count, (word_bits + width - 1) / width));
  for (size_t i = 0; i < fast; ++i) {
    const uint64_t bit = static_cast<uint64_t>(i) * width;
    const uint64_t word = DecodeFixed64(base + (bit >> 3));
    dst[i] = static_cast<int64_t>(min_v + ((word >> (bit & 7)) & mask));
  }
  for (size_t i = fast; i < count; ++i) {
    const uint64_t bit = static_cast<uint64_t>(i) * width;
    const uint64_t first = bit >> 3;
    const uint64_t last = (bit + width - 1) >> 3;
    uint64_t word = 0;
    for (uint64_t b = first; b <= last; ++b) {
      word |= static_cast<uint64_t>(static_cast<uint8_t>(base[b]))
              << (8 * (b - first));
    }
    dst[i] = static_cast<int64_t>(min_v + ((word >> (bit & 7)) & mask));
  }
  return Status::OK();
}

// Reads `count` length-prefixed strings into `dst`.
Status DecodeStrings(VarintReader* r, size_t count,
                     std::vector<std::string>* dst) {
  // Every string needs at least its one-byte length.
  if (count > r->remaining()) return TruncatedString();
  dst->reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const char* data;
    size_t len;
    if (!r->ReadString(&data, &len)) return TruncatedString();
    dst->emplace_back(data, len);
  }
  return Status::OK();
}

// Plain int64 and double: 8 little-endian bytes per value.
template <typename T>
Status DecodeFixed(const std::string& in, size_t count, std::vector<T>* dst) {
  if (count > in.size() / 8) return Status::Corruption("truncated fixed64");
  dst->resize(count);
  T* out = dst->data();
  const char* src = in.data();
  for (size_t i = 0; i < count; ++i) {
    const uint64_t bits = DecodeFixed64(src + 8 * i);
    std::memcpy(&out[i], &bits, 8);
  }
  return Status::OK();
}

Status DecodePlain(const std::string& in, size_t count, ColumnVector* out) {
  switch (out->type()) {
    case TypeId::kInt64:
      return DecodeFixed(in, count, &out->ints());
    case TypeId::kDouble:
      return DecodeFixed(in, count, &out->doubles());
    case TypeId::kString: {
      VarintReader r(in);
      return DecodeStrings(&r, count, &out->strings());
    }
  }
  return Status::Internal("bad type");
}

// Reads one plain value of an RLE run: 8 bytes for int64 and double.
template <typename T>
Status ReadRunValue(VarintReader* r, T* v) {
  if (r->remaining() < 8) return Status::Corruption("truncated fixed64");
  const uint64_t bits = DecodeFixed64(r->cursor());
  std::memcpy(v, &bits, 8);
  r->Skip(8);
  return Status::OK();
}
Status ReadRunValue(VarintReader* r, std::string* v) {
  const char* data;
  size_t len;
  if (!r->ReadString(&data, &len)) return TruncatedString();
  v->assign(data, len);
  return Status::OK();
}

struct ReadPlainRunValue {
  template <typename T>
  Status operator()(VarintReader* r, T* v) const {
    return ReadRunValue(r, v);
  }
};

// Expands (run_len varint, plain value) pairs into `dst` until `count`
// rows are produced; `read_value` turns each run's value into a T. One
// run header can stand for any number of rows, so the payload cannot
// prove `count` up front: every run is read and checked against the rows
// still missing first (runs and values are bounded by the payload's
// size), then the output is sized once and filled run by run. With
// `ends`, records each run's end row.
template <typename T, typename ReadValue = ReadPlainRunValue>
Status DecodeRuns(const std::string& in, size_t count, std::vector<T>* dst,
                  std::vector<uint32_t>* ends, ReadValue read_value = {}) {
  VarintReader r(in);
  std::vector<size_t> runs;
  std::vector<T> values;
  size_t produced = 0;
  while (produced < count) {
    uint64_t run;
    if (!r.Read(&run)) return TruncatedVarint();
    T value{};
    PDT_RETURN_NOT_OK(read_value(&r, &value));
    if (run > count - produced) return Status::Corruption("RLE overrun");
    produced += run;
    runs.push_back(static_cast<size_t>(run));
    values.push_back(std::move(value));
  }
  dst->resize(count);
  T* out = dst->data();
  if (ends != nullptr) ends->reserve(runs.size());
  for (size_t k = 0; k < runs.size(); ++k) {
    out = std::fill_n(out, runs[k], values[k]);
    if (ends != nullptr) {
      ends->push_back(static_cast<uint32_t>(out - dst->data()));
    }
  }
  return Status::OK();
}

// RLE strings decoded as dictionary codes: one dictionary entry per
// distinct run value (StringEquals resolves a literal to a single code,
// so entries must not repeat) and one code per row. A chunk can hold up
// to count / 4 distinct runs, so the values are indexed by a hash map
// over the payload's bytes.
Status DecodeRleCodes(const std::string& in, size_t count, ColumnVector* out,
                      std::vector<uint32_t>* ends) {
  auto dict = std::make_shared<StringDict>();
  std::unordered_map<std::string_view, uint32_t> index;
  std::vector<uint32_t> codes;
  PDT_RETURN_NOT_OK(DecodeRuns(
      in, count, &codes, ends, [&](VarintReader* r, uint32_t* code) {
        const char* data;
        size_t len;
        if (!r->ReadString(&data, &len)) return TruncatedString();
        const auto [it, added] = index.try_emplace(
            std::string_view(data, len),
            static_cast<uint32_t>(dict->values.size()));
        if (added) {
          dict->values.emplace_back(data, len);
          dict->hashes.push_back(HashBytes(data, len));
        }
        *code = it->second;
        return Status::OK();
      }));
  out->AdoptDict(std::move(dict));
  out->codes() = std::move(codes);
  return Status::OK();
}

Status DecodeRle(const std::string& in, size_t count, ColumnVector* out,
                 bool keep_encoded) {
  // With keep_encoded the run layout is recorded as an RleRuns sidecar so
  // predicate kernels can evaluate one compare per run, and strings
  // become dictionary codes; otherwise values materialize plain.
  std::vector<uint32_t> ends;
  std::vector<uint32_t>* ends_out = keep_encoded ? &ends : nullptr;
  switch (out->type()) {
    case TypeId::kInt64:
      PDT_RETURN_NOT_OK(DecodeRuns(in, count, &out->ints(), ends_out));
      break;
    case TypeId::kDouble:
      PDT_RETURN_NOT_OK(DecodeRuns(in, count, &out->doubles(), ends_out));
      break;
    case TypeId::kString:
      if (keep_encoded) {
        PDT_RETURN_NOT_OK(DecodeRleCodes(in, count, out, ends_out));
      } else {
        PDT_RETURN_NOT_OK(DecodeRuns(in, count, &out->strings(), ends_out));
      }
      break;
  }
  if (keep_encoded && count > 0 && count <= UINT32_MAX) {
    auto runs = std::make_shared<RleRuns>();
    runs->ends = std::move(ends);
    out->SetRleRuns(std::move(runs));
  }
  return Status::OK();
}

Status DecodeDeltaVarint(const std::string& in, size_t count,
                         ColumnVector* out) {
  // Every delta needs at least one byte.
  if (count > in.size()) return TruncatedVarint();
  std::vector<int64_t>& vals = out->ints();
  vals.resize(count);
  int64_t* dst = vals.data();
  VarintReader r(in);
  // Unsigned accumulation: wraps exactly like the encoder's subtraction.
  uint64_t prev = 0;
  for (size_t i = 0; i < count; ++i) {
    uint64_t zz;
    if (!r.Read(&zz)) return TruncatedVarint();
    prev += static_cast<uint64_t>(ZigZagDecode(zz));
    dst[i] = static_cast<int64_t>(prev);
  }
  return Status::OK();
}

Status DecodeDict(const std::string& in, size_t count, ColumnVector* out,
                  bool keep_encoded) {
  VarintReader r(in);
  uint64_t dict_size;
  if (!r.Read(&dict_size)) return TruncatedVarint();
  if (dict_size > in.size()) return Status::Corruption("dict size overflow");
  std::vector<std::string> dict;
  PDT_RETURN_NOT_OK(DecodeStrings(&r, dict_size, &dict));
  // Every code needs at least one byte.
  if (count > r.remaining()) return TruncatedVarint();
  const size_t nvals = dict.size();
  if (keep_encoded) {
    // Keep the dictionary live: the column becomes a uint32 code vector
    // plus a shared StringDict with per-entry hashes precomputed once
    // here, so every downstream group-by/join over this chunk hashes by
    // array lookup.
    auto shared = std::make_shared<StringDict>();
    shared->hashes.reserve(nvals);
    for (const auto& s : dict) {
      shared->hashes.push_back(HashBytes(s.data(), s.size()));
    }
    shared->values = std::move(dict);
    out->AdoptDict(std::move(shared));
    std::vector<uint32_t>& codes = out->codes();
    codes.resize(count);
    uint32_t* dst = codes.data();
    for (size_t i = 0; i < count; ++i) {
      uint64_t code;
      if (!r.Read(&code)) return TruncatedVarint();
      if (code >= nvals) return Status::Corruption("dict code overflow");
      dst[i] = static_cast<uint32_t>(code);
    }
    return Status::OK();
  }
  std::vector<std::string>& vals = out->strings();
  vals.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t code;
    if (!r.Read(&code)) return TruncatedVarint();
    if (code >= nvals) return Status::Corruption("dict code overflow");
    vals.push_back(dict[code]);
  }
  return Status::OK();
}

}  // namespace

Status EncodeColumn(const ColumnVector& col, Encoding encoding,
                    std::string* out) {
  out->clear();
  switch (encoding) {
    case Encoding::kPlain:
      return EncodePlain(col, out);
    case Encoding::kRle:
      return EncodeRle(col, out);
    case Encoding::kDeltaVarint:
      return EncodeDeltaVarint(col, out);
    case Encoding::kDict:
      return EncodeDict(col, out);
    case Encoding::kForBitPack:
      return EncodeForBitPack(col, out);
  }
  return Status::InvalidArgument("unknown encoding");
}

Status DecodeColumn(const std::string& bytes, TypeId type, Encoding encoding,
                    size_t count, ColumnVector* out, bool keep_encoded) {
  *out = ColumnVector(type);
  switch (encoding) {
    case Encoding::kPlain:
      return DecodePlain(bytes, count, out);
    case Encoding::kRle:
      return DecodeRle(bytes, count, out, keep_encoded);
    case Encoding::kDeltaVarint:
      if (type != TypeId::kInt64) {
        return Status::InvalidArgument("delta decoding requires INT64");
      }
      return DecodeDeltaVarint(bytes, count, out);
    case Encoding::kDict:
      if (type != TypeId::kString) {
        return Status::InvalidArgument("dict decoding requires STRING");
      }
      return DecodeDict(bytes, count, out, keep_encoded);
    case Encoding::kForBitPack:
      if (type != TypeId::kInt64) {
        return Status::InvalidArgument("FOR decoding requires INT64");
      }
      return DecodeForBitPack(bytes, count, out);
  }
  return Status::InvalidArgument("unknown encoding");
}

Encoding ChooseEncoding(const ColumnVector& col, bool compression_enabled) {
  if (!compression_enabled || col.size() < 8) return Encoding::kPlain;
  const size_t n = col.size();
  // Count runs and (for ints) sortedness over a bounded sample scan.
  size_t runs = 1;
  bool sorted = true;
  for (size_t i = 1; i < n; ++i) {
    int c = col.CompareAt(i - 1, col, i);
    if (c != 0) ++runs;
    if (c > 0) sorted = false;
  }
  if (runs <= n / 4) return Encoding::kRle;
  if (col.type() == TypeId::kInt64 && sorted) return Encoding::kDeltaVarint;
  if (col.type() == TypeId::kInt64) {
    // Narrow-range unsorted integers: frame-of-reference bit packing.
    const int64_t* v = col.ints_data();
    int64_t min_v = v[0], max_v = min_v;
    for (size_t i = 0; i < n; ++i) {
      min_v = std::min(min_v, v[i]);
      max_v = std::max(max_v, v[i]);
    }
    uint64_t range =
        static_cast<uint64_t>(max_v) - static_cast<uint64_t>(min_v);
    int width = 1;
    while (width < 64 && (range >> width) != 0) ++width;
    if (width <= 32) return Encoding::kForBitPack;
  }
  if (col.type() == TypeId::kString) {
    // A column still in dictionary representation is dictionary-friendly
    // by construction.
    if (col.is_dict() && col.dict()->values.size() <= n / 4) {
      return Encoding::kDict;
    }
    std::unordered_map<std::string, int> distinct;
    for (size_t i = 0; i < n && distinct.size() <= n / 4; ++i) {
      distinct.emplace(col.StringAt(i), 0);
    }
    if (distinct.size() <= n / 4) return Encoding::kDict;
  }
  return Encoding::kPlain;
}

}  // namespace pdtstore
