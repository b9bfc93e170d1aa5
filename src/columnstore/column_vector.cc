#include "columnstore/column_vector.h"

#include <algorithm>
#include <cassert>

namespace pdtstore {

void ColumnVector::Clear() {
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  codes_.clear();
  dict_ = nullptr;
  runs_ = nullptr;
  owner_ = nullptr;
  view_off_ = 0;
  view_len_ = 0;
}

void ColumnVector::Reserve(size_t n) {
  if (owner_) return;  // a borrow has no local storage to size
  if (dict_) {
    codes_.reserve(n);
    return;
  }
  switch (type_) {
    case TypeId::kInt64:
      ints_.reserve(n);
      break;
    case TypeId::kDouble:
      doubles_.reserve(n);
      break;
    case TypeId::kString:
      strings_.reserve(n);
      break;
  }
}

void ColumnVector::BorrowFrom(std::shared_ptr<const ColumnVector> src,
                              size_t off, size_t len) {
  assert(src && src->type() == type_);
  // Collapse borrow chains: always pin the root owner directly.
  if (src->owner_) {
    off += src->view_off_;
    std::shared_ptr<const ColumnVector> root = src->owner_;
    src = std::move(root);
  }
  assert(off + len <= src->size());
  Clear();
  owner_ = std::move(src);
  view_off_ = off;
  view_len_ = len;
}

void ColumnVector::SliceFrom(const ColumnVector& src, size_t off,
                             size_t len) {
  if (src.owner_) {
    BorrowFrom(src.owner_, src.view_off_ + off, len);
    return;
  }
  Clear();
  AppendRange(src, off, off + len);
}

void ColumnVector::AdoptDict(std::shared_ptr<const StringDict> dict) {
  assert(type_ == TypeId::kString && empty() && !owner_ && !dict_);
  assert(dict && dict->hashes.size() == dict->values.size());
  dict_ = std::move(dict);
}

void ColumnVector::SetRleRuns(std::shared_ptr<const RleRuns> runs) {
  assert(!owner_);
  assert(!runs || runs->ends.empty() || runs->ends.back() == size());
  runs_ = std::move(runs);
}

void ColumnVector::DetachToOwned() {
  runs_ = nullptr;  // any mutation invalidates the run sidecar
  if (!owner_) return;
  // Keep the payload pinned while copying out of it.
  std::shared_ptr<const ColumnVector> keep = std::move(owner_);
  const ColumnVector& p = *keep;
  size_t off = view_off_, len = view_len_;
  owner_ = nullptr;
  view_off_ = 0;
  view_len_ = 0;
  if (p.dict_) {
    dict_ = p.dict_;
    codes_.assign(p.codes_.begin() + off, p.codes_.begin() + off + len);
    return;
  }
  switch (type_) {
    case TypeId::kInt64:
      ints_.assign(p.ints_.begin() + off, p.ints_.begin() + off + len);
      break;
    case TypeId::kDouble:
      doubles_.assign(p.doubles_.begin() + off, p.doubles_.begin() + off + len);
      break;
    case TypeId::kString:
      strings_.assign(p.strings_.begin() + off, p.strings_.begin() + off + len);
      break;
  }
}

void ColumnVector::DecayDictToPlain() {
  assert(!owner_);
  if (!dict_) return;
  strings_.reserve(codes_.size());
  for (uint32_t c : codes_) strings_.push_back(dict_->values[c]);
  codes_.clear();
  dict_ = nullptr;
}

void ColumnVector::EnsureOwnedPlain() {
  DetachToOwned();
  DecayDictToPlain();
}

bool ColumnVector::MatchDictFor(const ColumnVector& other) {
  if (!other.is_dict()) return false;
  DetachToOwned();  // appends mutate; never write through a borrow
  if (dict_) return dict_ == other.dict();
  if (strings_.empty()) {
    // Empty plain column adopts the source dictionary: downstream
    // operators keep flowing codes until a foreign dictionary arrives.
    dict_ = other.dict();
    return true;
  }
  return false;
}

void ColumnVector::Append(const Value& v) {
  assert(v.type() == type_);
  EnsureOwnedPlain();
  switch (type_) {
    case TypeId::kInt64:
      ints_.push_back(v.AsInt64());
      break;
    case TypeId::kDouble:
      doubles_.push_back(v.AsDouble());
      break;
    case TypeId::kString:
      strings_.push_back(v.AsString());
      break;
  }
}

void ColumnVector::AppendRun(const Value& v, size_t count) {
  assert(v.type() == type_);
  EnsureOwnedPlain();
  switch (type_) {
    case TypeId::kInt64:
      ints_.insert(ints_.end(), count, v.AsInt64());
      break;
    case TypeId::kDouble:
      doubles_.insert(doubles_.end(), count, v.AsDouble());
      break;
    case TypeId::kString:
      strings_.insert(strings_.end(), count, v.AsString());
      break;
  }
}

void ColumnVector::AppendFrom(const ColumnVector& other, size_t i) {
  assert(other.type() == type_);
  switch (type_) {
    case TypeId::kInt64:
      DetachToOwned();
      ints_.push_back(other.ints_data()[i]);
      break;
    case TypeId::kDouble:
      DetachToOwned();
      doubles_.push_back(other.doubles_data()[i]);
      break;
    case TypeId::kString:
      if (MatchDictFor(other)) {
        codes_.push_back(other.CodeAt(i));
      } else {
        EnsureOwnedPlain();
        strings_.push_back(other.StringAt(i));
      }
      break;
  }
}

void ColumnVector::AppendRange(const ColumnVector& other, size_t begin,
                               size_t end) {
  assert(other.type() == type_);
  assert(end <= other.size());
  if (begin >= end) return;
  switch (type_) {
    case TypeId::kInt64: {
      DetachToOwned();
      const int64_t* src = other.ints_data();
      ints_.insert(ints_.end(), src + begin, src + end);
      break;
    }
    case TypeId::kDouble: {
      DetachToOwned();
      const double* src = other.doubles_data();
      doubles_.insert(doubles_.end(), src + begin, src + end);
      break;
    }
    case TypeId::kString: {
      if (MatchDictFor(other)) {
        const uint32_t* src = other.codes_data();
        codes_.insert(codes_.end(), src + begin, src + end);
      } else {
        EnsureOwnedPlain();
        if (other.is_dict()) {
          for (size_t i = begin; i < end; ++i) {
            strings_.push_back(other.StringAt(i));
          }
        } else {
          const std::string* src = other.strings_data();
          strings_.insert(strings_.end(), src + begin, src + end);
        }
      }
      break;
    }
  }
}

void ColumnVector::AppendGather(const ColumnVector& other,
                                const SelVector& sel) {
  assert(other.type() == type_);
  switch (type_) {
    case TypeId::kInt64: {
      DetachToOwned();
      const int64_t* src = other.ints_data();
      size_t base = ints_.size();
      ints_.resize(base + sel.size());
      for (size_t i = 0; i < sel.size(); ++i) ints_[base + i] = src[sel[i]];
      break;
    }
    case TypeId::kDouble: {
      DetachToOwned();
      const double* src = other.doubles_data();
      size_t base = doubles_.size();
      doubles_.resize(base + sel.size());
      for (size_t i = 0; i < sel.size(); ++i) doubles_[base + i] = src[sel[i]];
      break;
    }
    case TypeId::kString: {
      if (MatchDictFor(other)) {
        // Dictionary gather moves 4-byte codes, not std::strings.
        const uint32_t* src = other.codes_data();
        size_t base = codes_.size();
        codes_.resize(base + sel.size());
        for (size_t i = 0; i < sel.size(); ++i) codes_[base + i] = src[sel[i]];
      } else {
        EnsureOwnedPlain();
        // Copy-construct (not assign into default strings), so a gathered
        // string has the capacity any other copy of it has.
        const size_t need = strings_.size() + sel.size();
        if (need > strings_.capacity()) {
          strings_.reserve(std::max(need, 2 * strings_.capacity()));
        }
        for (size_t i = 0; i < sel.size(); ++i) {
          strings_.push_back(other.StringAt(sel[i]));
        }
      }
      break;
    }
  }
}

void ColumnVector::AppendFiltered(const ColumnVector& other,
                                  const KeepBitmap& keep) {
  assert(keep.size() <= other.size());
  // Word-at-a-time selection build + branchless gather beats a
  // per-element conditional copy on unpredictable bitmaps (one
  // miss-prone pass total, not one per column when called batch-wide).
  AppendGather(other, SelVector::FromKeep(keep));
}

void ColumnVector::AppendFiltered(const ColumnVector& other,
                                  const uint8_t* keep, size_t n) {
  assert(n <= other.size());
  AppendGather(other, SelVector::FromKeep(keep, n));
}

void ColumnVector::HashColumn(uint64_t* out) const {
  size_t n = size();
  switch (type_) {
    case TypeId::kInt64: {
      const int64_t* d = ints_data();
      for (size_t i = 0; i < n; ++i) {
        out[i] = CombineHash(out[i], Mix64(static_cast<uint64_t>(d[i])));
      }
      break;
    }
    case TypeId::kDouble: {
      const double* src = doubles_data();
      for (size_t i = 0; i < n; ++i) {
        // Normalize -0.0 so values that compare equal hash equal.
        double d = src[i] == 0.0 ? 0.0 : src[i];
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d));
        __builtin_memcpy(&bits, &d, sizeof(bits));
        out[i] = CombineHash(out[i], Mix64(bits));
      }
      break;
    }
    case TypeId::kString: {
      if (is_dict()) {
        // Group-by/join hashing of dict columns is an array lookup: the
        // chunk decode precomputed HashBytes for every dictionary entry.
        const uint32_t* c = codes_data();
        const uint64_t* h = dict()->hashes.data();
        for (size_t i = 0; i < n; ++i) {
          out[i] = CombineHash(out[i], h[c[i]]);
        }
      } else {
        const std::string* s = strings_data();
        for (size_t i = 0; i < n; ++i) {
          out[i] = CombineHash(out[i], HashBytes(s[i].data(), s[i].size()));
        }
      }
      break;
    }
  }
}

Value ColumnVector::GetValue(size_t i) const {
  switch (type_) {
    case TypeId::kInt64:
      return Value(ints_data()[i]);
    case TypeId::kDouble:
      return Value(doubles_data()[i]);
    case TypeId::kString:
      return Value(StringAt(i));
  }
  return Value();
}

void ColumnVector::SetValue(size_t i, const Value& v) {
  assert(v.type() == type_);
  EnsureOwnedPlain();
  switch (type_) {
    case TypeId::kInt64:
      ints_[i] = v.AsInt64();
      break;
    case TypeId::kDouble:
      doubles_[i] = v.AsDouble();
      break;
    case TypeId::kString:
      strings_[i] = v.AsString();
      break;
  }
}

void ColumnVector::SetFrom(size_t i, const ColumnVector& other, size_t j) {
  assert(other.type() == type_);
  switch (type_) {
    case TypeId::kInt64:
      DetachToOwned();
      ints_[i] = other.ints_data()[j];
      break;
    case TypeId::kDouble:
      DetachToOwned();
      doubles_[i] = other.doubles_data()[j];
      break;
    case TypeId::kString:
      if (is_dict() && other.is_dict() && dict() == other.dict()) {
        DetachToOwned();  // keeps codes + shared dict
        codes_[i] = other.CodeAt(j);
      } else {
        EnsureOwnedPlain();
        strings_[i] = other.StringAt(j);
      }
      break;
  }
}

int ColumnVector::CompareAt(size_t i, const ColumnVector& other,
                            size_t j) const {
  assert(other.type() == type_);
  switch (type_) {
    case TypeId::kInt64: {
      int64_t a = ints_data()[i], b = other.ints_data()[j];
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case TypeId::kDouble: {
      double a = doubles_data()[i], b = other.doubles_data()[j];
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case TypeId::kString: {
      // Equal codes under a shared dictionary are equal strings; unequal
      // codes still need a lexical compare (appearance order != sort
      // order).
      if (is_dict() && other.is_dict() && dict() == other.dict() &&
          CodeAt(i) == other.CodeAt(j)) {
        return 0;
      }
      int c = StringAt(i).compare(other.StringAt(j));
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
  return 0;
}

size_t ColumnVector::ByteSize() const {
  size_t n = size();
  switch (type_) {
    case TypeId::kInt64:
    case TypeId::kDouble:
      return n * 8;
    case TypeId::kString: {
      if (is_dict()) {
        const StringDict& d = *dict();
        size_t total = n * sizeof(uint32_t) + d.hashes.size() * 8 +
                       d.values.size() * sizeof(std::string);
        for (const auto& s : d.values) total += s.capacity();
        return total;
      }
      const std::string* s = strings_data();
      size_t total = n * sizeof(std::string);
      for (size_t i = 0; i < n; ++i) total += s[i].capacity();
      return total;
    }
  }
  return 0;
}

}  // namespace pdtstore
