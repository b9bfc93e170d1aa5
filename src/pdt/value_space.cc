#include "pdt/value_space.h"

#include <cassert>

#include "columnstore/sel_vector.h"
#include "util/string_util.h"

namespace pdtstore {

std::string UpdateEntryToString(const UpdateEntry& e) {
  const char* tag;
  std::string mod;
  if (e.type == kTypeIns) {
    tag = "INS";
  } else if (e.type == kTypeDel) {
    tag = "DEL";
  } else {
    mod = StringPrintf("mod(c%u)", static_cast<unsigned>(e.type));
    tag = mod.c_str();
  }
  return StringPrintf("%s@%llu->%llu", tag,
                      static_cast<unsigned long long>(e.sid),
                      static_cast<unsigned long long>(e.value));
}

ValueSpace::ValueSpace(std::shared_ptr<const Schema> schema)
    : schema_(std::move(schema)) {
  insert_cols_.reserve(schema_->num_columns());
  modify_cols_.reserve(schema_->num_columns());
  for (ColumnId c = 0; c < schema_->num_columns(); ++c) {
    insert_cols_.emplace_back(schema_->column(c).type);
    modify_cols_.emplace_back(schema_->column(c).type);
  }
  delete_cols_.reserve(schema_->sort_key().size());
  for (ColumnId k : schema_->sort_key()) {
    delete_cols_.emplace_back(schema_->column(k).type);
  }
}

uint64_t ValueSpace::AddInsertTuple(const Tuple& tuple) {
  assert(tuple.size() == schema_->num_columns());
  uint64_t offset = insert_count();
  for (ColumnId c = 0; c < tuple.size(); ++c) {
    insert_cols_[c].Append(tuple[c]);
  }
  return offset;
}

void ValueSpace::SetInsertColumn(uint64_t offset, ColumnId col,
                                 const Value& v) {
  insert_cols_[col].SetValue(offset, v);
}

Value ValueSpace::GetInsertColumn(uint64_t offset, ColumnId col) const {
  return insert_cols_[col].GetValue(offset);
}

Tuple ValueSpace::GetInsertTuple(uint64_t offset) const {
  Tuple t;
  t.reserve(insert_cols_.size());
  for (const auto& col : insert_cols_) t.push_back(col.GetValue(offset));
  return t;
}

std::vector<Value> ValueSpace::GetInsertSortKey(uint64_t offset) const {
  std::vector<Value> key;
  key.reserve(schema_->sort_key().size());
  for (ColumnId k : schema_->sort_key()) {
    key.push_back(insert_cols_[k].GetValue(offset));
  }
  return key;
}

uint64_t ValueSpace::AddDeleteKey(const std::vector<Value>& sk_values) {
  assert(sk_values.size() == delete_cols_.size());
  uint64_t offset = delete_count();
  for (size_t i = 0; i < sk_values.size(); ++i) {
    delete_cols_[i].Append(sk_values[i]);
  }
  return offset;
}

std::vector<Value> ValueSpace::GetDeleteKey(uint64_t offset) const {
  std::vector<Value> key;
  key.reserve(delete_cols_.size());
  for (const auto& col : delete_cols_) key.push_back(col.GetValue(offset));
  return key;
}

uint64_t ValueSpace::AddModifyValue(ColumnId col, const Value& v) {
  uint64_t offset = modify_cols_[col].size();
  modify_cols_[col].Append(v);
  return offset;
}

void ValueSpace::SetModifyValue(ColumnId col, uint64_t offset,
                                const Value& v) {
  modify_cols_[col].SetValue(offset, v);
}

Value ValueSpace::GetModifyValue(ColumnId col, uint64_t offset) const {
  return modify_cols_[col].GetValue(offset);
}

int ValueSpace::CompareInsertKeys(uint64_t offset_a, const ValueSpace& other,
                                  uint64_t offset_b) const {
  const auto& sk = schema_->sort_key();
  for (ColumnId k : sk) {
    int c = insert_cols_[k].CompareAt(offset_a, other.insert_cols_[k],
                                      offset_b);
    if (c != 0) return c;
  }
  return 0;
}

int ValueSpace::CompareInsertKeyToKey(uint64_t offset,
                                      const std::vector<Value>& key) const {
  const auto& sk = schema_->sort_key();
  for (size_t i = 0; i < sk.size() && i < key.size(); ++i) {
    int c = insert_cols_[sk[i]].GetValue(offset).Compare(key[i]);
    if (c != 0) return c;
  }
  return 0;
}

int ValueSpace::CompareDeleteKeyToKey(uint64_t offset,
                                      const std::vector<Value>& key) const {
  for (size_t i = 0; i < delete_cols_.size() && i < key.size(); ++i) {
    int c = delete_cols_[i].GetValue(offset).Compare(key[i]);
    if (c != 0) return c;
  }
  return 0;
}

ValueSpace ValueSpace::Compact(std::vector<UpdateEntry>* entries) const {
  // Value tables by index: 0 the insert table, 1 the delete table, 2 + c
  // column c's modify table.
  const size_t num_tables = 2 + modify_cols_.size();
  auto table_of = [](uint16_t type) -> size_t {
    if (type == kTypeIns) return 0;
    if (type == kTypeDel) return 1;
    return 2 + type;
  };
  auto rows_of = [&](size_t t) {
    return t == 0 ? insert_count()
                  : t == 1 ? delete_count() : modify_cols_[t - 2].size();
  };
  ValueSpace out(schema_);
  auto for_columns = [&](size_t t, auto&& fn) {
    if (t == 0) {
      for (size_t c = 0; c < insert_cols_.size(); ++c) {
        fn(insert_cols_[c], &out.insert_cols_[c]);
      }
    } else if (t == 1) {
      for (size_t k = 0; k < delete_cols_.size(); ++k) {
        fn(delete_cols_[k], &out.delete_cols_[k]);
      }
    } else {
      fn(modify_cols_[t - 2], &out.modify_cols_[t - 2]);
    }
  };
  std::vector<size_t> live(num_tables, 0);
  for (const UpdateEntry& e : *entries) ++live[table_of(e.type)];
  // A table with as many live entries as rows has no hole: copy it as it
  // is. The others get a renumbering (old offset -> new offset).
  constexpr uint32_t kDead = UINT32_MAX;
  std::vector<std::vector<uint32_t>> renumber(num_tables);
  bool holes = false;
  for (size_t t = 0; t < num_tables; ++t) {
    if (live[t] == rows_of(t)) {
      for_columns(t, [](const ColumnVector& from, ColumnVector* to) {
        *to = from;
      });
    } else {
      renumber[t].assign(rows_of(t), kDead);
      holes = true;
    }
  }
  if (!holes) return out;
  for (const UpdateEntry& e : *entries) {
    std::vector<uint32_t>& r = renumber[table_of(e.type)];
    if (r.empty()) continue;
    assert(r[e.value] == kDead);
    r[e.value] = 0;
  }
  for (size_t t = 0; t < num_tables; ++t) {
    if (renumber[t].empty()) continue;
    SelVector rows;
    rows.reserve(live[t]);
    for (size_t i = 0; i < renumber[t].size(); ++i) {
      if (renumber[t][i] == kDead) continue;
      renumber[t][i] = static_cast<uint32_t>(rows.size());
      rows.push_back(static_cast<uint32_t>(i));
    }
    for_columns(t, [&](const ColumnVector& from, ColumnVector* to) {
      to->AppendGather(from, rows);
    });
  }
  for (UpdateEntry& e : *entries) {
    const std::vector<uint32_t>& r = renumber[table_of(e.type)];
    if (!r.empty()) e.value = r[e.value];
  }
  return out;
}

size_t ValueSpace::MemoryBytes() const {
  size_t total = 0;
  for (const auto& c : insert_cols_) total += c.ByteSize();
  for (const auto& c : delete_cols_) total += c.ByteSize();
  for (const auto& c : modify_cols_) total += c.ByteSize();
  return total;
}

void ValueSpace::Clear() {
  for (auto& c : insert_cols_) c.Clear();
  for (auto& c : delete_cols_) c.Clear();
  for (auto& c : modify_cols_) c.Clear();
}

}  // namespace pdtstore
