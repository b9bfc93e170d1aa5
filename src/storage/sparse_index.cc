#include "storage/sparse_index.h"

#include <cassert>

namespace pdtstore {

StatusOr<SparseIndex> SparseIndex::Build(const ColumnStore& store) {
  SparseIndex index;
  index.num_rows_ = store.num_rows();
  const auto& sk = store.schema().sort_key();
  for (size_t ci = 0; ci < store.num_chunks(); ++ci) {
    auto [begin, end] = store.ChunkSidRange(ci);
    ZoneEntry entry;
    entry.start_sid = begin;
    entry.end_sid = end;
    // The table is SK-ordered, so the chunk min/max SK are simply the
    // first and last rows' keys.
    for (ColumnId col : sk) {
      PDT_ASSIGN_OR_RETURN(auto data, store.FetchChunk(col, ci));
      entry.min_key.push_back(data->GetValue(0));
      entry.max_key.push_back(data->GetValue(data->size() - 1));
    }
    index.entries_.push_back(std::move(entry));
  }
  return index;
}

int SparseIndex::ComparePrefix(const std::vector<Value>& zone_key,
                               const std::vector<Value>& bound) {
  size_t n = std::min(zone_key.size(), bound.size());
  for (size_t i = 0; i < n; ++i) {
    int c = zone_key[i].Compare(bound[i]);
    if (c != 0) return c;
  }
  return 0;  // equal on the compared prefix
}

SidRange SparseIndex::LookupRange(const std::vector<Value>& lo,
                                  const std::vector<Value>& hi) const {
  size_t first = entries_.size();
  size_t last = 0;  // one past the last qualifying chunk
  for (size_t i = 0; i < entries_.size(); ++i) {
    const ZoneEntry& e = entries_[i];
    if (!lo.empty() && ComparePrefix(e.max_key, lo) < 0) continue;
    if (!hi.empty() && ComparePrefix(e.min_key, hi) > 0) continue;
    // Contiguity (see the header): nothing qualifies past a gap.
    assert(first == entries_.size() || last == i);
    if (first == entries_.size()) first = i;
    last = i + 1;
  }
  if (first == entries_.size()) {
    // Empty at the insert position of the bounds' keys (see the header).
    Sid s = num_rows_;
    for (size_t i = 0; !hi.empty() && i < entries_.size(); ++i) {
      if (ComparePrefix(entries_[i].min_key, hi) > 0) {
        s = entries_[i].start_sid;
        break;
      }
    }
    return SidRange{s, s};
  }
  return SidRange{entries_[first].start_sid, entries_[last - 1].end_sid};
}

Sid SparseIndex::LowerBoundSid(const std::vector<Value>& key) const {
  for (const auto& e : entries_) {
    if (ComparePrefix(e.max_key, key) >= 0) return e.start_sid;
  }
  return num_rows_;
}

}  // namespace pdtstore
