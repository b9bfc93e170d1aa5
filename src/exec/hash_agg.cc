#include "exec/hash_agg.h"

#include <algorithm>
#include <limits>

#include "exec/operator.h"

namespace pdtstore {

namespace {

constexpr size_t kInitialSlots = 1024;  // power of two
constexpr size_t kInitialPoolSlots = 16;  // power of two
constexpr uint32_t kNoGroup = std::numeric_limits<uint32_t>::max();
constexpr uint32_t kUnresolved = std::numeric_limits<uint32_t>::max();

double InitAcc(AggKind op) {
  switch (op) {
    case AggKind::kMin:
      return std::numeric_limits<double>::infinity();
    case AggKind::kMax:
      return -std::numeric_limits<double>::infinity();
    default:
      return 0.0;
  }
}

// Keeps, in order, the rows of sel[0, m) whose candidate group passes
// `eq(row, gid)`; returns how many remain.
template <typename Eq>
size_t KeepMatches(const uint32_t* gids, uint32_t* sel, size_t m, Eq eq) {
  size_t kept = 0;
  for (size_t j = 0; j < m; ++j) {
    const uint32_t row = sel[j];
    sel[kept] = row;
    kept += eq(row, gids[row]) ? 1 : 0;
  }
  return kept;
}

}  // namespace

uint32_t AggregationState::StringPool::Intern(const std::string& s,
                                              uint64_t hash) {
  if ((values_.size() + 1) * 2 > slots_.size()) {
    const size_t cap = std::max(kInitialPoolSlots, slots_.size() * 2);
    slots_.assign(cap, 0);
    for (uint32_t id = 0; id < values_.size(); ++id) {
      size_t pos = hashes_[id] & (cap - 1);
      while (slots_[pos] != 0) pos = (pos + 1) & (cap - 1);
      slots_[pos] = id + 1;
    }
  }
  const size_t mask = slots_.size() - 1;
  size_t pos = hash & mask;
  while (const uint32_t slot = slots_[pos]) {
    if (hashes_[slot - 1] == hash && values_[slot - 1] == s) {
      return slot - 1;
    }
    pos = (pos + 1) & mask;
  }
  const auto id = static_cast<uint32_t>(values_.size());
  values_.push_back(s);
  hashes_.push_back(hash);
  slots_[pos] = id + 1;
  return id;
}

AggregationState::AggregationState(std::vector<size_t> group_by,
                                   std::vector<AggSpec> aggs)
    : group_by_(std::move(group_by)), aggs_(std::move(aggs)) {
  // One accumulator per distinct (op, input): sums first, then mins,
  // then maxes, so the fused pass runs three branch-free inner loops.
  auto acc_of = [](const AggSpec& a) {
    return Acc{a.kind == AggKind::kAvg ? AggKind::kSum : a.kind, a.input_idx};
  };
  for (AggKind op : {AggKind::kSum, AggKind::kMin, AggKind::kMax}) {
    for (const AggSpec& a : aggs_) {
      const Acc acc = acc_of(a);
      if (acc.op == op &&
          std::find(accs_.begin(), accs_.end(), acc) == accs_.end()) {
        accs_.push_back(acc);
      }
    }
    if (op == AggKind::kSum) num_sums_ = accs_.size();
    if (op == AggKind::kMin) num_mins_ = accs_.size() - num_sums_;
  }
  // Per aggregate, its accumulator (accs_.size() for COUNT).
  for (const AggSpec& a : aggs_) {
    agg_acc_.push_back(
        std::find(accs_.begin(), accs_.end(), acc_of(a)) - accs_.begin());
  }
  GrowTable(0);
}

bool AggregationState::GrowTable(size_t min_groups) {
  // Power-of-two capacity keeping the table at most half full once
  // `min_groups` groups exist.
  size_t cap = std::max(kInitialSlots, slots_.size());
  while (cap < 2 * (min_groups + 1)) cap *= 2;
  if (cap == slots_.size()) return false;
  slots_.assign(cap, 0);
  slot_mask_ = cap - 1;
  for (uint32_t gid = 0; gid < group_hashes_.size(); ++gid) {
    size_t pos = group_hashes_[gid] & slot_mask_;
    while (slots_[pos] != 0) pos = (pos + 1) & slot_mask_;
    slots_[pos] = gid + 1;
  }
  return true;
}

void AggregationState::InitGroup() {
  counts_.push_back(0);
  for (const Acc& acc : accs_) acc_.push_back(InitAcc(acc.op));
}

void AggregationState::ResolveCodes(const ColumnVector& col,
                                    KeyColumn* key) {
  const std::shared_ptr<const StringDict>& dict = col.dict();
  if (key->dict != dict) {
    key->dict = dict;
    key->code_sids.assign(dict->values.size(), kUnresolved);
    key->unresolved_codes = dict->values.size();
  }
  // Once every code of the dictionary has its id, later batches over the
  // same chunk skip the scan.
  if (key->unresolved_codes == 0) return;
  const uint32_t* codes = col.codes_data();
  uint32_t* code_sids = key->code_sids.data();
  for (size_t i = 0, n = col.size(); i < n; ++i) {
    const uint32_t c = codes[i];
    if (code_sids[c] == kUnresolved) {
      code_sids[c] = key->pool.Intern(dict->values[c], dict->hashes[c]);
      --key->unresolved_codes;
    }
  }
}

bool AggregationState::KeyEquals(const Batch& in, size_t row,
                                 uint32_t gid) const {
  for (size_t c = 0; c < group_by_.size(); ++c) {
    const KeyColumn& key = key_cols_[c];
    const ColumnVector& col = in.column(group_by_[c]);
    bool equal = false;
    switch (key.type) {
      case TypeId::kInt64:
        equal = key.ints[gid] == col.ints_data()[row];
        break;
      case TypeId::kDouble:
        equal = DoubleKeysEqual(key.doubles[gid], col.doubles_data()[row]);
        break;
      case TypeId::kString:
        equal = col.is_dict()
                    ? key.code_sids[col.codes_data()[row]] == key.sids[gid]
                    : key.pool.value(key.sids[gid]) == col.strings_data()[row];
        break;
    }
    if (!equal) return false;
  }
  return true;
}

uint32_t AggregationState::AddGroup(const Batch& in, size_t row,
                                    uint64_t h) {
  const auto gid = static_cast<uint32_t>(group_hashes_.size());
  group_hashes_.push_back(h);
  for (size_t c = 0; c < group_by_.size(); ++c) {
    KeyColumn& key = key_cols_[c];
    const ColumnVector& col = in.column(group_by_[c]);
    switch (key.type) {
      case TypeId::kInt64:
        key.ints.push_back(col.ints_data()[row]);
        break;
      case TypeId::kDouble:
        key.doubles.push_back(col.doubles_data()[row]);
        break;
      case TypeId::kString:
        if (col.is_dict()) {
          key.sids.push_back(key.code_sids[col.codes_data()[row]]);
        } else {
          const std::string& s = col.strings_data()[row];
          key.sids.push_back(
              key.pool.Intern(s, HashBytes(s.data(), s.size())));
        }
        break;
    }
  }
  InitGroup();
  return gid;
}

void AggregationState::AssignGroups(const Batch& in) {
  const size_t n = in.num_rows();
  const uint64_t* hashes = hashes_.data();
  uint32_t* gids = gids_.data();
  uint32_t* pos = probe_pos_.data();
  uint32_t* sel = sel_.data();

  // Pass 1: probe by hash only. A row's candidate is the first group in
  // its chain with an equal hash; `pos` keeps where the probe stopped.
  size_t m = 0;
  {
    const uint32_t* slots = slots_.data();
    const uint64_t* group_hashes = group_hashes_.data();
    for (size_t row = 0; row < n; ++row) {
      const uint64_t h = hashes[row];
      size_t p = h & slot_mask_;
      uint32_t gid = kNoGroup;
      while (const uint32_t slot = slots[p]) {
        if (group_hashes[slot - 1] == h) {
          gid = slot - 1;
          break;
        }
        p = (p + 1) & slot_mask_;
      }
      gids[row] = gid;
      pos[row] = static_cast<uint32_t>(p);
      sel[m] = static_cast<uint32_t>(row);
      m += gid != kNoGroup ? 1 : 0;
    }
  }

  // Dictionary codes resolve to pool ids once per distinct code.
  for (size_t c = 0; c < group_by_.size(); ++c) {
    const ColumnVector& col = in.column(group_by_[c]);
    if (col.type() == TypeId::kString && col.is_dict()) {
      ResolveCodes(col, &key_cols_[c]);
    }
  }

  // Pass 2: one typed verify kernel per key column keeps the rows whose
  // candidate's stored key equals theirs.
  for (size_t c = 0; c < group_by_.size() && m > 0; ++c) {
    const KeyColumn& key = key_cols_[c];
    const ColumnVector& col = in.column(group_by_[c]);
    switch (key.type) {
      case TypeId::kInt64: {
        const int64_t* stored = key.ints.data();
        const int64_t* v = col.ints_data();
        m = KeepMatches(gids, sel, m, [&](uint32_t row, uint32_t gid) {
          return stored[gid] == v[row];
        });
        break;
      }
      case TypeId::kDouble: {
        const double* stored = key.doubles.data();
        const double* v = col.doubles_data();
        m = KeepMatches(gids, sel, m, [&](uint32_t row, uint32_t gid) {
          return DoubleKeysEqual(stored[gid], v[row]);
        });
        break;
      }
      case TypeId::kString: {
        const uint32_t* sids = key.sids.data();
        if (col.is_dict()) {
          const uint32_t* codes = col.codes_data();
          const uint32_t* code_sids = key.code_sids.data();
          m = KeepMatches(gids, sel, m, [&](uint32_t row, uint32_t gid) {
            return code_sids[codes[row]] == sids[gid];
          });
        } else {
          const std::string* v = col.strings_data();
          m = KeepMatches(gids, sel, m, [&](uint32_t row, uint32_t gid) {
            return key.pool.value(sids[gid]) == v[row];
          });
        }
        break;
      }
    }
  }
  if (m == n) return;

  // Pass 3: re-probe the unresolved rows in row order, so new groups keep
  // first-appearance order. Slots before a row's stopping point held
  // other hashes and still do; the probe resumes there (after a
  // mismatched candidate), unless the table has been rehashed since.
  bool rehashed = false;
  size_t next_resolved = 0;
  for (size_t row = 0; row < n; ++row) {
    if (next_resolved < m && sel[next_resolved] == row) {
      ++next_resolved;
      continue;
    }
    // Safety net when the pre-sizing estimate under-predicted: keep the
    // table at most half full so probe chains stay short.
    if ((group_hashes_.size() + 1) * 2 > slots_.size() &&
        GrowTable(group_hashes_.size() + 1)) {
      rehashed = true;
    }
    const uint64_t h = hashes[row];
    size_t p = rehashed ? h & slot_mask_
                        : (gids[row] == kNoGroup ? pos[row] : pos[row] + 1) &
                              slot_mask_;
    while (true) {
      const uint32_t slot = slots_[p];
      if (slot == 0) {
        gids[row] = AddGroup(in, row, h);
        slots_[p] = gids[row] + 1;
        break;
      }
      if (group_hashes_[slot - 1] == h && KeyEquals(in, row, slot - 1)) {
        gids[row] = slot - 1;
        break;
      }
      p = (p + 1) & slot_mask_;
    }
  }
}

void AggregationState::Accumulate(const Batch& in) {
  const size_t n = in.num_rows();
  const size_t width = accs_.size();
  // Each accumulator's input as doubles; an int column converts once per
  // batch (the same static_cast the row loop would apply).
  std::vector<const double*> src(width);
  converted_.resize(width);
  for (size_t k = 0; k < width; ++k) {
    const ColumnVector& col = in.column(accs_[k].input_idx);
    if (col.type() != TypeId::kInt64) {
      src[k] = col.doubles_data();
      continue;
    }
    std::vector<double>& conv = converted_[k];
    conv.resize(n);
    const int64_t* v = col.ints_data();
    for (size_t i = 0; i < n; ++i) conv[i] = static_cast<double>(v[i]);
    src[k] = conv.data();
  }

  // One pass over the rows updates the count and every accumulator of
  // the row's group; each group still sees its rows in row order.
  const uint32_t* gids = gids_.data();
  int64_t* counts = counts_.data();
  double* acc = acc_.data();
  const double* const* in_cols = src.data();
  const size_t sums = num_sums_;
  const size_t mins_end = num_sums_ + num_mins_;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t gid = gids[i];
    ++counts[gid];
    double* a = acc + static_cast<size_t>(gid) * width;
    for (size_t k = 0; k < sums; ++k) a[k] += in_cols[k][i];
    for (size_t k = sums; k < mins_end; ++k) {
      const double v = in_cols[k][i];
      if (v < a[k]) a[k] = v;
    }
    for (size_t k = mins_end; k < width; ++k) {
      const double v = in_cols[k][i];
      if (v > a[k]) a[k] = v;
    }
  }
}

Status AggregationState::Absorb(const Batch& in) {
  if (!key_cols_init_) {
    key_cols_.resize(group_by_.size());
    for (size_t c = 0; c < group_by_.size(); ++c) {
      key_cols_[c].type = in.column(group_by_[c]).type();
    }
    key_cols_init_ = true;
  }
  const size_t n = in.num_rows();
  hashes_.assign(n, kHashSeed);
  for (size_t c : group_by_) {
    in.column(c).HashColumn(hashes_.data());
  }
  gids_.resize(n);
  probe_pos_.resize(n);
  sel_.resize(n);

  // Pre-size the slot table from the carried estimate (see header) with
  // 25% headroom, capped at the worst case of n all-new groups, so
  // doubling/rehash churn moves out of the per-row path on
  // high-cardinality inputs. The per-group arrays are left to push_back's
  // geometric growth: an exact reserve here would reallocate them on
  // every batch.
  size_t est_new =
      prev_batch_new_groups_ == static_cast<size_t>(-1)
          ? n
          : prev_batch_new_groups_ + prev_batch_new_groups_ / 4 + 8;
  est_new = std::min(est_new, n);
  const size_t groups_before = group_hashes_.size();
  GrowTable(groups_before + est_new);

  AssignGroups(in);
  prev_batch_new_groups_ = group_hashes_.size() - groups_before;
  Accumulate(in);
  return Status::OK();
}

Status AggregationState::MergeFrom(const AggregationState& other) {
  const size_t other_groups = other.group_hashes_.size();
  if (other_groups == 0) return Status::OK();
  if (!key_cols_init_) {
    key_cols_.resize(group_by_.size());
    for (size_t c = 0; c < group_by_.size(); ++c) {
      key_cols_[c].type = other.key_cols_[c].type;
    }
    key_cols_init_ = true;
  }
  // The other table's string ids, interned into this table's pools.
  std::vector<std::vector<uint32_t>> sid_map(group_by_.size());
  for (size_t c = 0; c < group_by_.size(); ++c) {
    const StringPool& from = other.key_cols_[c].pool;
    for (uint32_t id = 0; id < from.size(); ++id) {
      sid_map[c].push_back(
          key_cols_[c].pool.Intern(from.value(id), from.hash(id)));
    }
  }
  auto keys_equal = [&](uint32_t gid, uint32_t g) {
    for (size_t c = 0; c < group_by_.size(); ++c) {
      const KeyColumn& key = key_cols_[c];
      const KeyColumn& okey = other.key_cols_[c];
      bool equal = false;
      switch (key.type) {
        case TypeId::kInt64:
          equal = key.ints[gid] == okey.ints[g];
          break;
        case TypeId::kDouble:
          equal = DoubleKeysEqual(key.doubles[gid], okey.doubles[g]);
          break;
        case TypeId::kString:
          equal = key.sids[gid] == sid_map[c][okey.sids[g]];
          break;
      }
      if (!equal) return false;
    }
    return true;
  };

  GrowTable(group_hashes_.size() + other_groups);
  const size_t width = accs_.size();
  for (uint32_t g = 0; g < other_groups; ++g) {
    const uint64_t h = other.group_hashes_[g];
    size_t pos = h & slot_mask_;
    uint32_t gid;
    while (true) {
      const uint32_t slot = slots_[pos];
      if (slot == 0) {
        gid = static_cast<uint32_t>(group_hashes_.size());
        slots_[pos] = gid + 1;
        group_hashes_.push_back(h);
        for (size_t c = 0; c < group_by_.size(); ++c) {
          KeyColumn& key = key_cols_[c];
          const KeyColumn& okey = other.key_cols_[c];
          switch (key.type) {
            case TypeId::kInt64:
              key.ints.push_back(okey.ints[g]);
              break;
            case TypeId::kDouble:
              key.doubles.push_back(okey.doubles[g]);
              break;
            case TypeId::kString:
              key.sids.push_back(sid_map[c][okey.sids[g]]);
              break;
          }
        }
        InitGroup();
        break;
      }
      gid = slot - 1;
      if (group_hashes_[gid] == h && keys_equal(gid, g)) break;
      pos = (pos + 1) & slot_mask_;
    }
    counts_[gid] += other.counts_[g];
    double* a = &acc_[static_cast<size_t>(gid) * width];
    const double* b = &other.acc_[static_cast<size_t>(g) * width];
    for (size_t k = 0; k < width; ++k) {
      switch (accs_[k].op) {
        case AggKind::kMin:
          a[k] = std::min(a[k], b[k]);
          break;
        case AggKind::kMax:
          a[k] = std::max(a[k], b[k]);
          break;
        default:
          a[k] += b[k];
          break;
      }
    }
  }
  return Status::OK();
}

Batch AggregationState::TakeResult() {
  // Assemble the result batch: key columns (already in first-appearance
  // order) then aggregates.
  const size_t num_groups = group_hashes_.size();
  const size_t width = accs_.size();
  Batch result;
  std::vector<ColumnId> ids;
  for (size_t c = 0; c < group_by_.size(); ++c) {
    ids.push_back(static_cast<ColumnId>(c));
    if (!key_cols_init_) {
      result.columns().emplace_back();
      continue;
    }
    KeyColumn& key = key_cols_[c];
    ColumnVector col(key.type);
    switch (key.type) {
      case TypeId::kInt64:
        col.ints() = std::move(key.ints);
        break;
      case TypeId::kDouble:
        col.doubles() = std::move(key.doubles);
        break;
      case TypeId::kString: {
        std::vector<std::string>& s = col.strings();
        s.reserve(num_groups);
        for (uint32_t sid : key.sids) s.push_back(key.pool.value(sid));
        break;
      }
    }
    result.columns().push_back(std::move(col));
  }
  for (size_t a = 0; a < aggs_.size(); ++a) {
    ids.push_back(static_cast<ColumnId>(group_by_.size() + a));
    const AggKind kind = aggs_[a].kind;
    ColumnVector col(kind == AggKind::kCount ? TypeId::kInt64
                                             : TypeId::kDouble);
    if (kind == AggKind::kCount) {
      col.ints().assign(counts_.begin(), counts_.end());
    } else {
      const size_t k = agg_acc_[a];
      std::vector<double>& out = col.doubles();
      out.resize(num_groups);
      for (size_t g = 0; g < num_groups; ++g) {
        const double v = acc_[g * width + k];
        if (kind == AggKind::kAvg) {
          out[g] = counts_[g] > 0 ? v / static_cast<double>(counts_[g]) : 0.0;
        } else {
          out[g] = v;
        }
      }
    }
    // Global aggregation with zero input rows: emit a single all-zero row.
    if (num_groups == 0 && group_by_.empty()) {
      if (kind == AggKind::kCount) {
        col.ints().push_back(0);
      } else {
        col.doubles().push_back(0.0);
      }
    }
    result.columns().push_back(std::move(col));
  }
  result.set_column_ids(std::move(ids));
  // Release aggregation state.
  key_cols_.clear();
  key_cols_init_ = false;
  group_hashes_.clear();
  slots_.clear();
  counts_.clear();
  acc_.clear();
  return result;
}

Status HashAggNode::BuildResult() {
  // A fresh state per build so a retried Next() after an input error
  // restarts cleanly instead of aggregating into stale groups.
  AggregationState state(group_by_, aggs_);
  Batch in;
  while (true) {
    PDT_ASSIGN_OR_RETURN(bool more, input_->Next(&in, kDefaultBatchSize));
    if (!more) break;
    PDT_RETURN_NOT_OK(state.Absorb(in));
  }
  emitter_ = std::make_unique<VectorSource>(state.TakeResult());
  built_ = true;
  return Status::OK();
}

StatusOr<bool> HashAggNode::Next(Batch* out, size_t max_rows) {
  if (!built_) {
    PDT_RETURN_NOT_OK(BuildResult());
  }
  return emitter_->Next(out, max_rows);
}

}  // namespace pdtstore
