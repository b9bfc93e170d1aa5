#include "exec/hash_agg.h"

#include <algorithm>
#include <limits>

#include "exec/operator.h"

namespace pdtstore {

namespace {

constexpr size_t kInitialSlots = 1024;  // power of two

double InitAcc(AggKind kind) {
  switch (kind) {
    case AggKind::kMin:
      return std::numeric_limits<double>::infinity();
    case AggKind::kMax:
      return -std::numeric_limits<double>::infinity();
    default:
      return 0.0;
  }
}

}  // namespace

AggregationState::AggregationState(std::vector<size_t> group_by,
                                   std::vector<AggSpec> aggs)
    : group_by_(std::move(group_by)), aggs_(std::move(aggs)) {
  acc_.resize(aggs_.size());
  GrowTable(0);
}

void AggregationState::GrowTable(size_t min_groups) {
  // Power-of-two capacity keeping the table at most half full once
  // `min_groups` groups exist.
  size_t cap = std::max(kInitialSlots, slots_.size());
  while (cap < 2 * (min_groups + 1)) cap *= 2;
  if (cap == slots_.size()) return;
  slots_.assign(cap, 0);
  slot_mask_ = cap - 1;
  for (uint32_t gid = 0; gid < group_hashes_.size(); ++gid) {
    size_t pos = group_hashes_[gid] & slot_mask_;
    while (slots_[pos] != 0) pos = (pos + 1) & slot_mask_;
    slots_[pos] = gid + 1;
  }
}

void AggregationState::AssignGroups(const Batch& in, const uint64_t* hashes,
                                    uint32_t* gids) {
  const size_t n = in.num_rows();
  for (size_t row = 0; row < n; ++row) {
    // Safety net when the pre-sizing estimate under-predicted: keep the
    // table at most half full so probe chains stay short.
    if ((group_hashes_.size() + 1) * 2 > slots_.size()) {
      GrowTable(group_hashes_.size() + 1);
    }
    const uint64_t h = hashes[row];
    size_t pos = h & slot_mask_;
    uint32_t gid;
    while (true) {
      uint32_t slot = slots_[pos];
      if (slot == 0) {
        // New group: materialize its key values and init accumulators.
        gid = static_cast<uint32_t>(group_hashes_.size());
        slots_[pos] = gid + 1;
        group_hashes_.push_back(h);
        for (size_t c = 0; c < group_by_.size(); ++c) {
          key_cols_[c].AppendFrom(in.column(group_by_[c]), row);
        }
        counts_.push_back(0);
        for (size_t a = 0; a < aggs_.size(); ++a) {
          acc_[a].push_back(InitAcc(aggs_[a].kind));
        }
        break;
      }
      gid = slot - 1;
      if (group_hashes_[gid] == h) {
        // Verify on collision: typed compare against the stored key.
        bool equal = true;
        for (size_t c = 0; c < group_by_.size(); ++c) {
          if (key_cols_[c].CompareAt(gid, in.column(group_by_[c]), row) !=
              0) {
            equal = false;
            break;
          }
        }
        if (equal) break;
      }
      pos = (pos + 1) & slot_mask_;
    }
    gids[row] = gid;
    ++counts_[gid];
  }
}

Status AggregationState::Absorb(const Batch& in) {
  if (!key_cols_init_) {
    for (size_t c : group_by_) {
      key_cols_.emplace_back(in.column(c).type());
    }
    key_cols_init_ = true;
  }
  const size_t n = in.num_rows();
  hashes_.assign(n, kHashSeed);
  for (size_t c : group_by_) {
    in.column(c).HashColumn(hashes_.data());
  }
  gids_.resize(n);

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

  AssignGroups(in, hashes_.data(), gids_.data());
  prev_batch_new_groups_ = group_hashes_.size() - groups_before;

  // One typed pass per aggregate (type and kind dispatched per batch,
  // not per row).
  const uint32_t* gids = gids_.data();
  for (size_t a = 0; a < aggs_.size(); ++a) {
    const AggKind kind = aggs_[a].kind;
    if (kind == AggKind::kCount) continue;
    double* acc = acc_[a].data();
    const ColumnVector& col = in.column(aggs_[a].input_idx);
    auto update = [&](auto value_at) {
      switch (kind) {
        case AggKind::kSum:
        case AggKind::kAvg:
          for (size_t i = 0; i < n; ++i) acc[gids[i]] += value_at(i);
          break;
        case AggKind::kMin:
          for (size_t i = 0; i < n; ++i) {
            double v = value_at(i);
            if (v < acc[gids[i]]) acc[gids[i]] = v;
          }
          break;
        case AggKind::kMax:
          for (size_t i = 0; i < n; ++i) {
            double v = value_at(i);
            if (v > acc[gids[i]]) acc[gids[i]] = v;
          }
          break;
        case AggKind::kCount:
          break;
      }
    };
    if (col.type() == TypeId::kInt64) {
      const int64_t* v = col.ints_data();
      update([v](size_t i) { return static_cast<double>(v[i]); });
    } else {
      const double* v = col.doubles_data();
      update([v](size_t i) { return v[i]; });
    }
  }
  return Status::OK();
}

Status AggregationState::MergeFrom(const AggregationState& other) {
  const size_t other_groups = other.group_hashes_.size();
  if (other_groups == 0) return Status::OK();
  if (!key_cols_init_) {
    for (size_t c = 0; c < group_by_.size(); ++c) {
      key_cols_.emplace_back(other.key_cols_[c].type());
    }
    key_cols_init_ = true;
  }
  GrowTable(group_hashes_.size() + other_groups);
  group_hashes_.reserve(group_hashes_.size() + other_groups);
  counts_.reserve(counts_.size() + other_groups);
  for (auto& a : acc_) a.reserve(a.size() + other_groups);

  for (uint32_t g = 0; g < other_groups; ++g) {
    const uint64_t h = other.group_hashes_[g];
    size_t pos = h & slot_mask_;
    uint32_t gid;
    while (true) {
      uint32_t slot = slots_[pos];
      if (slot == 0) {
        gid = static_cast<uint32_t>(group_hashes_.size());
        slots_[pos] = gid + 1;
        group_hashes_.push_back(h);
        for (size_t c = 0; c < group_by_.size(); ++c) {
          key_cols_[c].AppendFrom(other.key_cols_[c], g);
        }
        counts_.push_back(0);
        for (size_t a = 0; a < aggs_.size(); ++a) {
          acc_[a].push_back(InitAcc(aggs_[a].kind));
        }
        break;
      }
      gid = slot - 1;
      if (group_hashes_[gid] == h) {
        bool equal = true;
        for (size_t c = 0; c < group_by_.size(); ++c) {
          if (key_cols_[c].CompareAt(gid, other.key_cols_[c], g) != 0) {
            equal = false;
            break;
          }
        }
        if (equal) break;
      }
      pos = (pos + 1) & slot_mask_;
    }
    counts_[gid] += other.counts_[g];
    for (size_t a = 0; a < aggs_.size(); ++a) {
      switch (aggs_[a].kind) {
        case AggKind::kSum:
        case AggKind::kAvg:
          acc_[a][gid] += other.acc_[a][g];
          break;
        case AggKind::kMin:
          acc_[a][gid] = std::min(acc_[a][gid], other.acc_[a][g]);
          break;
        case AggKind::kMax:
          acc_[a][gid] = std::max(acc_[a][gid], other.acc_[a][g]);
          break;
        case AggKind::kCount:
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
  Batch result;
  std::vector<ColumnId> ids;
  for (size_t c = 0; c < group_by_.size(); ++c) {
    ids.push_back(static_cast<ColumnId>(c));
    result.columns().push_back(key_cols_init_ ? std::move(key_cols_[c])
                                              : ColumnVector());
  }
  for (size_t a = 0; a < aggs_.size(); ++a) {
    ids.push_back(static_cast<ColumnId>(group_by_.size() + a));
    ColumnVector col(aggs_[a].kind == AggKind::kCount ? TypeId::kInt64
                                                      : TypeId::kDouble);
    switch (aggs_[a].kind) {
      case AggKind::kCount:
        col.ints().assign(counts_.begin(), counts_.end());
        break;
      case AggKind::kAvg:
        col.doubles().resize(num_groups);
        for (size_t g = 0; g < num_groups; ++g) {
          col.doubles()[g] =
              counts_[g] > 0
                  ? acc_[a][g] / static_cast<double>(counts_[g])
                  : 0.0;
        }
        break;
      default:
        col.doubles() = std::move(acc_[a]);
        break;
    }
    // Global aggregation with zero input rows: emit a single all-zero row.
    if (num_groups == 0 && group_by_.empty()) {
      if (aggs_[a].kind == AggKind::kCount) {
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
