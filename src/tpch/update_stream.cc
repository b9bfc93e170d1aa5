#include "tpch/update_stream.h"

#include <algorithm>

namespace pdtstore {
namespace tpch {

namespace {
// Mirrors the generator's key-space walk: enumerates the i-th *used* key
// (for delete sampling) and the i-th *hole* key (for refresh inserts).
struct KeySpace {
  int keys_per_32;
  int64_t order_count;

  explicit KeySpace(const GenOptions& gen)
      : keys_per_32(std::clamp(
            static_cast<int>(32 * (1.0 - gen.hole_fraction)), 1, 32)),
        order_count(OrderCountFor(gen)) {}

  // i-th used key, i in [0, order_count).
  int64_t UsedKey(int64_t i) const {
    // Block 0 contributes keys 1..keys_per_32-1 (key 0 does not exist).
    int64_t first_block = keys_per_32 - 1;
    if (i < first_block) return i + 1;
    i -= first_block;
    int64_t block = 1 + i / keys_per_32;
    return block * 32 + (i % keys_per_32);
  }

  // i-th hole key (strictly above-pattern keys within the used range).
  int64_t HoleKey(int64_t i) const {
    int64_t holes_per_32 = 32 - keys_per_32;
    if (holes_per_32 == 0) {
      // No holes configured: fall back to keys beyond the used range.
      return UsedKey(order_count - 1) + 1 + i;
    }
    int64_t block = i / holes_per_32;
    return block * 32 + keys_per_32 + (i % holes_per_32);
  }
};

GeneratedOrder Regenerate(const GenOptions& gen, int64_t key) {
  Random rng(gen.seed * 0x9e3779b97f4a7c15ULL + key);
  return MakeOrder(key, &rng, gen.scale_factor);
}
}  // namespace

StatusOr<std::vector<UpdateStream>> MakeUpdateStreams(const GenOptions& gen,
                                                      int num_streams,
                                                      double fraction) {
  if (num_streams <= 0 || fraction <= 0.0 || fraction >= 1.0) {
    return Status::InvalidArgument("bad update stream parameters");
  }
  KeySpace ks(gen);
  int64_t per_stream =
      std::max<int64_t>(1, static_cast<int64_t>(
                               static_cast<double>(ks.order_count) *
                               fraction));
  // Deletes walk the used keys with a fixed stride; the streams'
  // documented disjointness requires the whole walk to fit in the key
  // space. With stride = floor(order_count / total_deletes) >= 1, the
  // last index (total_deletes - 1) * stride is < order_count, so every
  // delete key is distinct — no clamping (which would silently alias
  // the tail keys across streams and shrink the delete load).
  int64_t total_deletes = per_stream * num_streams;
  if (total_deletes > ks.order_count) {
    return Status::InvalidArgument(
        "update streams cannot be disjoint: requested " +
        std::to_string(total_deletes) + " delete keys but only " +
        std::to_string(ks.order_count) + " orders exist");
  }
  std::vector<UpdateStream> streams(num_streams);
  // Inserts: consecutive hole keys, partitioned across streams.
  int64_t hole_idx = 0;
  for (int s = 0; s < num_streams; ++s) {
    streams[s].inserts.reserve(per_stream);
    for (int64_t i = 0; i < per_stream; ++i) {
      streams[s].inserts.push_back(Regenerate(gen, ks.HoleKey(hole_idx++)));
    }
  }
  // Deletes: evenly spread, disjoint across streams.
  int64_t stride = ks.order_count / total_deletes;
  int64_t g = 0;
  for (int s = 0; s < num_streams; ++s) {
    streams[s].deletes.reserve(per_stream);
    for (int64_t i = 0; i < per_stream; ++i, ++g) {
      streams[s].deletes.push_back(Regenerate(gen, ks.UsedKey(g * stride)));
    }
  }
  return streams;
}

Status ApplyUpdateStream(const UpdateStream& stream, TpchTables* tables) {
  for (const GeneratedOrder& o : stream.inserts) {
    PDT_RETURN_NOT_OK(tables->orders->Insert(o.order));
    for (const Tuple& l : o.lineitems) {
      PDT_RETURN_NOT_OK(tables->lineitem->Insert(l));
    }
  }
  for (const GeneratedOrder& o : stream.deletes) {
    Status st = tables->orders->DeleteByKey(
        {o.order[kOOrderdate], o.order[kOOrderkey]});
    if (st.code() == StatusCode::kNotFound) continue;  // already deleted
    PDT_RETURN_NOT_OK(st);
    for (const Tuple& l : o.lineitems) {
      PDT_RETURN_NOT_OK(tables->lineitem->DeleteByKey(
          {l[kLOrderkey], l[kLLinenumber]}));
    }
  }
  return Status::OK();
}

Status ApplyUpdateStreamTxn(const UpdateStream& stream, TxnManager* orders,
                            TxnManager* lineitem, size_t orders_per_txn) {
  if (orders_per_txn == 0) orders_per_txn = 1;
  // Walk inserts then deletes in groups; each group is one transaction
  // per table (two commits riding the same group-commit fsync when the
  // managers share a WAL).
  auto commit_group = [&](size_t begin, size_t end,
                          bool inserts) -> Status {
    auto otxn = orders->Begin();
    auto ltxn = lineitem->Begin();
    // Any mid-build error must resolve BOTH transactions before it
    // propagates; neither is published yet, so Abort suffices.
    auto fail = [&](Status st) -> Status {
      otxn->Abort();
      ltxn->Abort();
      return st;
    };
    for (size_t i = begin; i < end; ++i) {
      const GeneratedOrder& o =
          inserts ? stream.inserts[i] : stream.deletes[i];
      if (inserts) {
        if (Status st = otxn->Insert(o.order); !st.ok()) return fail(st);
        for (const Tuple& l : o.lineitems) {
          if (Status st = ltxn->Insert(l); !st.ok()) return fail(st);
        }
      } else {
        Status st = otxn->DeleteByKey(
            {o.order[kOOrderdate], o.order[kOOrderkey]});
        if (st.code() == StatusCode::kNotFound) continue;  // already gone
        if (!st.ok()) return fail(st);
        for (const Tuple& l : o.lineitems) {
          if (Status lst = ltxn->DeleteByKey({l[kLOrderkey],
                                              l[kLLinenumber]});
              !lst.ok()) {
            return fail(lst);
          }
        }
      }
    }
    // Publish both, then await BOTH verdicts before propagating any
    // failure: returning on the first error would abandon the other
    // published record in its manager's commit FIFO with no waiter (its
    // transaction would only be aborted by its destructor, mis-ordering
    // the resolution and the error report).
    if (Status st = otxn->Publish(); !st.ok()) return fail(st);
    if (Status st = ltxn->Publish(); !st.ok()) {
      otxn->Abort();  // withdraws the published record
      ltxn->Abort();
      return st;
    }
    Status ost = otxn->AwaitCommit();
    Status lst = ltxn->AwaitCommit();
    if (!ost.ok()) return ost;
    return lst;
  };
  for (size_t i = 0; i < stream.inserts.size(); i += orders_per_txn) {
    PDT_RETURN_NOT_OK(commit_group(
        i, std::min(i + orders_per_txn, stream.inserts.size()), true));
  }
  for (size_t i = 0; i < stream.deletes.size(); i += orders_per_txn) {
    PDT_RETURN_NOT_OK(commit_group(
        i, std::min(i + orders_per_txn, stream.deletes.size()), false));
  }
  return Status::OK();
}

std::vector<RefreshGroup> PlanRefreshGroups(const UpdateStream& stream,
                                            size_t orders_per_txn) {
  if (orders_per_txn == 0) orders_per_txn = 1;
  std::vector<RefreshGroup> groups;
  for (size_t i = 0; i < stream.inserts.size(); i += orders_per_txn) {
    groups.push_back(RefreshGroup{
        i, std::min(i + orders_per_txn, stream.inserts.size()), true});
  }
  for (size_t i = 0; i < stream.deletes.size(); i += orders_per_txn) {
    groups.push_back(RefreshGroup{
        i, std::min(i + orders_per_txn, stream.deletes.size()), false});
  }
  return groups;
}

Status ApplyRefreshGroupMultiTxn(const UpdateStream& stream,
                                 const RefreshGroup& group,
                                 MultiTxnManager* mgr,
                                 const MultiTxnApplyOptions& opts,
                                 MultiTxnApplyStats* stats) {
  const int attempts = std::max(1, opts.max_conflict_retries + 1);
  Status last = Status::OK();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    auto txn = mgr->Begin();
    uint64_t inserted = 0;
    uint64_t deleted = 0;
    for (size_t i = group.begin; i < group.end; ++i) {
      const GeneratedOrder& o =
          group.inserts ? stream.inserts[i] : stream.deletes[i];
      if (group.inserts) {
        if (Status st = txn->Insert(opts.orders_table, o.order); !st.ok()) {
          txn->Abort();
          return st;
        }
        for (const Tuple& l : o.lineitems) {
          if (Status st = txn->Insert(opts.lineitem_table, l); !st.ok()) {
            txn->Abort();
            return st;
          }
        }
        inserted += 1 + o.lineitems.size();
      } else {
        Status st = txn->DeleteByKey(
            opts.orders_table,
            {o.order[kOOrderdate], o.order[kOOrderkey]});
        if (st.code() == StatusCode::kNotFound) continue;  // already gone
        if (!st.ok()) {
          txn->Abort();
          return st;
        }
        for (const Tuple& l : o.lineitems) {
          if (Status lst = txn->DeleteByKey(
                  opts.lineitem_table, {l[kLOrderkey], l[kLLinenumber]});
              !lst.ok()) {
            txn->Abort();
            return lst;
          }
        }
        deleted += 1 + o.lineitems.size();
      }
    }
    if (inserted == 0 && deleted == 0) {
      // Every delete of the group was already applied (a retried or
      // overlapping stream got there first): nothing to commit.
      txn->Abort();
      return Status::OK();
    }
    if (Status st = txn->Publish(); !st.ok()) {
      txn->Abort();
      return st;
    }
    Status st = txn->AwaitCommit();
    if (st.ok()) {
      if (stats != nullptr) {
        ++stats->groups_committed;
        stats->rows_inserted += inserted;
        stats->rows_deleted += deleted;
      }
      return Status::OK();
    }
    if (st.code() != StatusCode::kConflict) return st;
    // Lost a write-write race: rebuild the group from a fresh snapshot
    // (deletes that landed meanwhile turn into NotFound skips).
    last = st;
    if (stats != nullptr) ++stats->conflict_retries;
  }
  return last;
}

}  // namespace tpch
}  // namespace pdtstore
