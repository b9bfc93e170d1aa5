#include "exec/hash_join.h"

#include "exec/operator.h"

namespace pdtstore {

JoinTable JoinTable::Build(Batch build_rows, std::vector<size_t> keys) {
  // An exhausted build side materializes to a column-less batch; leave
  // the table empty rather than indexing its key columns.
  std::vector<uint64_t> hashes;
  const size_t n = build_rows.num_rows();
  if (n > 0) {
    hashes.assign(n, kHashSeed);
    for (size_t k : keys) {
      build_rows.column(k).HashColumn(hashes.data());
    }
  }
  return BuildWithHashes(std::move(build_rows), std::move(keys),
                         std::move(hashes));
}

JoinTable JoinTable::BuildWithHashes(Batch build_rows,
                                     std::vector<size_t> keys,
                                     std::vector<uint64_t> hashes) {
  JoinTable t;
  t.rows = std::move(build_rows);
  t.key_cols = std::move(keys);
  t.hashes = std::move(hashes);
  const size_t n = t.rows.num_rows();
  if (n > 0) {
    size_t num_buckets = 1;
    while (num_buckets < n) num_buckets *= 2;
    const uint64_t mask = num_buckets - 1;
    t.heads.assign(num_buckets, 0);
    t.next.resize(n);
    // Prepend in reverse row order, so every chain lists its rows in
    // build order.
    for (size_t row = n; row-- > 0;) {
      uint32_t& head = t.heads[t.hashes[row] & mask];
      t.next[row] = head;
      head = static_cast<uint32_t>(row + 1);
    }
  }
  return t;
}

size_t PartitionedJoinTable::TotalRows() const {
  size_t n = 0;
  for (const JoinTable& p : parts) n += p.rows.num_rows();
  return n;
}

bool JoinTable::KeysEqual(const std::vector<size_t>& probe_keys,
                          const Batch& probe, size_t probe_row,
                          size_t build_row) const {
  for (size_t k = 0; k < probe_keys.size(); ++k) {
    if (rows.column(key_cols[k])
            .CompareAt(build_row, probe.column(probe_keys[k]),
                       probe_row) != 0) {
      return false;
    }
  }
  return true;
}

void ProbeJoinBatch(const PartitionedJoinTable& table,
                    const std::vector<size_t>& probe_keys, JoinKind kind,
                    const Batch& in, Batch* out, JoinProbeScratch* scratch) {
  const size_t n = in.num_rows();
  // The build-column layout for the output proto: any partition that
  // carries columns (empty partitions of a partitioned build still do;
  // a fully empty serial build side materializes column-less, and the
  // inner output then has probe columns only, as before partitioning).
  const JoinTable* layout_part = &table.parts[0];
  for (const JoinTable& p : table.parts) {
    if (p.rows.num_columns() > 0) {
      layout_part = &p;
      break;
    }
  }
  if (!scratch->proto_init) {
    std::vector<ColumnId> ids;
    for (size_t c = 0; c < in.num_columns(); ++c) {
      ids.push_back(static_cast<ColumnId>(c));
      scratch->out_proto.columns().emplace_back(in.column(c).type());
    }
    if (kind == JoinKind::kInner) {
      for (size_t c = 0; c < layout_part->rows.num_columns(); ++c) {
        ids.push_back(static_cast<ColumnId>(in.num_columns() + c));
        scratch->out_proto.columns().emplace_back(
            layout_part->rows.column(c).type());
      }
    }
    scratch->out_proto.set_column_ids(std::move(ids));
    scratch->proto_init = true;
  }
  out->ResetLike(scratch->out_proto);

  // One bulk hash pass per key column, then per-row chain walks in the
  // row's hash partition.
  scratch->hashes.assign(n, kHashSeed);
  for (size_t k : probe_keys) {
    in.column(k).HashColumn(scratch->hashes.data());
  }

  if (kind == JoinKind::kInner) {
    if (table.parts.size() == 1) {
      // Single partition (every serial join): the pre-partitioned pass,
      // byte-identical output.
      const JoinTable& part = table.parts[0];
      scratch->probe_sel.clear();
      scratch->build_sel.clear();
      for (size_t row = 0; row < n; ++row) {
        part.ForEachMatch(scratch->hashes[row], probe_keys, in, row,
                          [&](uint32_t b) {
                            scratch->probe_sel.push_back(
                                static_cast<uint32_t>(row));
                            scratch->build_sel.push_back(b);
                            return true;
                          });
      }
      for (size_t c = 0; c < in.num_columns(); ++c) {
        out->column(c).AppendGather(in.column(c), scratch->probe_sel);
      }
      for (size_t c = 0; c < part.rows.num_columns(); ++c) {
        out->column(in.num_columns() + c)
            .AppendGather(part.rows.column(c), scratch->build_sel);
      }
    } else {
      // Partitioned: route rows once, then gather per partition so
      // build_sel indices stay partition-local. Output rows come out
      // grouped by partition (probe order within each group) — the
      // parallel pipelines deliver unordered anyway.
      scratch->part_rows.resize(table.parts.size());
      for (SelVector& pr : scratch->part_rows) pr.clear();
      for (size_t row = 0; row < n; ++row) {
        scratch->part_rows[table.PartitionOf(scratch->hashes[row])]
            .push_back(static_cast<uint32_t>(row));
      }
      scratch->probe_sel.clear();
      for (size_t p = 0; p < table.parts.size(); ++p) {
        const JoinTable& part = table.parts[p];
        if (part.heads.empty()) continue;
        scratch->build_sel.clear();
        const size_t probe_base = scratch->probe_sel.size();
        for (uint32_t row : scratch->part_rows[p].indices()) {
          part.ForEachMatch(scratch->hashes[row], probe_keys, in, row,
                            [&](uint32_t b) {
                              scratch->probe_sel.push_back(row);
                              scratch->build_sel.push_back(b);
                              return true;
                            });
        }
        if (scratch->probe_sel.size() == probe_base) continue;
        for (size_t c = 0; c < part.rows.num_columns(); ++c) {
          out->column(in.num_columns() + c)
              .AppendGather(part.rows.column(c), scratch->build_sel);
        }
      }
      for (size_t c = 0; c < in.num_columns(); ++c) {
        out->column(c).AppendGather(in.column(c), scratch->probe_sel);
      }
    }
  } else {
    // Semi/anti: mark matches in the keep bitmap, then compact
    // survivors column-wise through one expansion. Each probe row is
    // emitted at most once regardless of duplicate build matches.
    const bool want = kind == JoinKind::kLeftSemi;
    scratch->keep.Reset(n);
    for (size_t row = 0; row < n; ++row) {
      const uint64_t h = scratch->hashes[row];
      const JoinTable& part = table.parts[table.PartitionOf(h)];
      bool matched = false;
      part.ForEachMatch(h, probe_keys, in, row, [&](uint32_t) {
        matched = true;
        return false;
      });
      scratch->keep.SetTo(row, matched == want);
    }
    out->AppendFiltered(in, scratch->keep);
  }
}

// ---------------------------------------------------------------------
// JoinBuildHandle.
// ---------------------------------------------------------------------

JoinBuildHandle::JoinBuildHandle(std::unique_ptr<BatchSource> build_source,
                                 std::vector<size_t> build_keys) {
  // Shared-ptr capture: std::function requires copyability.
  std::shared_ptr<BatchSource> src = std::move(build_source);
  // Constructed on the query thread: capture its budget now; the drain
  // charges what each batch adds to the build rows. The lease lives on
  // the handle (lease_), so the charge spans the cached table's lifetime.
  lease_ = std::make_shared<BudgetLease>(CurrentBudget());
  producer_ = [src, lease = lease_, keys = std::move(build_keys)]()
      -> StatusOr<PartitionedJoinTable> {
    PDT_ASSIGN_OR_RETURN(Batch rows, MaterializeAll(src.get(),
                                                    kDefaultBatchSize,
                                                    lease.get()));
    PartitionedJoinTable t;
    t.parts.push_back(JoinTable::Build(std::move(rows), keys));
    return t;
  };
}

JoinBuildHandle::JoinBuildHandle(
    std::function<StatusOr<PartitionedJoinTable>()> producer)
    : producer_(std::move(producer)) {}

StatusOr<const PartitionedJoinTable*> JoinBuildHandle::Resolve() {
  if (!resolved_) {
    resolved_ = true;
    StatusOr<PartitionedJoinTable> table = producer_();
    producer_ = nullptr;  // release the build source / pipeline
    if (!table.ok()) {
      error_ = table.status();
    } else {
      table_ = std::move(*table);
    }
  }
  if (!error_.ok()) return error_;
  return &table_;
}

// ---------------------------------------------------------------------
// HashJoinNode.
// ---------------------------------------------------------------------

HashJoinNode::HashJoinNode(std::unique_ptr<BatchSource> probe,
                           std::unique_ptr<BatchSource> build,
                           std::vector<size_t> probe_keys,
                           std::vector<size_t> build_keys, JoinKind kind)
    : probe_(std::move(probe)),
      build_(std::make_shared<JoinBuildHandle>(std::move(build),
                                               std::move(build_keys))),
      probe_keys_(std::move(probe_keys)),
      kind_(kind) {}

HashJoinNode::HashJoinNode(std::unique_ptr<BatchSource> probe,
                           std::shared_ptr<JoinBuildHandle> build,
                           std::vector<size_t> probe_keys, JoinKind kind)
    : probe_(std::move(probe)),
      build_(std::move(build)),
      probe_keys_(std::move(probe_keys)),
      kind_(kind) {}

StatusOr<bool> HashJoinNode::Next(Batch* out, size_t max_rows) {
  if (table_ == nullptr) {
    PDT_ASSIGN_OR_RETURN(table_, build_->Resolve());
  }
  while (true) {
    PDT_ASSIGN_OR_RETURN(bool more, probe_->Next(&in_, max_rows));
    if (!more) return false;
    ProbeJoinBatch(*table_, probe_keys_, kind_, in_, out, &scratch_);
    if (out->num_rows() > 0) return true;
  }
}

}  // namespace pdtstore
