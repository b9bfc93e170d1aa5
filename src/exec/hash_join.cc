#include "exec/hash_join.h"

#include <algorithm>

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

namespace {

// Keeps, in order, the pairs [0, m) whose keys pass `eq(probe_row,
// build_row)`; returns how many remain.
template <typename Eq>
size_t KeepEqualPairs(uint32_t* rows, uint32_t* builds, size_t m, Eq eq) {
  size_t kept = 0;
  for (size_t j = 0; j < m; ++j) {
    const uint32_t row = rows[j];
    const uint32_t b = builds[j];
    rows[kept] = row;
    builds[kept] = b;
    kept += eq(row, b) ? 1 : 0;
  }
  return kept;
}

// The typed verify kernel of one key column: keeps the pairs whose probe
// key equals their build key, as CompareAt sees it.
size_t VerifyKey(const ColumnVector& probe, const ColumnVector& build,
                 uint32_t* rows, uint32_t* builds, size_t m) {
  switch (probe.type()) {
    case TypeId::kInt64: {
      const int64_t* p = probe.ints_data();
      const int64_t* b = build.ints_data();
      return KeepEqualPairs(rows, builds, m, [&](uint32_t row, uint32_t br) {
        return p[row] == b[br];
      });
    }
    case TypeId::kDouble: {
      const double* p = probe.doubles_data();
      const double* b = build.doubles_data();
      return KeepEqualPairs(rows, builds, m, [&](uint32_t row, uint32_t br) {
        return DoubleKeysEqual(p[row], b[br]);
      });
    }
    case TypeId::kString:
      return KeepEqualPairs(rows, builds, m, [&](uint32_t row, uint32_t br) {
        return build.CompareAt(br, probe, row) == 0;
      });
  }
  return m;
}

// Probes rows[0, count) of `in` (rows 0..count-1 when `rows` is null;
// otherwise s->part_pos maps each routed row back to its index in
// `rows`) against one partition, one pass over the live rows at a time.
// Every live row stands at one link of its chain; each round compares full
// hashes, verifies keys, emits the matches and advances every row one
// link. Inner matches are appended to s->probe_sel / s->build_sel
// (partition-local build rows) in (probe row, build row) order; semi/anti
// mark s->matched and drop a row at its first match.
void ProbePartition(const JoinTable& part,
                    const std::vector<size_t>& probe_keys, bool inner,
                    const Batch& in, const uint32_t* rows, size_t count,
                    JoinProbeScratch* s) {
  const uint64_t* hashes = s->hashes.data();
  uint32_t* cand_rows = s->cand_rows.data();
  uint32_t* cand_links = s->cand_links.data();
  uint32_t* pair_rows = s->pair_rows.data();
  uint32_t* pair_builds = s->pair_builds.data();
  uint8_t* matched = s->matched.data();

  // Bucket heads: rows whose bucket is empty drop out here.
  size_t m = 0;
  {
    const uint32_t* heads = part.heads.data();
    const uint64_t mask = part.heads.size() - 1;
    for (size_t i = 0; i < count; ++i) {
      const uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
      const uint32_t link = heads[hashes[row] & mask];
      cand_rows[m] = row;
      cand_links[m] = link;
      m += link != 0 ? 1 : 0;
    }
  }

  const size_t base = s->probe_sel.size();
  size_t rounds_matched = 0;
  while (m > 0) {
    // Full-hash compare: only pairs with an equal hash are verified.
    size_t k = 0;
    const uint64_t* build_hashes = part.hashes.data();
    for (size_t j = 0; j < m; ++j) {
      const uint32_t row = cand_rows[j];
      const uint32_t b = cand_links[j] - 1;
      pair_rows[k] = row;
      pair_builds[k] = b;
      k += build_hashes[b] == hashes[row] ? 1 : 0;
    }
    for (size_t c = 0; c < probe_keys.size() && k > 0; ++c) {
      k = VerifyKey(in.column(probe_keys[c]),
                    part.rows.column(part.key_cols[c]), pair_rows,
                    pair_builds, k);
    }
    if (k > 0) {
      ++rounds_matched;
      if (inner) {
        std::vector<uint32_t>& ps = s->probe_sel.indices();
        std::vector<uint32_t>& bs = s->build_sel.indices();
        ps.insert(ps.end(), pair_rows, pair_rows + k);
        bs.insert(bs.end(), pair_builds, pair_builds + k);
      } else {
        for (size_t j = 0; j < k; ++j) matched[pair_rows[j]] = 1;
      }
    }
    // Advance one link; a semi/anti row leaves at its first match.
    const uint32_t* next = part.next.data();
    size_t live = 0;
    for (size_t j = 0; j < m; ++j) {
      const uint32_t row = cand_rows[j];
      const uint32_t link = next[cand_links[j] - 1];
      cand_rows[live] = row;
      cand_links[live] = link;
      live += (link != 0) & (matched[row] == 0) ? 1 : 0;
    }
    m = live;
  }

  // Matches came out by chain depth. A row's matches are in build order
  // across rounds, so one stable counting pass by probe row restores
  // (probe row, build row) order; one matching round is already in it.
  // The pass counts by a row's index among the `count` routed rows
  // (rows[] ascends), so a partition pays for its rows, not the batch.
  if (!inner || rounds_matched < 2) return;
  std::vector<uint32_t>& ps = s->probe_sel.indices();
  std::vector<uint32_t>& bs = s->build_sel.indices();
  const size_t total = bs.size();
  const uint32_t* pos = rows ? s->part_pos.data() : nullptr;
  const auto index_of = [pos](uint32_t row) { return pos ? pos[row] : row; };
  std::vector<uint32_t>& slots = s->row_slots;
  slots.assign(count + 1, 0);
  for (size_t j = 0; j < total; ++j) ++slots[index_of(ps[base + j]) + 1];
  for (size_t r = 1; r < slots.size(); ++r) slots[r] += slots[r - 1];
  std::vector<uint32_t>& rows_out = s->reorder_rows;
  std::vector<uint32_t>& builds_out = s->reorder_builds;
  rows_out.resize(total);
  builds_out.resize(total);
  for (size_t j = 0; j < total; ++j) {
    const uint32_t row = ps[base + j];
    const uint32_t slot = slots[index_of(row)]++;
    rows_out[slot] = row;
    builds_out[slot] = bs[j];
  }
  std::copy(rows_out.begin(), rows_out.end(), ps.begin() + base);
  bs.swap(builds_out);
}

}  // namespace

void ProbeJoinBatch(const PartitionedJoinTable& table,
                    const std::vector<size_t>& probe_keys, JoinKind kind,
                    const Batch& in, Batch* out, JoinProbeScratch* scratch) {
  const size_t n = in.num_rows();
  // The build-column layout for the output proto: any partition that
  // carries columns (empty partitions of a partitioned build still do;
  // a fully empty serial build side materializes column-less, and the
  // inner output then has probe columns only).
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

  // One bulk hash pass per key column.
  scratch->hashes.assign(n, kHashSeed);
  for (size_t k : probe_keys) {
    in.column(k).HashColumn(scratch->hashes.data());
  }
  for (std::vector<uint32_t>* v :
       {&scratch->cand_rows, &scratch->cand_links, &scratch->pair_rows,
        &scratch->pair_builds}) {
    if (v->size() < n) v->resize(n);
  }
  scratch->matched.assign(n, 0);

  // Partitioned: route rows once, then probe each partition over its
  // rows. A single partition (every serial join) probes all rows.
  const bool partitioned = table.parts.size() > 1;
  if (partitioned) {
    scratch->part_rows.resize(table.parts.size());
    for (SelVector& pr : scratch->part_rows) pr.clear();
    if (scratch->part_pos.size() < n) scratch->part_pos.resize(n);
    for (size_t row = 0; row < n; ++row) {
      SelVector& pr =
          scratch->part_rows[table.PartitionOf(scratch->hashes[row])];
      scratch->part_pos[row] = static_cast<uint32_t>(pr.size());
      pr.push_back(static_cast<uint32_t>(row));
    }
  }
  const bool inner = kind == JoinKind::kInner;
  scratch->probe_sel.clear();
  for (size_t p = 0; p < table.parts.size(); ++p) {
    const JoinTable& part = table.parts[p];
    if (part.heads.empty()) continue;
    const uint32_t* rows =
        partitioned ? scratch->part_rows[p].data() : nullptr;
    const size_t count = partitioned ? scratch->part_rows[p].size() : n;
    scratch->build_sel.clear();
    const size_t probe_base = scratch->probe_sel.size();
    ProbePartition(part, probe_keys, inner, in, rows, count, scratch);
    // Build rows are partition-local: gather them per partition, so
    // partitioned output comes out grouped by partition (the parallel
    // pipelines deliver unordered anyway).
    if (!inner || scratch->probe_sel.size() == probe_base) continue;
    for (size_t c = 0; c < part.rows.num_columns(); ++c) {
      out->column(in.num_columns() + c)
          .AppendGather(part.rows.column(c), scratch->build_sel);
    }
  }

  if (inner) {
    for (size_t c = 0; c < in.num_columns(); ++c) {
      out->column(c).AppendGather(in.column(c), scratch->probe_sel);
    }
  } else {
    // Semi/anti: compact survivors column-wise through one expansion.
    // Each probe row is emitted at most once regardless of duplicate
    // build matches.
    const bool want = kind == JoinKind::kLeftSemi;
    const uint8_t* matched = scratch->matched.data();
    scratch->keep.Reset(n);
    scratch->keep.FillFrom(
        [&](size_t row) { return (matched[row] != 0) == want; });
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
