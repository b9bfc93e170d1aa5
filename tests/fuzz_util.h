// Differential fuzzing utilities: seeded generators for random tables,
// hostile PDT/VDT update workloads, multi-layer transaction stacks and
// random operator plans (filter / project / join / agg / sort /
// exchange). Every generated plan is executed twice from the same seed
// — once as the serial operator tree, once as a parallel pipeline at a
// given thread count — and the results compared: exact sequence where
// the engine promises it, multiset otherwise. All decisions derive from
// the seed alone, so a failing seed is a one-line repro.
#ifndef PDTSTORE_TESTS_FUZZ_UTIL_H_
#define PDTSTORE_TESTS_FUZZ_UTIL_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "db/table.h"
#include "exec/filter.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/pipeline.h"
#include "exec/project.h"
#include "exec/sort.h"
#include "txn/txn_manager.h"
#include "util/random.h"

namespace pdtstore {
namespace testutil {

/// Fuzz schema: int64 sort key + int64 / double / string payloads, so
/// every TypeId flows through every operator.
inline std::shared_ptr<const Schema> FuzzSchema() {
  auto s = Schema::Make({{"k", TypeId::kInt64},
                         {"v", TypeId::kInt64},
                         {"d", TypeId::kDouble},
                         {"s", TypeId::kString}},
                        {0});
  return std::make_shared<const Schema>(std::move(*s));
}

inline Tuple FuzzRow(int64_t key, Random* rng) {
  return {key, static_cast<int64_t>(rng->Uniform(1000)),
          static_cast<double>(rng->Uniform(1 << 20)) * 0.25,
          rng->NextString(1 + rng->Uniform(6))};
}

/// A randomly built, randomly updated table. Keys are spaced so inserts
/// land between stable rows; a fraction of iterations gets hostile
/// extras (long delete chains that empty whole morsels, modify churn on
/// one region) on top of the uniform mix. `chain_keys`, if given,
/// receives the inclusive key range the delete chain emptied (left
/// unbounded when the table got no chain).
inline std::unique_ptr<Table> MakeFuzzTable(Random* rng,
                                            DeltaBackend backend,
                                            uint64_t min_rows,
                                            uint64_t max_rows,
                                            bool encoded_exec = true,
                                            KeyBounds* chain_keys = nullptr) {
  const int64_t n =
      static_cast<int64_t>(min_rows + rng->Uniform(max_rows - min_rows + 1));
  TableOptions opts;
  opts.backend = backend;
  const size_t chunk_choices[] = {32, 64, 128, 256};
  opts.store.chunk_rows = chunk_choices[rng->Uniform(4)];
  // Compressed execution vs the decoded differential reference. The
  // flag is a caller decision, not an rng draw, so copying the Random
  // builds a byte-identical twin table in the other representation.
  opts.store.encoded_exec = encoded_exec;
  if (rng->Bernoulli(0.5)) {
    // Half the tables force a per-column encoding mix (unsupported
    // picks fall back to plain inside BuildChunkForced) so RLE run
    // sidecars and dictionary code paths fuzz even where the size
    // heuristics would choose differently.
    const Encoding choices[] = {Encoding::kPlain, Encoding::kRle,
                                Encoding::kDict, Encoding::kForBitPack};
    for (int c = 0; c < 4; ++c) {
      opts.store.forced_encodings.push_back(choices[rng->Uniform(4)]);
    }
  }
  auto table = std::make_unique<Table>("fuzz", FuzzSchema(), opts);
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (int64_t i = 0; i < n; ++i) rows.push_back(FuzzRow(i * 4, rng));
  if (!table->Load(rows).ok()) return nullptr;

  const int ops = static_cast<int>(rng->Uniform(4 * n / 10 + 1));
  for (int i = 0; i < ops; ++i) {
    const double d = rng->NextDouble();
    const int64_t key = static_cast<int64_t>(rng->Uniform(4 * n + 8));
    if (d < 0.4) {
      (void)table->Insert(FuzzRow(key, rng));
    } else if (d < 0.7) {
      (void)table->DeleteByKey({Value(key)});
    } else {
      const ColumnId col = 1 + static_cast<ColumnId>(rng->Uniform(3));
      Value v = col == 1 ? Value(static_cast<int64_t>(rng->Uniform(1000)))
                : col == 2
                    ? Value(static_cast<double>(rng->Uniform(1000)) * 0.5)
                    : Value(rng->NextString(1 + rng->Uniform(5)));
      (void)table->ModifyByKey({Value(key)}, col, v);
    }
  }
  if (backend == DeltaBackend::kPdt && rng->Bernoulli(0.35)) {
    // Hostile extras: a delete chain long enough to empty whole
    // morsels, then inserts into the ghost range and modify churn
    // around it (the pdt_stress patterns).
    const uint64_t cnt = table->RowCount();
    if (cnt > 40) {
      const Rid at = rng->Uniform(cnt / 2);
      const uint64_t chain = 20 + rng->Uniform(cnt / 2 - 20 + 1);
      auto first = table->GetMergedTuple(at);
      for (uint64_t i = 0; i < chain && table->RowCount() > 1; ++i) {
        (void)table->DeleteAt(at);
      }
      // The chain emptied every key from its first row up to the row
      // that now sits at `at`.
      auto next = table->GetMergedTuple(at);
      if (chain_keys != nullptr && first.ok() && next.ok()) {
        *chain_keys = KeyBounds{{(*first)[0]},
                                {Value((*next)[0].AsInt64() - 1)}};
      }
      for (int i = 0; i < 8; ++i) {
        (void)table->Insert(
            FuzzRow(static_cast<int64_t>(rng->Uniform(4 * n + 8)), rng));
        (void)table->ModifyAt(rng->Uniform(table->RowCount()), 1,
                              Value(static_cast<int64_t>(i)));
      }
    }
  }
  return table;
}

/// What one fuzz iteration scans: a bare table, or the table through an
/// open transaction atop committed ones (a 3-layer Read/Write/Trans
/// stack). Owns everything so scans stay valid for the iteration.
struct FuzzSource {
  std::unique_ptr<Table> table;
  KeyBounds chain_keys;  // keys the table's delete chain emptied, if any
  std::unique_ptr<TxnManager> mgr;      // set iff scanning through a txn
  std::unique_ptr<Transaction> txn;

  std::unique_ptr<BatchSource> Scan(const std::vector<ColumnId>& cols,
                                    const KeyBounds* bounds,
                                    const ScanOptions& so) const {
    return txn ? txn->Scan(cols, bounds, so) : table->Scan(cols, bounds, so);
  }
  MorselPlan PlanMorsels(const std::vector<ColumnId>& cols,
                         const KeyBounds* bounds,
                         const ScanOptions& so) const {
    return txn ? txn->PlanMorsels(cols, bounds, so)
               : table->PlanMorsels(cols, bounds, so);
  }
};

/// Builds the iteration's scan source: PDT (sometimes through a txn
/// stack) or VDT backend.
inline FuzzSource MakeFuzzSource(Random* rng, bool encoded_exec = true) {
  FuzzSource src;
  const double pick = rng->NextDouble();
  if (pick < 0.2) {
    src.table =
        MakeFuzzTable(rng, DeltaBackend::kVdt, 200, 700, encoded_exec);
    return src;
  }
  src.table = MakeFuzzTable(rng, DeltaBackend::kPdt, 200, 900, encoded_exec,
                            &src.chain_keys);
  if (pick < 0.55 && src.table != nullptr) {
    // Multi-layer stack: one committed transaction (propagated into the
    // Read/Write layers), then an open one whose Trans-PDT the scan
    // also merges.
    src.mgr = std::make_unique<TxnManager>(src.table.get());
    {
      auto setup = src.mgr->Begin();
      const int ops = 20 + static_cast<int>(rng->Uniform(60));
      for (int i = 0; i < ops; ++i) {
        const int64_t key = static_cast<int64_t>(rng->Uniform(4000));
        if (rng->Bernoulli(0.5)) {
          (void)setup->Insert(FuzzRow(key, rng));
        } else {
          (void)setup->DeleteByKey({Value(key)});
        }
      }
      (void)setup->Commit();
    }
    src.txn = src.mgr->Begin();
    const int ops = 10 + static_cast<int>(rng->Uniform(50));
    for (int i = 0; i < ops; ++i) {
      const int64_t key = static_cast<int64_t>(rng->Uniform(4000));
      if (rng->Bernoulli(0.5)) {
        (void)src.txn->Insert(FuzzRow(key, rng));
      } else {
        (void)src.txn->ModifyByKey(
            {Value(key)}, 1, Value(static_cast<int64_t>(rng->Uniform(99))));
      }
    }
  }
  return src;
}

// ---------------------------------------------------------------------
// Random plans.
// ---------------------------------------------------------------------

/// One random plan, decided entirely by `plan_seed`. Executing it with
/// threads == 1 builds the serial operator tree, threads > 1 the
/// parallel pipeline — same decisions either way.
struct FuzzPlanResult {
  std::vector<Tuple> rows;
  /// The engine promises the exact serial sequence (the deterministic
  /// sort); otherwise compare as multisets.
  bool exact = false;
  /// The plan's key bounds lie inside the range the source's delete
  /// chain emptied, where the lower layers emit no row.
  bool chain_bounded = false;
  Status status = Status::OK();
};

namespace fuzz_internal {

inline VecPredicate RandomPredicate(Random* rng) {
  switch (rng->Uniform(4)) {
    case 0: {
      const int64_t m = 2 + static_cast<int64_t>(rng->Uniform(5));
      return [m](const Batch& b, KeepBitmap* keep) {
        const int64_t* v = b.column(1).ints_data();
        keep->FillFrom([&](size_t i) { return v[i] % m == 0; });
      };
    }
    case 1: {
      const int64_t lo = static_cast<int64_t>(rng->Uniform(2000));
      return Int64Between(0, lo, lo + 1 + rng->UniformRange(0, 3000));
    }
    case 2: {
      const double hi = static_cast<double>(rng->Uniform(1 << 19));
      return DoubleInRange(2, 0.0, hi);
    }
    default: {
      const char c = static_cast<char>('a' + rng->Uniform(26));
      // Half the time through the dict-aware StringMatch helper (one
      // verdict per distinct entry on dictionary columns), half through
      // a raw per-row lambda over StringAt.
      if (rng->Bernoulli(0.5)) {
        return StringMatch(3, [c](const std::string& s) {
          return !s.empty() && s[0] <= c;
        });
      }
      return [c](const Batch& b, KeepBitmap* keep) {
        const ColumnVector& col = b.column(3);
        keep->FillFrom([&](size_t i) {
          const std::string& s = col.StringAt(i);
          return !s.empty() && s[0] <= c;
        });
      };
    }
  }
}

/// Projection to (k, v % m, d): fixed output layout so later stages can
/// rely on column types; drops the string column half the time the plan
/// uses it, exercising layout changes mid-pipeline.
inline std::vector<ColumnExpr> RandomProjection(Random* rng) {
  const int64_t m = 3 + static_cast<int64_t>(rng->Uniform(17));
  return {ColumnRef(0),
          [m](const Batch& b) {
            ColumnVector out(TypeId::kInt64);
            const size_t n = b.column(1).size();
            const int64_t* v = b.column(1).ints_data();
            auto& vals = out.ints();
            vals.resize(n);
            for (size_t i = 0; i < n; ++i) vals[i] = v[i] % m;
            return out;
          },
          ColumnRef(2)};
}

}  // namespace fuzz_internal

/// Runs the plan derived from `plan_seed` over `src` (and `build`, the
/// second table joins draw their build side from) at `threads`.
inline FuzzPlanResult RunFuzzPlan(uint64_t plan_seed, const FuzzSource& src,
                                  Table* build_table, int threads,
                                  bool key_bounds = true) {
  using fuzz_internal::RandomPredicate;
  using fuzz_internal::RandomProjection;
  Random rng(plan_seed);
  FuzzPlanResult result;

  ScanOptions so;
  so.num_threads = threads;
  const size_t morsel_choices[] = {0, 48, 64, 100, 256};
  so.morsel_rows = morsel_choices[rng.Uniform(5)];

  // Bounded-scan fuzz: sometimes pair an inclusive key-range predicate
  // with the matching KeyBounds, so the scan covers only the sparse
  // index's interval and its layer cursors start mid-table. The rng
  // draws happen unconditionally so a reference run with key_bounds ==
  // false makes identical plan decisions but scans the whole table —
  // any result difference is a bounded-scan bug.
  bool bounded = false;
  int64_t zlo = 0, zhi = 0;
  KeyBounds bounds;
  if (rng.Bernoulli(0.35)) {
    bounded = true;
    const KeyBounds& chain = src.chain_keys;
    if (!chain.lo.empty() && rng.Bernoulli(0.5)) {
      // Bounds inside the range MakeFuzzTable's delete chain emptied,
      // where the lower layers emit no row and only inserts (the
      // table's own or a transaction's) remain.
      const int64_t lo = chain.lo[0].AsInt64();
      const int64_t hi = chain.hi[0].AsInt64();
      zlo = lo + static_cast<int64_t>(rng.Uniform(hi - lo + 1));
      zhi = zlo + static_cast<int64_t>(rng.Uniform(hi - zlo + 1));
      result.chain_bounded = true;
    } else {
      zlo = static_cast<int64_t>(rng.Uniform(2000));
      const int64_t width = rng.Bernoulli(0.5) ? 200 : 3000;
      zhi = zlo + 1 + static_cast<int64_t>(rng.UniformRange(0, width));
    }
    bounds = KeyBounds{{Value(zlo)}, {Value(zhi)}};
  }
  const KeyBounds* scan_bounds = bounded && key_bounds ? &bounds : nullptr;

  const std::vector<ColumnId> cols{0, 1, 2, 3};
  // Serial tree at 1 thread, pipeline otherwise — mirroring how the
  // TPC-H kernels pick their shape.
  const bool parallel = threads > 1;
  std::unique_ptr<BatchSource> serial;
  std::unique_ptr<Pipeline> pipe;
  if (parallel) {
    pipe = std::make_unique<Pipeline>(src.PlanMorsels(cols, scan_bounds, so));
  } else {
    serial = src.Scan(cols, scan_bounds, so);
  }
  auto add_filter = [&](VecPredicate p) {
    if (parallel) {
      pipe->Filter(std::move(p));
    } else {
      serial = std::make_unique<FilterNode>(std::move(serial), std::move(p));
    }
  };
  auto add_project = [&](std::vector<ColumnExpr> e) {
    if (parallel) {
      pipe->Project(std::move(e));
    } else {
      serial =
          std::make_unique<ProjectNode>(std::move(serial), std::move(e));
    }
  };

  // The predicate matching the bounds goes first: a bounded scan
  // returns a superset of the in-bounds rows, and this filter trims it.
  if (bounded) add_filter(Int64Between(0, zlo, zhi));

  // Multi-predicate filters: the serial tree chains one FilterNode per
  // predicate (materializing each intermediate), while stacked
  // Pipeline::Filter calls fuse into one word-wise bitmap conjunction
  // with a single compaction — the differential check proves the fused
  // path equivalent. Occasionally the predicates arrive pre-combined
  // through And()/Or() so those fold paths fuzz too.
  if (rng.Bernoulli(0.6)) {
    const uint64_t nfilters = 1 + rng.Uniform(3);  // 1..3 stacked filters
    for (uint64_t f = 0; f < nfilters; ++f) {
      add_filter(RandomPredicate(&rng));
    }
  } else if (rng.Bernoulli(0.3)) {
    std::vector<VecPredicate> preds;
    preds.push_back(RandomPredicate(&rng));
    preds.push_back(RandomPredicate(&rng));
    add_filter(rng.Bernoulli(0.5) ? And(std::move(preds))
                                  : Or(std::move(preds)));
  }
  bool projected = false;
  if (rng.Bernoulli(0.5)) {
    add_project(RandomProjection(&rng));
    projected = true;
  }

  bool inner_join = false;
  if (build_table != nullptr && rng.Bernoulli(0.45)) {
    // Build side: the second table's (v % m, k) so build keys repeat.
    const int64_t m = 2 + static_cast<int64_t>(rng.Uniform(30));
    std::vector<ColumnExpr> build_exprs{
        [m](const Batch& b) {
          ColumnVector out(TypeId::kInt64);
          const size_t n = b.column(1).size();
          const int64_t* v = b.column(1).ints_data();
          auto& vals = out.ints();
          vals.resize(n);
          for (size_t i = 0; i < n; ++i) vals[i] = v[i] % m;
          return out;
        },
        ColumnRef(0)};
    const JoinKind kinds[] = {JoinKind::kInner, JoinKind::kLeftSemi,
                              JoinKind::kLeftAnti};
    const JoinKind kind = kinds[rng.Uniform(3)];
    inner_join = kind == JoinKind::kInner;
    const size_t part_choices[] = {0, 1, 2, 16};
    const size_t partitions = part_choices[rng.Uniform(4)];
    // Probe key: an int column of the current layout; project the probe
    // payload into the same modulus so matches are plentiful.
    const size_t probe_key = 1;
    auto probe_exprs = [&]() -> std::vector<ColumnExpr> {
      return {ColumnRef(0),
              [m](const Batch& b) {
                ColumnVector out(TypeId::kInt64);
                const size_t n = b.column(1).size();
                const int64_t* v = b.column(1).ints_data();
                auto& vals = out.ints();
                vals.resize(n);
                for (size_t i = 0; i < n; ++i) vals[i] = v[i] % m;
                return out;
              },
              ColumnRef(2)};
    };
    add_project(probe_exprs());
    projected = true;
    const std::vector<ColumnId> bcols{0, 1};
    std::shared_ptr<JoinBuildHandle> handle;
    if (parallel) {
      auto bpipe =
          std::make_unique<Pipeline>(build_table->PlanMorsels(bcols, nullptr,
                                                              so));
      bpipe->Project(build_exprs);
      handle = Pipeline::IntoJoinBuild(std::move(bpipe), {0}, partitions);
      pipe->Probe(handle, {probe_key}, kind);
    } else {
      handle = std::make_shared<JoinBuildHandle>(
          std::make_unique<ProjectNode>(build_table->Scan(bcols),
                                        build_exprs),
          std::vector<size_t>{0});
      serial = std::make_unique<HashJoinNode>(
          std::move(serial), std::move(handle),
          std::vector<size_t>{probe_key}, kind);
    }
  }

  // Terminal: exchange, aggregation, or sort.
  std::unique_ptr<BatchSource> out;
  const uint64_t terminal = rng.Uniform(3);
  if (terminal == 0) {
    out = parallel ? std::move(*pipe).Exchange() : std::move(serial);
    result.exact = false;  // batches arrive as workers complete them
  } else if (terminal == 1) {
    // Aggregate int columns only: double accumulators over integers are
    // exact, so parallel merge order cannot perturb the values.
    std::vector<size_t> group_by;
    if (rng.Bernoulli(0.8)) group_by.push_back(1);
    std::vector<AggSpec> aggs{{AggKind::kCount, 0}};
    const AggKind kinds[] = {AggKind::kSum, AggKind::kMin, AggKind::kMax,
                             AggKind::kAvg};
    aggs.push_back({kinds[rng.Uniform(4)], projected ? 1u : 0u});
    out = parallel
              ? std::move(*pipe).Aggregate(group_by, aggs)
              : std::make_unique<HashAggNode>(std::move(serial), group_by,
                                              aggs);
    result.exact = false;  // group order differs across workers
  } else {
    std::vector<SortKey> keys{{rng.Uniform(2) == 0 ? 1u : 0u,
                               rng.Bernoulli(0.5)}};
    if (rng.Bernoulli(0.4)) keys.push_back({2, rng.Bernoulli(0.5)});
    const size_t limit =
        (!inner_join && rng.Bernoulli(0.3)) ? 1 + rng.Uniform(40) : 0;
    out = parallel
              ? std::move(*pipe).IntoSortBuild(keys, limit)
              : std::make_unique<SortNode>(std::move(serial), keys, limit);
    // The sort's (keys, source-order) tie-break reproduces the serial
    // stable sort exactly unless an inner join's duplicate matches
    // permuted the source order within a tie group.
    result.exact = !inner_join;
  }

  auto rows = CollectRows(out.get());
  if (!rows.ok()) {
    result.status = rows.status();
  } else {
    result.rows = std::move(*rows);
  }
  return result;
}

inline void SortTuples(std::vector<Tuple>* rows) {
  std::sort(rows->begin(), rows->end(), [](const Tuple& a, const Tuple& b) {
    return CompareTuples(a, b) < 0;
  });
}

}  // namespace testutil
}  // namespace pdtstore

#endif  // PDTSTORE_TESTS_FUZZ_UTIL_H_
