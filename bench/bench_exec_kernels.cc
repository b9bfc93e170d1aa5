// Microbenchmarks for the selection-vector execution kernels: filter
// survivor compaction, selection gather, predicate evaluation,
// projection, hash aggregation, group assign, hash join and join probe,
// each measured against the baseline the engine used before (per-value
// TypeId dispatch via Batch::AppendRow, a shift-or keep fill with
// short-circuit predicate bodies, a copying projection, string-encoded
// group keys via std::unordered_map, a row-at-a-time group assign, a
// node-based join table, a row-at-a-time chain walk), plus stable-chunk
// decode throughput per encoding. Emits BENCH_exec.json for machine
// consumption.
//
// Usage: bench_exec_kernels [--rows=1000000] [--reps=5]
//                           [--json=BENCH_exec.json]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "columnstore/batch.h"
#include "columnstore/keep_bitmap.h"
#include "columnstore/sel_vector.h"
#include "exec/filter.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/operator.h"
#include "exec/project.h"
#include "storage/chunk.h"

namespace pdtstore {
namespace bench {
namespace {

Batch MakeWideBatch(size_t rows, uint64_t seed) {
  // 3 int64 + 3 double payload columns: the "int64/double columns"
  // compaction workload.
  Random rng(seed);
  Batch b;
  std::vector<ColumnId> ids;
  for (int c = 0; c < 3; ++c) {
    ColumnVector col(TypeId::kInt64);
    col.ints().resize(rows);
    for (size_t i = 0; i < rows; ++i) {
      col.ints()[i] = static_cast<int64_t>(rng.Next() & 0xffffff);
    }
    ids.push_back(static_cast<ColumnId>(b.columns().size()));
    b.columns().push_back(std::move(col));
  }
  for (int c = 0; c < 3; ++c) {
    ColumnVector col(TypeId::kDouble);
    col.doubles().resize(rows);
    for (size_t i = 0; i < rows; ++i) {
      col.doubles()[i] = rng.NextDouble() * 1000.0;
    }
    ids.push_back(static_cast<ColumnId>(b.columns().size()));
    b.columns().push_back(std::move(col));
  }
  b.set_column_ids(std::move(ids));
  return b;
}

Batch EmptyLike(const Batch& in) {
  Batch out;
  out.set_column_ids(in.column_ids());
  for (size_t c = 0; c < in.num_columns(); ++c) {
    out.columns().emplace_back(in.column(c).type());
  }
  return out;
}

double BestOf(int reps, double (*fn)(const void*), const void* arg) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) best = std::min(best, fn(arg));
  return best;
}

void Report(JsonResultWriter* json, const char* name, size_t rows,
            double base_ms, double kern_ms) {
  double base_mrps = static_cast<double>(rows) / base_ms / 1e3;
  double kern_mrps = static_cast<double>(rows) / kern_ms / 1e3;
  std::printf("%-24s %10.2f ms -> %8.2f ms   %7.1f -> %7.1f Mrows/s   %5.2fx\n",
              name, base_ms, kern_ms, base_mrps, kern_mrps,
              base_ms / kern_ms);
  json->Metric(name, "rows", static_cast<double>(rows));
  json->Metric(name, "baseline_ms", base_ms);
  json->Metric(name, "kernel_ms", kern_ms);
  json->Metric(name, "baseline_mrps", base_mrps);
  json->Metric(name, "kernel_mrps", kern_mrps);
  json->Metric(name, "speedup", base_ms / kern_ms);
}

// ------------------------------------------------------------------
// Filter survivor compaction, batch-at-a-time as FilterNode runs it:
// each input batch is compacted through its keep bitmap into a reused
// output batch. Baseline = the pre-refactor inner loop (AppendRow per
// surviving row); kernel = selection-vector AppendFiltered.
// ------------------------------------------------------------------

struct FilterArgs {
  const std::vector<Batch>* slices;
  const std::vector<std::vector<uint8_t>>* keeps;
};

double FilterBaselineMs(const void* p) {
  const auto* a = static_cast<const FilterArgs*>(p);
  Stopwatch sw;
  size_t total = 0;
  for (size_t s = 0; s < a->slices->size(); ++s) {
    const Batch& in = (*a->slices)[s];
    const auto& keep = (*a->keeps)[s];
    // Faithful pre-refactor FilterNode::Next: fresh output batch per
    // input batch, then AppendRow (per-value type dispatch) per survivor.
    Batch out = EmptyLike(in);
    for (size_t i = 0; i < in.num_rows(); ++i) {
      if (keep[i]) out.AppendRow(in, i);
    }
    total += out.num_rows();
  }
  double ms = sw.ElapsedMillis();
  if (total == 0) std::abort();
  return ms;
}

double FilterKernelMs(const void* p) {
  const auto* a = static_cast<const FilterArgs*>(p);
  Stopwatch sw;
  Batch out;
  size_t total = 0;
  for (size_t s = 0; s < a->slices->size(); ++s) {
    const Batch& in = (*a->slices)[s];
    out.ResetLike(in);
    out.AppendFiltered(in, (*a->keeps)[s].data());
    total += out.num_rows();
  }
  double ms = sw.ElapsedMillis();
  if (total == 0) std::abort();
  return ms;
}

// ------------------------------------------------------------------
// Keep-bitmap vs byte-keep ablation: the full predicate path as
// FilterNode runs it — evaluate the predicate over each batch, expand
// the keep vector to a selection, compact survivors — with the keep
// vector held as a byte per row (the pre-bitmap engine) vs packed to
// 1 bit per row (KeepBitmap: word stores, word-at-a-time FromKeep).
// Swept across selectivities, since the byte path's cost is flat while
// the bitmap path's expansion cost scales with survivors.
// ------------------------------------------------------------------

struct KeepPathArgs {
  const std::vector<Batch>* slices;
  int64_t threshold;  // keep rows with col0 <= threshold
};

double KeepByteMs(const void* p) {
  const auto* a = static_cast<const KeepPathArgs*>(p);
  Stopwatch sw;
  Batch out;
  std::vector<uint8_t> keep;
  size_t total = 0;
  for (const Batch& in : *a->slices) {
    const auto& v = in.column(0).ints();
    keep.assign(v.size(), 0);
    for (size_t i = 0; i < v.size(); ++i) {
      keep[i] = v[i] <= a->threshold;
    }
    out.ResetLike(in);
    out.AppendFiltered(in, keep.data());
    total += out.num_rows();
  }
  double ms = sw.ElapsedMillis();
  if (total == 0) std::abort();
  return ms;
}

double KeepBitmapMs(const void* p) {
  const auto* a = static_cast<const KeepPathArgs*>(p);
  Stopwatch sw;
  Batch out;
  KeepBitmap keep;
  size_t total = 0;
  for (const Batch& in : *a->slices) {
    const auto& v = in.column(0).ints();
    keep.Reset(v.size());
    const int64_t threshold = a->threshold;
    keep.FillFrom([&](size_t i) { return v[i] <= threshold; });
    out.ResetLike(in);
    out.AppendFiltered(in, keep);
    total += out.num_rows();
  }
  double ms = sw.ElapsedMillis();
  if (total == 0) std::abort();
  return ms;
}

// ------------------------------------------------------------------
// Predicate evaluation: the engine's typed predicates (FillFrom packing
// verdict bytes, bodies joined with `&`) vs a bench-local copy of the
// shift-or fill with `&&` bodies they replaced, over kDefaultBatchSize
// slices. Four shapes: an int64 range (Q6's shipdate year), a double
// range (Q6's discount), dictionary string equality (Q12's shipmode)
// and Q12's four-term date conjunction.
// ------------------------------------------------------------------

// The fill loop FillFrom used before verdict bytes: one shift-or per row
// into the word under construction.
template <typename RowPred>
void ShiftOrFill(KeepBitmap* keep, RowPred pred) {
  const size_t n = keep->size();
  uint64_t* words = keep->words();
  for (size_t base = 0; base < n; base += 64) {
    uint64_t word = 0;
    for (size_t b = 0; b < 64 && base + b < n; ++b) {
      word |= static_cast<uint64_t>(pred(base + b)) << b;
    }
    words[base >> 6] = word;
  }
}

// Column order of the predicate slices.
enum PredColumn : size_t { kShip, kDisc, kMode, kCommit, kReceipt };

constexpr int64_t kYearLo = 8401, kYearHi = 8765;  // a 365-day window
const char* const kShipModes[] = {"REG AIR", "AIR", "RAIL", "SHIP",
                                  "TRUCK",   "MAIL", "FOB"};

std::vector<Batch> MakePredicateSlices(size_t rows) {
  auto dict = std::make_shared<StringDict>();
  for (const char* m : kShipModes) {
    dict->values.emplace_back(m);
    dict->hashes.push_back(HashBytes(m, std::strlen(m)));
  }
  Random rng(23);
  std::vector<Batch> slices;
  for (size_t off = 0; off < rows; off += kDefaultBatchSize) {
    const size_t end = std::min(rows, off + kDefaultBatchSize);
    Batch b;
    b.columns().emplace_back(TypeId::kInt64);
    b.columns().emplace_back(TypeId::kDouble);
    b.columns().emplace_back(TypeId::kString);
    b.columns().emplace_back(TypeId::kInt64);
    b.columns().emplace_back(TypeId::kInt64);
    b.column(kMode).AdoptDict(dict);
    for (size_t i = off; i < end; ++i) {
      // TPC-H lineitem dates: order date over ~6.5 years, ship 1..121
      // days later, commit 30..90 days after the order, receipt 1..30
      // days after shipping. Row 0 satisfies every shape.
      const int64_t order = 8035 + static_cast<int64_t>(rng.Uniform(2400));
      int64_t ship = order + 1 + static_cast<int64_t>(rng.Uniform(121));
      int64_t commit = order + 30 + static_cast<int64_t>(rng.Uniform(61));
      int64_t receipt = ship + 1 + static_cast<int64_t>(rng.Uniform(30));
      double disc = static_cast<double>(rng.Uniform(11)) / 100.0;
      uint32_t mode = static_cast<uint32_t>(rng.Uniform(7));
      if (i == 0) {
        ship = kYearLo;
        commit = kYearLo + 1;
        receipt = kYearLo + 2;
        disc = 0.06;
        mode = 5;  // MAIL
      }
      b.column(kShip).ints().push_back(ship);
      b.column(kDisc).doubles().push_back(disc);
      b.column(kMode).codes().push_back(mode);
      b.column(kCommit).ints().push_back(commit);
      b.column(kReceipt).ints().push_back(receipt);
    }
    b.set_column_ids({0, 1, 2, 3, 4});
    slices.push_back(std::move(b));
  }
  return slices;
}

struct PredicateShape {
  const char* name;
  VecPredicate baseline;
  VecPredicate kernel;
};

std::vector<PredicateShape> PredicateShapes() {
  const int64_t lo = kYearLo, hi = kYearHi;
  std::vector<PredicateShape> shapes;
  shapes.push_back(
      {"int64_range",
       [lo, hi](const Batch& b, KeepBitmap* keep) {
         const int64_t* v = b.column(kShip).ints_data();
         ShiftOrFill(keep, [&](size_t i) { return v[i] >= lo && v[i] <= hi; });
       },
       Int64Between(kShip, lo, hi)});
  shapes.push_back(
      {"double_range",
       [](const Batch& b, KeepBitmap* keep) {
         const double* v = b.column(kDisc).doubles_data();
         ShiftOrFill(keep,
                     [&](size_t i) { return v[i] >= 0.05 && v[i] < 0.0701; });
       },
       DoubleInRange(kDisc, 0.05, 0.0701)});
  shapes.push_back(
      {"dict_string_eq",
       [](const Batch& b, KeepBitmap* keep) {
         const ColumnVector& col = b.column(kMode);
         const auto& values = col.dict()->values;
         const uint32_t target = static_cast<uint32_t>(
             std::find(values.begin(), values.end(), "MAIL") -
             values.begin());
         const uint32_t* codes = col.codes_data();
         ShiftOrFill(keep, [&](size_t i) { return codes[i] == target; });
       },
       StringEquals(kMode, "MAIL")});
  shapes.push_back(
      {"q12_conjunction",
       [lo, hi](const Batch& b, KeepBitmap* keep) {
         const int64_t* commit = b.column(kCommit).ints_data();
         const int64_t* receipt = b.column(kReceipt).ints_data();
         const int64_t* ship = b.column(kShip).ints_data();
         ShiftOrFill(keep, [&](size_t i) {
           return commit[i] < receipt[i] && ship[i] < commit[i] &&
                  receipt[i] >= lo && receipt[i] <= hi;
         });
       },
       // Q12's lambda (tpch/queries.cc).
       [lo, hi](const Batch& b, KeepBitmap* keep) {
         const int64_t* commit = b.column(kCommit).ints_data();
         const int64_t* receipt = b.column(kReceipt).ints_data();
         const int64_t* ship = b.column(kShip).ints_data();
         keep->FillFrom([&](size_t i) {
           return (commit[i] < receipt[i]) & (ship[i] < commit[i]) &
                  (receipt[i] >= lo) & (receipt[i] <= hi);
         });
       }});
  return shapes;
}

// Evaluates `pred` over every slice; returns the elapsed ms and adds the
// survivors to *kept (the anti-elision checksum).
double PredicateMs(const std::vector<Batch>& slices, const VecPredicate& pred,
                   size_t* kept) {
  Stopwatch sw;
  KeepBitmap keep;
  size_t total = 0;
  for (const Batch& b : slices) {
    keep.Reset(b.num_rows());
    pred(b, &keep);
    total += keep.CountSet();
  }
  const double ms = sw.ElapsedMillis();
  *kept = total;
  return ms;
}

void RunPredicateEval(JsonResultWriter* json, size_t rows, int reps) {
  const std::vector<Batch> slices = MakePredicateSlices(rows);
  std::printf("predicate_eval\n");
  json->Metric("predicate_eval", "rows", static_cast<double>(rows));
  for (const PredicateShape& shape : PredicateShapes()) {
    double base_ms = std::numeric_limits<double>::infinity();
    double kern_ms = base_ms;
    size_t base_kept = 0, kern_kept = 0;
    for (int rep = 0; rep <= reps; ++rep) {  // rep 0 warms
      const double b = PredicateMs(slices, shape.baseline, &base_kept);
      const double k = PredicateMs(slices, shape.kernel, &kern_kept);
      if (rep == 0) continue;
      base_ms = std::min(base_ms, b);
      kern_ms = std::min(kern_ms, k);
    }
    // Row 0 passes every shape, and both paths must keep the same rows.
    if (kern_kept == 0 || kern_kept != base_kept) std::abort();
    const double base_mrps = static_cast<double>(rows) / base_ms / 1e3;
    const double kern_mrps = static_cast<double>(rows) / kern_ms / 1e3;
    std::printf("  %-22s %10.2f ms -> %8.2f ms   %7.1f -> %7.1f Mrows/s   "
                "%5.2fx  keeps %.1f%%\n",
                shape.name, base_ms, kern_ms, base_mrps, kern_mrps,
                base_ms / kern_ms, 100.0 * kern_kept / rows);
    const std::string prefix(shape.name);
    json->Metric("predicate_eval", prefix + "_baseline_mrps", base_mrps);
    json->Metric("predicate_eval", prefix + "_kernel_mrps", kern_mrps);
    json->Metric("predicate_eval", prefix + "_speedup", base_ms / kern_ms);
  }
}

// ------------------------------------------------------------------
// Projection over a filtered scan-shaped stream, as Q1 runs it: 7
// columns arrive as borrowed windows (the zero-copy scan), a ~98%
// selective date filter compacts them, and the projection passes 5
// columns through and computes 2. Baseline = a bench-local copy of the
// ProjectNode the engine used before move-through projection: a fresh
// input batch per pull and a full copy of every referenced column.
// ------------------------------------------------------------------

// Emits kDefaultBatchSize borrowed windows over whole columns.
class BorrowedSliceSource : public BatchSource {
 public:
  BorrowedSliceSource(const Batch* layout,
                      const std::vector<std::shared_ptr<const ColumnVector>>*
                          cols)
      : layout_(layout), cols_(cols) {}

  StatusOr<bool> Next(Batch* out, size_t max_rows) override {
    const size_t rows = (*cols_)[0]->size();
    if (pos_ >= rows) return false;
    const size_t len = std::min(max_rows, rows - pos_);
    out->ResetLike(*layout_);
    for (size_t c = 0; c < cols_->size(); ++c) {
      out->column(c).BorrowFrom((*cols_)[c], pos_, len);
    }
    out->set_start_rid(pos_);
    pos_ += len;
    return true;
  }

 private:
  const Batch* layout_;
  const std::vector<std::shared_ptr<const ColumnVector>>* cols_;
  size_t pos_ = 0;
};

class CopyingProjectNode : public BatchSource {
 public:
  CopyingProjectNode(std::unique_ptr<BatchSource> input,
                     std::vector<ColumnExpr> exprs)
      : input_(std::move(input)), exprs_(std::move(exprs)) {}

  StatusOr<bool> Next(Batch* out, size_t max_rows) override {
    Batch in;
    PDT_ASSIGN_OR_RETURN(bool more, input_->Next(&in, max_rows));
    if (!more) return false;
    *out = Batch();
    out->set_start_rid(in.start_rid());
    std::vector<ColumnId> ids(exprs_.size());
    for (size_t i = 0; i < exprs_.size(); ++i) {
      ids[i] = static_cast<ColumnId>(i);
      const ColumnExpr& e = exprs_[i];
      out->columns().push_back(e.ref == ColumnExpr::kComputed
                                   ? e.fn(in)
                                   : in.column(e.ref));
    }
    out->set_column_ids(std::move(ids));
    return true;
  }

 private:
  std::unique_ptr<BatchSource> input_;
  std::vector<ColumnExpr> exprs_;
};

struct ProjectArgs {
  const Batch* layout;
  const std::vector<std::shared_ptr<const ColumnVector>>* cols;
  int64_t cutoff;  // keep shipdate (column 6) <= cutoff
};

std::vector<ColumnExpr> Q1Exprs() {
  return {ColumnRef(0), ColumnRef(1), ColumnRef(2), ColumnRef(3),
          Revenue(3, 4), Charge(3, 4, 5), ColumnRef(4)};
}

double DrainProjectionMs(BatchSource* proj) {
  Stopwatch sw;
  Batch out;
  double sum = 0;
  size_t rows = 0;
  while (true) {
    auto more = proj->Next(&out, kDefaultBatchSize);
    if (!more.ok()) std::abort();
    if (!*more) break;
    rows += out.num_rows();
    sum += out.column(4).doubles_data()[0] + out.column(6).doubles_data()[0];
  }
  const double ms = sw.ElapsedMillis();
  if (rows == 0 || sum < 0) std::abort();
  return ms;
}

template <typename Project>
double ProjectRefsMs(const void* p) {
  const auto* a = static_cast<const ProjectArgs*>(p);
  Project proj(std::make_unique<FilterNode>(
                   std::make_unique<BorrowedSliceSource>(a->layout, a->cols),
                   Int64Between(6, 0, a->cutoff)),
               Q1Exprs());
  return DrainProjectionMs(&proj);
}

void RunProjectRefs(JsonResultWriter* json, size_t rows, int reps) {
  // Q1's lineitem columns: returnflag, linestatus, quantity,
  // extendedprice, discount, tax, shipdate.
  Random rng(37);
  const char* flags[] = {"A", "N", "R"};
  const char* status[] = {"F", "O"};
  Batch layout;
  for (TypeId t : {TypeId::kString, TypeId::kString, TypeId::kDouble,
                   TypeId::kDouble, TypeId::kDouble, TypeId::kDouble,
                   TypeId::kInt64}) {
    layout.columns().emplace_back(t);
  }
  layout.set_column_ids({0, 1, 2, 3, 4, 5, 6});
  std::vector<ColumnVector> data = layout.columns();
  for (size_t i = 0; i < rows; ++i) {
    data[0].strings().emplace_back(flags[rng.Uniform(3)]);
    data[1].strings().emplace_back(status[rng.Uniform(2)]);
    data[2].doubles().push_back(1.0 + static_cast<double>(rng.Uniform(50)));
    data[3].doubles().push_back(900.0 + rng.NextDouble() * 1e5);
    data[4].doubles().push_back(static_cast<double>(rng.Uniform(11)) / 100);
    data[5].doubles().push_back(static_cast<double>(rng.Uniform(9)) / 100);
    // Row 0 ships on day 0, so every --rows keeps a row.
    data[6].ints().push_back(
        i == 0 ? 0 : static_cast<int64_t>(rng.Uniform(2526)));
  }
  std::vector<std::shared_ptr<const ColumnVector>> cols;
  for (ColumnVector& c : data) {
    cols.push_back(std::make_shared<const ColumnVector>(std::move(c)));
  }
  // Q1's cutoff keeps all but the last ~1.5% of ship dates.
  ProjectArgs args{&layout, &cols, 2487};
  (void)ProjectRefsMs<CopyingProjectNode>(&args);  // warm
  (void)ProjectRefsMs<ProjectNode>(&args);
  Report(json, "project_refs", rows,
         BestOf(reps, ProjectRefsMs<CopyingProjectNode>, &args),
         BestOf(reps, ProjectRefsMs<ProjectNode>, &args));
}

// ------------------------------------------------------------------
// Gather through a selection vector (join/sort compaction shape).
// ------------------------------------------------------------------

struct GatherArgs {
  const Batch* in;
  const SelVector* sel;
};

double GatherBaselineMs(const void* p) {
  const auto* a = static_cast<const GatherArgs*>(p);
  Stopwatch sw;
  Batch out = EmptyLike(*a->in);
  for (size_t i = 0; i < a->sel->size(); ++i) {
    out.AppendRow(*a->in, (*a->sel)[i]);
  }
  double ms = sw.ElapsedMillis();
  if (out.num_rows() != a->sel->size()) std::abort();
  return ms;
}

double GatherKernelMs(const void* p) {
  const auto* a = static_cast<const GatherArgs*>(p);
  Stopwatch sw;
  Batch out = EmptyLike(*a->in);
  out.AppendGather(*a->in, *a->sel);
  double ms = sw.ElapsedMillis();
  if (out.num_rows() != a->sel->size()) std::abort();
  return ms;
}

// ------------------------------------------------------------------
// Hash aggregation: SUM(double), COUNT grouped by an int64 key.
// The baseline replicates the engine's pre-refactor HashAggNode
// faithfully: the same batch-sliced input, per-row group-key string
// encoding into a std::unordered_map, and per-row aggregate updates.
// Both paths pay the same source-slicing cost; the delta is the
// aggregation machinery itself.
// ------------------------------------------------------------------

struct AggArgs {
  const Batch* in;
};

double AggBaselineMs(const void* p) {
  const auto* a = static_cast<const AggArgs*>(p);
  VectorSource src(*a->in);  // input copy not timed for either path
  Stopwatch sw;
  struct GroupState {
    size_t first_row = 0;
    std::vector<double> sums, mins, maxs;
    int64_t count = 0;
  };
  std::unordered_map<std::string, GroupState> groups;
  ColumnVector key_col(TypeId::kInt64);
  Batch in;
  std::string key;
  while (true) {
    auto more = src.Next(&in, kDefaultBatchSize);
    if (!more.ok()) std::abort();
    if (!*more) break;
    for (size_t row = 0; row < in.num_rows(); ++row) {
      key.clear();
      int64_t k = in.column(0).ints()[row];
      key.append(reinterpret_cast<const char*>(&k), 8);
      auto [it, inserted] = groups.try_emplace(key);
      GroupState& g = it->second;
      if (inserted) {
        g.first_row = key_col.size();
        key_col.AppendFrom(in.column(0), row);
        g.sums.assign(2, 0.0);
        g.mins.assign(2, std::numeric_limits<double>::infinity());
        g.maxs.assign(2, -std::numeric_limits<double>::infinity());
      }
      ++g.count;
      double v = in.column(3).doubles()[row];
      g.sums[0] += v;
      g.mins[0] = std::min(g.mins[0], v);
      g.maxs[0] = std::max(g.maxs[0], v);
    }
  }
  // Emit in first-appearance order (as the old node did).
  std::vector<std::pair<size_t, const GroupState*>> ordered;
  ordered.reserve(groups.size());
  for (const auto& [kk, g] : groups) ordered.emplace_back(g.first_row, &g);
  std::sort(ordered.begin(), ordered.end());
  ColumnVector keys_out(TypeId::kInt64), sums_out(TypeId::kDouble);
  ColumnVector counts_out(TypeId::kInt64);
  for (const auto& [pos, g] : ordered) {
    keys_out.AppendFrom(key_col, pos);
    sums_out.doubles().push_back(g->sums[0]);
    counts_out.ints().push_back(g->count);
  }
  double ms = sw.ElapsedMillis();
  if (keys_out.size() == 0) std::abort();
  return ms;
}

double AggKernelMs(const void* p) {
  const auto* a = static_cast<const AggArgs*>(p);
  auto src = std::make_unique<VectorSource>(*a->in);  // copy not timed
  Stopwatch sw;
  HashAggNode agg(std::move(src), {0},
                  {{AggKind::kSum, 3}, {AggKind::kCount, 0}});
  Batch out;
  auto more = agg.Next(&out, std::numeric_limits<size_t>::max());
  double ms = sw.ElapsedMillis();
  if (!more.ok() || !*more || out.num_rows() == 0) std::abort();
  return ms;
}

// ------------------------------------------------------------------
// Hash join: build a distinct-key side (150k rows at --rows=1M, like
// Q12's orders), probe `rows` rows in engine-sized slices (~25% hit),
// then free the table. The baseline replicates the engine's node-based
// JoinTable — an unordered_map from combined key hash to a heap vector
// of build rows — with the same bulk hash pass, key verify and
// selection gathers; the kernel is JoinTable::Build + ProbeJoinBatch.
// ------------------------------------------------------------------

struct JoinArgs {
  const Batch* build;
  const std::vector<Batch>* probe_slices;
};

double JoinBaselineMs(const void* p) {
  const auto* a = static_cast<const JoinArgs*>(p);
  Batch build = *a->build;  // copy not timed for either path
  Stopwatch sw;
  size_t out_rows = 0;
  {
    const size_t n = build.num_rows();
    std::vector<uint64_t> hashes(n, kHashSeed);
    build.column(0).HashColumn(hashes.data());
    std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
    buckets.reserve(n);
    for (size_t row = 0; row < n; ++row) {
      buckets[hashes[row]].push_back(static_cast<uint32_t>(row));
    }
    Batch proto = EmptyLike(a->probe_slices->front());
    for (size_t c = 0; c < build.num_columns(); ++c) {
      proto.columns().emplace_back(build.column(c).type());
    }
    std::vector<uint64_t> probe_hashes;
    SelVector probe_sel;
    SelVector build_sel;
    Batch out;
    for (const Batch& in : *a->probe_slices) {
      out.ResetLike(proto);
      probe_hashes.assign(in.num_rows(), kHashSeed);
      in.column(0).HashColumn(probe_hashes.data());
      probe_sel.clear();
      build_sel.clear();
      for (size_t row = 0; row < in.num_rows(); ++row) {
        auto it = buckets.find(probe_hashes[row]);
        if (it == buckets.end()) continue;
        for (uint32_t b : it->second) {
          if (build.column(0).CompareAt(b, in.column(0), row) == 0) {
            probe_sel.push_back(static_cast<uint32_t>(row));
            build_sel.push_back(b);
          }
        }
      }
      for (size_t c = 0; c < in.num_columns(); ++c) {
        out.column(c).AppendGather(in.column(c), probe_sel);
      }
      for (size_t c = 0; c < build.num_columns(); ++c) {
        out.column(in.num_columns() + c)
            .AppendGather(build.column(c), build_sel);
      }
      out_rows += out.num_rows();
    }
  }  // the table is freed inside the timed region, as in a query
  double ms = sw.ElapsedMillis();
  if (out_rows == 0) std::abort();
  return ms;
}

double JoinKernelMs(const void* p) {
  const auto* a = static_cast<const JoinArgs*>(p);
  Batch build = *a->build;  // copy not timed for either path
  const std::vector<size_t> keys{0};
  Stopwatch sw;
  size_t out_rows = 0;
  {
    PartitionedJoinTable table;
    table.parts.push_back(JoinTable::Build(std::move(build), keys));
    JoinProbeScratch scratch;
    Batch out;
    for (const Batch& in : *a->probe_slices) {
      ProbeJoinBatch(table, keys, JoinKind::kInner, in, &out, &scratch);
      out_rows += out.num_rows();
    }
  }
  double ms = sw.ElapsedMillis();
  if (out_rows == 0) std::abort();
  return ms;
}

// ------------------------------------------------------------------
// Join probe: the engine's column-at-a-time ProbeJoinBatch against the
// row-at-a-time chain walk it replaced, where each probe row walks its
// bucket's chain to the end (to its first match for a semi join),
// comparing the full hash and then every key through CompareAt. Both
// probe the same prebuilt join table through one reused scratch, with
// the same hashing, routing and output gathers; only the probe is timed.
// Shapes, probing `rows` rows in engine-sized slices:
//   inner_unique  inner join, 150k distinct build keys (at --rows=1M),
//                 ~25% of probe rows hit;
//   semi_small    semi join over 2.4k build rows (Q9's part side), ~10%
//                 of probe rows hit;
//   inner_dups    inner join, 8 build rows per key spread over the build
//                 (matches at chain depths 1-8, mean 4.5), ~25% hit;
//   inner_dups_p8 the same over 8 hash partitions, as a 4-thread
//                 partitioned build publishes it: each batch routes its
//                 rows and probes every partition.
// ------------------------------------------------------------------

// The row-at-a-time walk: JoinTable::KeysEqual + ForEachMatch as the
// engine had them.
bool RowAtATimeKeysEqual(const JoinTable& t,
                         const std::vector<size_t>& probe_keys,
                         const Batch& probe, size_t probe_row,
                         size_t build_row) {
  for (size_t k = 0; k < probe_keys.size(); ++k) {
    if (t.rows.column(t.key_cols[k])
            .CompareAt(build_row, probe.column(probe_keys[k]),
                       probe_row) != 0) {
      return false;
    }
  }
  return true;
}

template <typename Fn>
void RowAtATimeForEachMatch(const JoinTable& t, uint64_t hash,
                            const std::vector<size_t>& probe_keys,
                            const Batch& probe, size_t probe_row, Fn&& fn) {
  if (t.heads.empty()) return;
  for (uint32_t e = t.heads[hash & (t.heads.size() - 1)]; e != 0;
       e = t.next[e - 1]) {
    const uint32_t b = e - 1;
    if (t.hashes[b] == hash &&
        RowAtATimeKeysEqual(t, probe_keys, probe, probe_row, b) && !fn(b)) {
      return;
    }
  }
}

// The ProbeJoinBatch built on that walk: a partitioned inner probe
// routes rows once and gathers build rows per partition.
void RowAtATimeProbe(const PartitionedJoinTable& table,
                     const std::vector<size_t>& probe_keys, JoinKind kind,
                     const Batch& in, Batch* out, JoinProbeScratch* s) {
  const size_t n = in.num_rows();
  const JoinTable& layout = table.parts[0];
  if (!s->proto_init) {
    std::vector<ColumnId> ids;
    for (size_t c = 0; c < in.num_columns(); ++c) {
      ids.push_back(static_cast<ColumnId>(c));
      s->out_proto.columns().emplace_back(in.column(c).type());
    }
    if (kind == JoinKind::kInner) {
      for (size_t c = 0; c < layout.rows.num_columns(); ++c) {
        ids.push_back(static_cast<ColumnId>(in.num_columns() + c));
        s->out_proto.columns().emplace_back(layout.rows.column(c).type());
      }
    }
    s->out_proto.set_column_ids(std::move(ids));
    s->proto_init = true;
  }
  out->ResetLike(s->out_proto);
  s->hashes.assign(n, kHashSeed);
  for (size_t k : probe_keys) in.column(k).HashColumn(s->hashes.data());
  if (kind == JoinKind::kInner) {
    const bool partitioned = table.parts.size() > 1;
    if (partitioned) {
      s->part_rows.resize(table.parts.size());
      for (SelVector& pr : s->part_rows) pr.clear();
      for (size_t row = 0; row < n; ++row) {
        s->part_rows[table.PartitionOf(s->hashes[row])].push_back(
            static_cast<uint32_t>(row));
      }
    }
    s->probe_sel.clear();
    for (size_t p = 0; p < table.parts.size(); ++p) {
      const JoinTable& part = table.parts[p];
      const size_t count = partitioned ? s->part_rows[p].size() : n;
      s->build_sel.clear();
      for (size_t i = 0; i < count; ++i) {
        const uint32_t row = partitioned ? s->part_rows[p].indices()[i]
                                         : static_cast<uint32_t>(i);
        RowAtATimeForEachMatch(part, s->hashes[row], probe_keys, in, row,
                               [&](uint32_t b) {
                                 s->probe_sel.push_back(row);
                                 s->build_sel.push_back(b);
                                 return true;
                               });
      }
      for (size_t c = 0; c < part.rows.num_columns(); ++c) {
        out->column(in.num_columns() + c)
            .AppendGather(part.rows.column(c), s->build_sel);
      }
    }
    for (size_t c = 0; c < in.num_columns(); ++c) {
      out->column(c).AppendGather(in.column(c), s->probe_sel);
    }
    return;
  }
  const bool want = kind == JoinKind::kLeftSemi;
  s->keep.Reset(n);
  for (size_t row = 0; row < n; ++row) {
    bool matched = false;
    RowAtATimeForEachMatch(table.parts[table.PartitionOf(s->hashes[row])],
                           s->hashes[row], probe_keys, in, row,
                           [&](uint32_t) {
                             matched = true;
                             return false;
                           });
    s->keep.SetTo(row, matched == want);
  }
  out->AppendFiltered(in, s->keep);
}

struct JoinProbeArgs {
  const PartitionedJoinTable* table;
  const std::vector<Batch>* probe_slices;
  JoinKind kind;
};

// Probes every slice through `probe`; returns the output row count.
template <typename Probe>
size_t ProbeSlices(const JoinProbeArgs& a, Probe probe) {
  const std::vector<size_t> keys{0};
  JoinProbeScratch scratch;
  Batch out;
  size_t out_rows = 0;
  for (const Batch& in : *a.probe_slices) {
    probe(keys, in, &out, &scratch);
    out_rows += out.num_rows();
  }
  return out_rows;
}

size_t JoinProbeBaselineRows(const JoinProbeArgs& a) {
  return ProbeSlices(a, [&](const std::vector<size_t>& keys, const Batch& in,
                            Batch* out, JoinProbeScratch* s) {
    RowAtATimeProbe(*a.table, keys, a.kind, in, out, s);
  });
}

size_t JoinProbeKernelRows(const JoinProbeArgs& a) {
  return ProbeSlices(a, [&](const std::vector<size_t>& keys, const Batch& in,
                            Batch* out, JoinProbeScratch* s) {
    ProbeJoinBatch(*a.table, keys, a.kind, in, out, s);
  });
}

double JoinProbeBaselineMs(const void* p) {
  Stopwatch sw;
  const size_t out_rows =
      JoinProbeBaselineRows(*static_cast<const JoinProbeArgs*>(p));
  const double ms = sw.ElapsedMillis();
  if (out_rows == 0) std::abort();
  return ms;
}

double JoinProbeKernelMs(const void* p) {
  Stopwatch sw;
  const size_t out_rows =
      JoinProbeKernelRows(*static_cast<const JoinProbeArgs*>(p));
  const double ms = sw.ElapsedMillis();
  if (out_rows == 0) std::abort();
  return ms;
}

// A build side of `keys` (shuffled) with an int64 payload, split into
// `partitions` hash partitions as the partitioned build routes them (one
// partition: as the serial join builds it).
PartitionedJoinTable MakeProbeBuild(std::vector<int64_t> keys,
                                    size_t partitions, Random* rng) {
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng->Uniform(i)]);
  }
  ColumnVector key_col(TypeId::kInt64);
  key_col.ints() = std::move(keys);
  std::vector<uint64_t> hashes(key_col.size(), kHashSeed);
  key_col.HashColumn(hashes.data());
  std::vector<Batch> parts(partitions);
  for (Batch& part : parts) {
    part.columns().emplace_back(TypeId::kInt64);
    part.columns().emplace_back(TypeId::kInt64);
    part.set_column_ids({0, 1});
  }
  for (size_t i = 0; i < key_col.size(); ++i) {
    Batch& part = parts[JoinPartitionOf(hashes[i], partitions)];
    part.column(0).ints().push_back(key_col.ints_data()[i]);
    part.column(1).ints().push_back(static_cast<int64_t>(i));
  }
  PartitionedJoinTable table;
  for (Batch& part : parts) {
    table.parts.push_back(JoinTable::Build(std::move(part), {0}));
  }
  return table;
}

// `rows` probe rows in engine-sized slices: an int64 key uniform over
// [0, key_domain) and a double payload.
std::vector<Batch> MakeProbeSlices(size_t rows, uint64_t key_domain,
                                   Random* rng) {
  std::vector<Batch> slices;
  for (size_t off = 0; off < rows; off += kDefaultBatchSize) {
    const size_t end = std::min(rows, off + kDefaultBatchSize);
    Batch slice;
    slice.columns().emplace_back(TypeId::kInt64);
    slice.columns().emplace_back(TypeId::kDouble);
    for (size_t i = off; i < end; ++i) {
      slice.column(0).ints().push_back(
          static_cast<int64_t>(rng->Uniform(key_domain)));
      slice.column(1).doubles().push_back(rng->NextDouble());
    }
    slice.set_column_ids({0, 1});
    slices.push_back(std::move(slice));
  }
  return slices;
}

void RunJoinProbe(JsonResultWriter* json, size_t rows, int reps) {
  std::printf("join_probe\n");
  json->Metric("join_probe", "rows", static_cast<double>(rows));
  Random rng(43);
  const size_t distinct = std::max<size_t>(rows * 15 / 100, 1);
  const size_t dup_keys = std::max<size_t>(distinct / 8, 1);
  struct Shape {
    const char* name;
    JoinKind kind;
    size_t build_keys;  // distinct keys k * 4 ...
    size_t copies;      // ... each this many times
    size_t partitions;
  } shapes[] = {
      {"inner_unique", JoinKind::kInner, distinct, 1, 1},
      {"semi_small", JoinKind::kLeftSemi, 2400, 1, 1},
      {"inner_dups", JoinKind::kInner, dup_keys, 8, 1},
      {"inner_dups_p8", JoinKind::kInner, dup_keys, 8, 8},
  };
  for (const Shape& shape : shapes) {
    std::vector<int64_t> keys;
    for (size_t c = 0; c < shape.copies; ++c) {
      for (size_t k = 0; k < shape.build_keys; ++k) {
        keys.push_back(static_cast<int64_t>(k) * 4);
      }
    }
    const PartitionedJoinTable table =
        MakeProbeBuild(std::move(keys), shape.partitions, &rng);
    // Keys k * 4 over [0, 4 * keys) hit ~25%; the semi shape probes
    // [0, 10 * keys) for ~10%.
    const uint64_t domain =
        (shape.kind == JoinKind::kLeftSemi ? 10 : 4) * shape.build_keys;
    const std::vector<Batch> slices = MakeProbeSlices(rows, domain, &rng);
    const JoinProbeArgs args{&table, &slices, shape.kind};
    // Warm, and check both probes emit the same rows.
    const size_t out_rows = JoinProbeBaselineRows(args);
    if (JoinProbeKernelRows(args) != out_rows || out_rows == 0) std::abort();
    const double base_ms = BestOf(reps, JoinProbeBaselineMs, &args);
    const double kern_ms = BestOf(reps, JoinProbeKernelMs, &args);
    const double base_mrps = static_cast<double>(rows) / base_ms / 1e3;
    const double kern_mrps = static_cast<double>(rows) / kern_ms / 1e3;
    std::printf("  %-22s %10.2f ms -> %8.2f ms   %7.1f -> %7.1f Mrows/s   "
                "%5.2fx\n",
                shape.name, base_ms, kern_ms, base_mrps, kern_mrps,
                base_ms / kern_ms);
    const std::string prefix(shape.name);
    json->Metric("join_probe", prefix + "_out_rows",
                 static_cast<double>(out_rows));
    json->Metric("join_probe", prefix + "_baseline_ms", base_ms);
    json->Metric("join_probe", prefix + "_kernel_ms", kern_ms);
    json->Metric("join_probe", prefix + "_speedup", base_ms / kern_ms);
  }
}

// ------------------------------------------------------------------
// Compressed-execution ablations: the same data flowing through the
// same operators, stored once with encoded execution on (dictionary
// codes, RLE sidecars, zero-copy borrows) and once decoded to plain
// (the differential-reference path). Baseline = decoded / decode-first,
// kernel = encoded. Tables are pre-warmed so this measures execution,
// not chunk decode.
// ------------------------------------------------------------------

std::shared_ptr<const Schema> CompressedSchema() {
  auto s = Schema::Make({{"k", TypeId::kInt64},
                         {"g", TypeId::kString},
                         {"r", TypeId::kInt64},
                         {"v", TypeId::kDouble}},
                        {0});
  return std::make_shared<const Schema>(std::move(*s));
}

std::unique_ptr<Table> BuildCompressedTable(size_t rows, bool encoded) {
  TableOptions opts;
  opts.store.chunk_rows = 65536;
  opts.store.encoded_exec = encoded;
  if (encoded) {
    opts.store.forced_encodings = {Encoding::kPlain, Encoding::kDict,
                                   Encoding::kRle, Encoding::kPlain};
  }
  auto t = std::make_unique<Table>("compressed", CompressedSchema(), opts);
  // ~1000 distinct group strings (per-chunk dictionaries stay small) of
  // realistic length, and an int column in runs of 512 (RLE-friendly).
  std::vector<std::string> groups;
  groups.reserve(1000);
  for (int g = 0; g < 1000; ++g) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "segment_%04d_of_catalog", g);
    groups.push_back(buf);
  }
  Random rng(23);
  std::vector<ColumnVector> data;
  data.emplace_back(TypeId::kInt64);
  data.emplace_back(TypeId::kString);
  data.emplace_back(TypeId::kInt64);
  data.emplace_back(TypeId::kDouble);
  for (auto& c : data) c.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    data[0].ints().push_back(static_cast<int64_t>(i));
    data[1].strings().push_back(groups[rng.Uniform(1000)]);
    data[2].ints().push_back(static_cast<int64_t>(i / 512));
    data[3].doubles().push_back(rng.NextDouble() * 100.0);
  }
  Status st = t->LoadColumns(std::move(data));
  if (!st.ok()) std::abort();
  // Warm the pool so the timed loops never decode.
  Batch b;
  auto scan = t->Scan({0, 1, 2, 3});
  while (true) {
    auto more = scan->Next(&b, kDefaultBatchSize);
    if (!more.ok() || !*more) break;
  }
  return t;
}

struct TableArgs {
  const Table* table;
  int64_t lo = 0, hi = 0;  // rle_predicate range
};

double DictGroupByMs(const void* p) {
  const auto* a = static_cast<const TableArgs*>(p);
  Stopwatch sw;
  // Batch layout: 0 = g (string group key), 1 = v.
  HashAggNode agg(a->table->Scan({1, 3}), {0},
                  {{AggKind::kCount, 0}, {AggKind::kSum, 1}});
  Batch out;
  auto more = agg.Next(&out, std::numeric_limits<size_t>::max());
  double ms = sw.ElapsedMillis();
  if (!more.ok() || !*more || out.num_rows() == 0) std::abort();
  return ms;
}

double RlePredicateMs(const void* p) {
  const auto* a = static_cast<const TableArgs*>(p);
  Stopwatch sw;
  // Batch layout: 0 = k, 1 = r (run-length column).
  FilterNode f(a->table->Scan({0, 2}), Int64Between(1, a->lo, a->hi));
  Batch b;
  size_t survivors = 0;
  while (true) {
    auto more = f.Next(&b, kDefaultBatchSize);
    if (!more.ok()) std::abort();
    if (!*more) break;
    survivors += b.num_rows();
  }
  double ms = sw.ElapsedMillis();
  if (survivors == 0) std::abort();
  return ms;
}

// Zero-copy scan ablation: both paths consume the same encoded table;
// the baseline materializes every batch column to owned-plain storage
// first (what pre-borrow scans effectively did: copy out of the pool,
// decode dictionary codes to strings), the kernel reads the borrowed
// spans in place.
uint64_t ScanChecksum(const Table& table, bool decode_first) {
  Batch b;
  auto scan = table.Scan({0, 1, 2, 3});
  uint64_t sum = 0;
  while (true) {
    auto more = scan->Next(&b, kDefaultBatchSize);
    if (!more.ok() || !*more) break;
    if (decode_first) {
      for (size_t c = 0; c < b.num_columns(); ++c) {
        b.column(c).EnsureOwnedPlain();
      }
    }
    const int64_t* k = b.column(0).ints_data();
    const int64_t* r = b.column(2).ints_data();
    for (size_t i = 0; i < b.num_rows(); ++i) {
      sum += static_cast<uint64_t>(k[i]) + static_cast<uint64_t>(r[i]);
    }
    sum += b.column(1).StringAt(0).size();
  }
  return sum;
}

double ScanDecodeFirstMs(const void* p) {
  const auto* a = static_cast<const TableArgs*>(p);
  Stopwatch sw;
  if (ScanChecksum(*a->table, true) == 0) std::abort();
  return sw.ElapsedMillis();
}

double ScanZeroCopyMs(const void* p) {
  const auto* a = static_cast<const TableArgs*>(p);
  Stopwatch sw;
  if (ScanChecksum(*a->table, false) == 0) std::abort();
  return sw.ElapsedMillis();
}

// ------------------------------------------------------------------
// Sparse PDT merge scan: a table carrying a 0.1% refresh (scattered
// INS/DEL entries in its PDT) against its checkpointed twin, both
// drained over every column through Table::Scan. Long stable runs pass
// through the merge as borrowed slices, so the ratio measures what the
// delta still costs a scan.
// ------------------------------------------------------------------

// Even keys 0, 2, 4, ... so refresh inserts (odd keys) land between
// stable rows.
std::unique_ptr<Table> BuildRefreshTwin(size_t rows, uint64_t seed,
                                        bool checkpoint) {
  auto s = Schema::Make({{"k", TypeId::kInt64},
                         {"g", TypeId::kString},
                         {"v", TypeId::kDouble}},
                        {0});
  auto t = std::make_unique<Table>(
      "refresh", std::make_shared<const Schema>(std::move(*s)),
      TableOptions{});
  std::vector<ColumnVector> data;
  data.emplace_back(TypeId::kInt64);
  data.emplace_back(TypeId::kString);
  data.emplace_back(TypeId::kDouble);
  for (size_t i = 0; i < rows; ++i) {
    data[0].ints().push_back(static_cast<int64_t>(2 * i));
    data[1].strings().push_back("g" + std::to_string(i % 97));
    data[2].doubles().push_back(static_cast<double>(i % 1000));
  }
  if (!t->LoadColumns(std::move(data)).ok()) std::abort();
  // One entry per 1000 rows, half inserts and half deletes.
  Random rng(seed);
  const size_t entries = std::max<size_t>(rows / 1000, 2);
  for (size_t e = 0; e < entries; ++e) {
    const int64_t pos = static_cast<int64_t>(rng.Uniform(rows));
    // A repeated position just fails (duplicate key / missing key).
    if (e % 2 == 0) {
      (void)t->Insert({2 * pos + 1, std::string("ins"), 0.5});
    } else {
      (void)t->DeleteByKey({Value(2 * pos)});
    }
  }
  if (checkpoint && !t->Checkpoint().ok()) std::abort();
  return t;
}

double DrainAllColumnsMs(const void* p) {
  const auto* a = static_cast<const TableArgs*>(p);
  Stopwatch sw;
  Batch b;
  auto scan = a->table->Scan({0, 1, 2});
  uint64_t sum = 0;
  while (true) {
    auto more = scan->Next(&b, kDefaultBatchSize);
    if (!more.ok()) std::abort();
    if (!*more) break;
    const int64_t* k = b.column(0).ints_data();
    for (size_t i = 0; i < b.num_rows(); ++i) {
      sum += static_cast<uint64_t>(k[i]);
    }
    sum += b.column(1).StringAt(0).size() +
           static_cast<uint64_t>(b.column(2).GetValue(0).AsDouble());
  }
  double ms = sw.ElapsedMillis();
  if (sum == 0) std::abort();
  return ms;
}

// ------------------------------------------------------------------
// Chunk decode: every stable chunk of a table with one column per
// encoding, decoded through DecodeChunk with keep_encoded as a buffer
// pool miss does. Reported per encoding in M values/s, and as a ratio
// to a memcpy of the same decoded bytes in the same run.
// ------------------------------------------------------------------

struct DecodeColumnSpec {
  const char* name;
  TypeId type;
  Encoding encoding;
};

// Column order of BuildDecodeTable's schema.
constexpr DecodeColumnSpec kDecodeColumns[] = {
    {"plain_double", TypeId::kDouble, Encoding::kPlain},
    {"for", TypeId::kInt64, Encoding::kForBitPack},
    {"delta", TypeId::kInt64, Encoding::kDeltaVarint},
    {"dict", TypeId::kString, Encoding::kDict},
    {"rle", TypeId::kInt64, Encoding::kRle},
    {"rle_string", TypeId::kString, Encoding::kRle},
};

std::unique_ptr<Table> BuildDecodeTable(size_t rows) {
  std::vector<ColumnDef> defs;
  TableOptions opts;
  for (const auto& c : kDecodeColumns) {
    defs.push_back({c.name, c.type});
    opts.store.forced_encodings.push_back(c.encoding);
  }
  // The delta column is the sort key: ascending with gaps of 1..1000.
  auto s = Schema::Make(std::move(defs), {2});
  auto t = std::make_unique<Table>(
      "decode", std::make_shared<const Schema>(std::move(*s)), opts);
  std::vector<std::string> names;
  for (int g = 0; g < 100; ++g) {
    names.push_back("SHIPMODE_" + std::to_string(g));
  }
  Random rng(31);
  std::vector<ColumnVector> data;
  for (const auto& c : kDecodeColumns) data.emplace_back(c.type);
  auto& d = data[0].doubles();
  auto& f = data[1].ints();
  auto& k = data[2].ints();
  auto& g = data[3].strings();
  auto& r = data[4].ints();
  auto& rs = data[5].strings();
  // The run-length string column has l_linestatus's shape: a few short
  // values in runs, each value returning in many runs.
  const std::string statuses[] = {"F", "O", "P"};
  int64_t key = 0;
  int64_t run_value = 0;
  size_t run_left = 0;
  for (size_t i = 0; i < rows; ++i) {
    d.push_back(rng.NextDouble() * 1e5);
    f.push_back(static_cast<int64_t>(rng.Uniform(50000)));
    key += 1 + static_cast<int64_t>(rng.Uniform(1000));
    k.push_back(key);
    g.push_back(names[rng.Uniform(names.size())]);
    if (run_left == 0) {
      run_left = 8 + rng.Uniform(57);  // runs of 8..64 rows
      run_value = static_cast<int64_t>(rng.Uniform(1000));
    }
    r.push_back(run_value);
    rs.push_back(statuses[run_value % 3]);
    --run_left;
  }
  if (!t->LoadColumns(std::move(data)).ok()) std::abort();
  for (ColumnId c = 0; c < std::size(kDecodeColumns); ++c) {
    if (t->store().chunk_meta(c, 0).encoding != kDecodeColumns[c].encoding) {
      std::abort();  // a forced encoding fell back to plain
    }
  }
  return t;
}

// Decodes every chunk of column `col` once; returns the elapsed ms.
double DecodeColumnChunksMs(const ColumnStore& store, ColumnId col) {
  Stopwatch sw;
  ColumnVector out;
  size_t rows = 0;
  for (size_t ci = 0; ci < store.num_chunks(); ++ci) {
    if (!DecodeChunk(store.chunk_meta(col, ci), &out, true).ok()) {
      std::abort();
    }
    rows += out.size();
  }
  double ms = sw.ElapsedMillis();
  if (rows == 0) std::abort();
  return ms;
}

void RunChunkDecode(JsonResultWriter* json, size_t rows, int reps) {
  auto table = BuildDecodeTable(rows);
  const ColumnStore& store = table->store();
  const size_t ncols = std::size(kDecodeColumns);
  size_t decoded_bytes = 0;
  for (ColumnId c = 0; c < ncols; ++c) {
    for (size_t ci = 0; ci < store.num_chunks(); ++ci) {
      ColumnVector out;
      if (!DecodeChunk(store.chunk_meta(c, ci), &out, true).ok()) {
        std::abort();
      }
      decoded_bytes += out.ByteSize();
    }
  }
  std::vector<double> best(ncols, std::numeric_limits<double>::infinity());
  for (int rep = 0; rep < reps; ++rep) {
    for (ColumnId c = 0; c < ncols; ++c) {
      best[c] = std::min(best[c], DecodeColumnChunksMs(store, c));
    }
  }
  std::vector<char> src(decoded_bytes, 1), dst(decoded_bytes);
  double copy_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch sw;
    std::memcpy(dst.data(), src.data(), decoded_bytes);
    copy_ms = std::min(copy_ms, sw.ElapsedMillis());
    if (dst[decoded_bytes / 2] != 1) std::abort();
  }
  double decode_ms = 0;
  for (double ms : best) decode_ms += ms;
  std::printf("%-24s %10.2f ms decode vs %8.2f ms memcpy of %.1f MB   "
              "%5.1fx\n",
              "chunk_decode", decode_ms, copy_ms, decoded_bytes / 1e6,
              decode_ms / copy_ms);
  json->Metric("chunk_decode", "rows", static_cast<double>(rows));
  json->Metric("chunk_decode", "decode_ms", decode_ms);
  for (ColumnId c = 0; c < ncols; ++c) {
    const double mvals = static_cast<double>(rows) / best[c] / 1e3;
    std::printf("  %-22s %10.1f M values/s\n", kDecodeColumns[c].name, mvals);
    json->Metric("chunk_decode",
                 std::string(kDecodeColumns[c].name) + "_mvals_per_s", mvals);
  }
  json->Metric("chunk_decode", "copy_ms", copy_ms);
  json->Metric("chunk_decode", "decode_over_copy", decode_ms / copy_ms);
}

// ------------------------------------------------------------------
// Group assign with Q1's shape: 4 groups over two string keys, in
// engine-sized batches whose dictionary changes every 16 batches (one
// dictionary per storage chunk, each in its own appearance order).
// Shapes: a plain key with a dictionary key (l_linestatus decoded plain,
// l_returnflag coded) and two dictionary keys. Baseline = the row-at-a-
// time assign the engine used before: probe, then one CompareAt per key
// column per row, keys stored as ColumnVectors. Kernel = AggregationState
// (hash probe, one typed verify kernel per key column, re-probe of the
// unresolved rows) with a COUNT, the only aggregate both paths run.
// ------------------------------------------------------------------

std::vector<Batch> MakeGroupAssignBatches(size_t rows, bool plain_first) {
  // Q1's four (returnflag, linestatus) groups.
  const char* const kGroups[4][2] = {
      {"A", "F"}, {"N", "F"}, {"N", "O"}, {"R", "F"}};
  Random rng(41);
  std::vector<Batch> batches;
  std::shared_ptr<StringDict> flags, statuses;
  for (size_t off = 0, b = 0; off < rows; off += kDefaultBatchSize, ++b) {
    if (b % 16 == 0) {
      // A new chunk: its dictionaries list the values in a new order.
      flags = std::make_shared<StringDict>();
      statuses = std::make_shared<StringDict>();
      for (size_t i = 0; i < 3; ++i) {
        flags->values.push_back(std::string(1, "ANR"[(b / 16 + i) % 3]));
      }
      for (size_t i = 0; i < 2; ++i) {
        statuses->values.push_back(std::string(1, "FO"[(b / 16 + i) % 2]));
      }
      for (auto* d : {flags.get(), statuses.get()}) {
        for (const auto& v : d->values) {
          d->hashes.push_back(HashBytes(v.data(), v.size()));
        }
      }
    }
    auto code_of = [](const StringDict& d, const char* v) {
      return static_cast<uint32_t>(
          std::find(d.values.begin(), d.values.end(), v) - d.values.begin());
    };
    Batch batch;
    batch.columns().emplace_back(TypeId::kString);
    batch.columns().emplace_back(TypeId::kString);
    batch.set_column_ids({0, 1});
    ColumnVector& flag = batch.column(0);
    ColumnVector& status = batch.column(1);
    flag.AdoptDict(flags);
    if (!plain_first) status.AdoptDict(statuses);
    const size_t end = std::min(rows, off + kDefaultBatchSize);
    for (size_t i = off; i < end; ++i) {
      const auto& g = kGroups[rng.Uniform(4)];
      flag.codes().push_back(code_of(*flags, g[0]));
      if (plain_first) {
        status.strings().push_back(g[1]);
      } else {
        status.codes().push_back(code_of(*statuses, g[1]));
      }
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

// The row-at-a-time assign (see the section comment), counting rows per
// group; returns the number of groups.
size_t RowAtATimeAssign(const std::vector<Batch>& batches) {
  std::vector<ColumnVector> keys;
  std::vector<uint64_t> group_hashes;
  std::vector<int64_t> counts;
  std::vector<uint32_t> slots(1024, 0);
  const size_t mask = slots.size() - 1;
  std::vector<uint64_t> hashes;
  for (const Batch& in : batches) {
    if (keys.empty()) {
      for (size_t c = 0; c < in.num_columns(); ++c) {
        keys.emplace_back(in.column(c).type());
      }
    }
    const size_t n = in.num_rows();
    hashes.assign(n, kHashSeed);
    for (size_t c = 0; c < in.num_columns(); ++c) {
      in.column(c).HashColumn(hashes.data());
    }
    for (size_t row = 0; row < n; ++row) {
      const uint64_t h = hashes[row];
      size_t pos = h & mask;
      uint32_t gid;
      while (true) {
        const uint32_t slot = slots[pos];
        if (slot == 0) {
          gid = static_cast<uint32_t>(group_hashes.size());
          slots[pos] = gid + 1;
          group_hashes.push_back(h);
          for (size_t c = 0; c < keys.size(); ++c) {
            keys[c].AppendFrom(in.column(c), row);
          }
          counts.push_back(0);
          break;
        }
        gid = slot - 1;
        if (group_hashes[gid] == h) {
          bool equal = true;
          for (size_t c = 0; c < keys.size(); ++c) {
            if (keys[c].CompareAt(gid, in.column(c), row) != 0) {
              equal = false;
              break;
            }
          }
          if (equal) break;
        }
        pos = (pos + 1) & mask;
      }
      ++counts[gid];
    }
  }
  return counts.size();
}

double GroupAssignBaselineMs(const void* p) {
  const auto* batches = static_cast<const std::vector<Batch>*>(p);
  Stopwatch sw;
  const size_t groups = RowAtATimeAssign(*batches);
  const double ms = sw.ElapsedMillis();
  if (groups == 0 || groups > 4) std::abort();
  return ms;
}

double GroupAssignKernelMs(const void* p) {
  const auto* batches = static_cast<const std::vector<Batch>*>(p);
  Stopwatch sw;
  AggregationState state({0, 1}, {{AggKind::kCount, 0}});
  for (const Batch& b : *batches) {
    if (!state.Absorb(b).ok()) std::abort();
  }
  const double ms = sw.ElapsedMillis();
  if (state.num_groups() == 0 || state.num_groups() > 4) std::abort();
  return ms;
}

void RunGroupAssign(JsonResultWriter* json, size_t rows, int reps) {
  std::printf("group_assign\n");
  json->Metric("group_assign", "rows", static_cast<double>(rows));
  for (bool plain_first : {true, false}) {
    const std::vector<Batch> batches =
        MakeGroupAssignBatches(rows, plain_first);
    (void)GroupAssignBaselineMs(&batches);  // warm
    (void)GroupAssignKernelMs(&batches);
    const double base_ms = BestOf(reps, GroupAssignBaselineMs, &batches);
    const double kern_ms = BestOf(reps, GroupAssignKernelMs, &batches);
    const char* name = plain_first ? "plain_dict" : "dict_dict";
    const double base_mrps = static_cast<double>(rows) / base_ms / 1e3;
    const double kern_mrps = static_cast<double>(rows) / kern_ms / 1e3;
    std::printf("  %-22s %10.2f ms -> %8.2f ms   %7.1f -> %7.1f Mrows/s   "
                "%5.2fx\n",
                name, base_ms, kern_ms, base_mrps, kern_mrps,
                base_ms / kern_ms);
    const std::string prefix(name);
    json->Metric("group_assign", prefix + "_baseline_ms", base_ms);
    json->Metric("group_assign", prefix + "_kernel_ms", kern_ms);
    json->Metric("group_assign", prefix + "_speedup", base_ms / kern_ms);
  }
}

}  // namespace
}  // namespace bench
}  // namespace pdtstore

int main(int argc, char** argv) {
  using namespace pdtstore;
  using namespace pdtstore::bench;
  // The anti-elision sanity guards assume at least a few survivors.
  const size_t rows = static_cast<size_t>(
      FlagNumber<int64_t>(argc, argv, "rows", "1000000", 64));
  const int reps = FlagNumber<int>(argc, argv, "reps", "5", 1);
  const std::string json_path =
      FlagValue(argc, argv, "json", "BENCH_exec.json");

  std::printf(
      "=== Selection-vector execution kernels vs row-at-a-time baseline "
      "(%zu rows) ===\n%-24s %*s\n",
      rows, "bench", 62, "baseline -> kernel");

  Batch input = MakeWideBatch(rows, /*seed=*/11);
  JsonResultWriter json;

  {
    // Engine-shaped input: kDefaultBatchSize slices with ~50%-selective
    // unpredictable keep bitmaps.
    Random rng(13);
    std::vector<Batch> slices;
    std::vector<std::vector<uint8_t>> keeps;
    for (size_t off = 0; off < rows; off += kDefaultBatchSize) {
      size_t end = std::min(rows, off + kDefaultBatchSize);
      Batch slice = EmptyLike(input);
      for (size_t c = 0; c < input.num_columns(); ++c) {
        slice.column(c).AppendRange(input.column(c), off, end);
      }
      std::vector<uint8_t> keep(end - off);
      for (auto& k : keep) k = rng.Uniform(2);
      slices.push_back(std::move(slice));
      keeps.push_back(std::move(keep));
    }
    FilterArgs args{&slices, &keeps};
    (void)FilterBaselineMs(&args);  // warm
    (void)FilterKernelMs(&args);
    Report(&json, "filter_compact", rows,
           BestOf(reps, FilterBaselineMs, &args),
           BestOf(reps, FilterKernelMs, &args));

    // Whole-batch gather through a 50% selection (join/sort shape).
    std::vector<uint8_t> keep(rows);
    for (auto& k : keep) k = rng.Uniform(2);
    SelVector sel = SelVector::FromKeep(keep.data(), rows);
    GatherArgs gargs{&input, &sel};
    (void)GatherBaselineMs(&gargs);
    (void)GatherKernelMs(&gargs);
    Report(&json, "selection_gather", sel.size(),
           BestOf(reps, GatherBaselineMs, &gargs),
           BestOf(reps, GatherKernelMs, &gargs));

    // Keep-bitmap ablation: byte-per-row keep (baseline) vs 1-bit
    // KeepBitmap (kernel) over the same sliced predicate+compaction
    // path, at 1% / 50% / 99% selectivity. The threshold is column 0's
    // value at the selectivity quantile of the input itself, so it keeps
    // that fraction of rows and never fewer than one, however small
    // --rows is.
    std::vector<int64_t> sorted(input.column(0).ints());
    std::sort(sorted.begin(), sorted.end());
    struct { const char* name; double selectivity; } sweeps[] = {
        {"keep_bitmap_sel1", 0.01},
        {"keep_bitmap_sel50", 0.50},
        {"keep_bitmap_sel99", 0.99},
    };
    for (const auto& sweep : sweeps) {
      const size_t q = static_cast<size_t>(
          sweep.selectivity * static_cast<double>(rows - 1));
      KeepPathArgs kargs{&slices, sorted[q]};
      (void)KeepByteMs(&kargs);  // warm
      (void)KeepBitmapMs(&kargs);
      Report(&json, sweep.name, rows, BestOf(reps, KeepByteMs, &kargs),
             BestOf(reps, KeepBitmapMs, &kargs));
    }
  }

  RunPredicateEval(&json, rows, reps);
  RunProjectRefs(&json, rows, reps);

  {
    // Rewrite column 0 to a bounded group domain (64k groups at 1M rows).
    Random rng(17);
    auto& keys = input.column(0).ints();
    for (size_t i = 0; i < rows; ++i) {
      keys[i] = static_cast<int64_t>(rng.Uniform(rows / 16 + 1));
    }
    AggArgs args{&input};
    (void)AggBaselineMs(&args);
    (void)AggKernelMs(&args);
    Report(&json, "hash_agg", rows, BestOf(reps, AggBaselineMs, &args),
           BestOf(reps, AggKernelMs, &args));
  }

  RunGroupAssign(&json, rows, reps);

  {
    // Join shape (see the section comment above): distinct build keys
    // k * 4 in shuffled order with an int64 payload; probe keys uniform
    // over [0, 4 * build_rows) with a double payload.
    Random rng(19);
    const size_t build_rows = std::max<size_t>(rows * 15 / 100, 1);
    std::vector<int64_t> build_keys(build_rows);
    for (size_t i = 0; i < build_rows; ++i) {
      build_keys[i] = static_cast<int64_t>(i) * 4;
    }
    for (size_t i = build_rows; i > 1; --i) {
      std::swap(build_keys[i - 1], build_keys[rng.Uniform(i)]);
    }
    Batch build;
    build.columns().emplace_back(TypeId::kInt64);
    build.columns().emplace_back(TypeId::kInt64);
    build.column(0).ints() = std::move(build_keys);
    for (size_t i = 0; i < build_rows; ++i) {
      build.column(1).ints().push_back(static_cast<int64_t>(i));
    }
    build.set_column_ids({0, 1});
    std::vector<Batch> probe_slices;
    for (size_t off = 0; off < rows; off += kDefaultBatchSize) {
      const size_t end = std::min(rows, off + kDefaultBatchSize);
      Batch slice;
      slice.columns().emplace_back(TypeId::kInt64);
      slice.columns().emplace_back(TypeId::kDouble);
      for (size_t i = off; i < end; ++i) {
        slice.column(0).ints().push_back(
            static_cast<int64_t>(rng.Uniform(4 * build_rows)));
        slice.column(1).doubles().push_back(rng.NextDouble());
      }
      slice.set_column_ids({0, 1});
      probe_slices.push_back(std::move(slice));
    }
    JoinArgs args{&build, &probe_slices};
    (void)JoinBaselineMs(&args);  // warm
    (void)JoinKernelMs(&args);
    Report(&json, "hash_join", rows, BestOf(reps, JoinBaselineMs, &args),
           BestOf(reps, JoinKernelMs, &args));
  }

  RunJoinProbe(&json, rows, reps);

  {
    // Compressed-execution ablations (see the section comment above).
    auto encoded = BuildCompressedTable(rows, /*encoded=*/true);
    auto decoded = BuildCompressedTable(rows, /*encoded=*/false);

    TableArgs enc{encoded.get()};
    TableArgs dec{decoded.get()};
    (void)DictGroupByMs(&dec);  // warm
    (void)DictGroupByMs(&enc);
    Report(&json, "dict_group_by", rows, BestOf(reps, DictGroupByMs, &dec),
           BestOf(reps, DictGroupByMs, &enc));

    // ~6% selective range over the run-length column.
    enc.lo = dec.lo = static_cast<int64_t>(rows / 512 / 2);
    enc.hi = dec.hi = enc.lo + static_cast<int64_t>(rows / 512 / 16);
    (void)RlePredicateMs(&dec);
    (void)RlePredicateMs(&enc);
    Report(&json, "rle_predicate", rows, BestOf(reps, RlePredicateMs, &dec),
           BestOf(reps, RlePredicateMs, &enc));

    (void)ScanDecodeFirstMs(&enc);
    (void)ScanZeroCopyMs(&enc);
    Report(&json, "zero_copy_scan", rows,
           BestOf(reps, ScanDecodeFirstMs, &enc),
           BestOf(reps, ScanZeroCopyMs, &enc));
  }

  {
    // Sparse PDT merge scan vs the checkpointed twin (see above).
    auto pdt_table = BuildRefreshTwin(rows, 29, /*checkpoint=*/false);
    auto clean_table = BuildRefreshTwin(rows, 29, /*checkpoint=*/true);
    TableArgs pdt_args{pdt_table.get()};
    TableArgs clean_args{clean_table.get()};
    (void)DrainAllColumnsMs(&pdt_args);  // warm
    (void)DrainAllColumnsMs(&clean_args);
    const double pdt_ms = BestOf(reps, DrainAllColumnsMs, &pdt_args);
    const double clean_ms = BestOf(reps, DrainAllColumnsMs, &clean_args);
    std::printf("%-24s %10.2f ms (pdt) vs %8.2f ms (clean)   %5.2fx\n",
                "merge_scan_sparse", pdt_ms, clean_ms, pdt_ms / clean_ms);
    json.Metric("merge_scan_sparse", "rows", static_cast<double>(rows));
    json.Metric("merge_scan_sparse", "pdt_entries",
                static_cast<double>(pdt_table->pdt()->EntryCount()));
    json.Metric("merge_scan_sparse", "pdt_ms", pdt_ms);
    json.Metric("merge_scan_sparse", "clean_ms", clean_ms);
    json.Metric("merge_scan_sparse", "pdt_over_clean", pdt_ms / clean_ms);
  }

  RunChunkDecode(&json, rows, reps);

  if (json.WriteFile(json_path)) {
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
