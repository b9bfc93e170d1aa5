#include "tpch/queries.h"

#include <cmath>

#include "exec/filter.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/operator.h"
#include "exec/pipeline.h"
#include "exec/project.h"
#include "exec/sort.h"

namespace pdtstore {
namespace tpch {

namespace {

using Src = std::unique_ptr<BatchSource>;

// A plan fragment is a Pipeline (exec/pipeline.h): its fragment ops run
// inside the morsel workers, or — on a serial plan — lower to the serial
// operator tree. QueryOptions::num_threads reaches the scan's MorselPlan,
// which alone picks the shape.
using Plan = Pipeline;

// A breaker's output as the serial source of a new fragment.
Plan P(Src src) {
  MorselPlan plan;
  plan.serial = std::move(src);
  return Plan(std::move(plan));
}

Plan Scan(const QueryOptions& o, Table* table, std::vector<ColumnId> proj,
          const KeyBounds* bounds = nullptr) {
  ScanOptions so;
  so.num_threads = o.num_threads;
  return Plan(table->PlanMorsels(std::move(proj), bounds, so));
}

Plan Filter(Plan in, VecPredicate p) {
  return std::move(in.Filter(std::move(p)));
}

Plan Project(Plan in, std::vector<ColumnExpr> exprs) {
  return std::move(in.Project(std::move(exprs)));
}

Plan Agg(Plan in, std::vector<size_t> keys, std::vector<AggSpec> aggs) {
  return P(std::move(in).Aggregate(std::move(keys), std::move(aggs)));
}

// The build side becomes a deferred JoinBuildHandle, resolved — the
// publish barrier — right before the probe side starts.
Plan Join(Plan probe, Plan build, std::vector<size_t> pk,
          std::vector<size_t> bk, JoinKind kind = JoinKind::kInner) {
  return std::move(probe.Probe(
      Pipeline::IntoJoinBuild(std::make_unique<Pipeline>(std::move(build)),
                              std::move(bk)),
      std::move(pk), kind));
}

Src Finish(Plan in) { return std::move(in).Exchange(); }

Src Sort(Plan in, std::vector<SortKey> keys, size_t limit = 0) {
  return std::move(in).IntoSortBuild(std::move(keys), limit);
}

// FNV-1a over `n` bytes, continuing from `h`. The digest has its own
// hash, so a change to the engine's hash functions cannot move it.
uint64_t DigestBytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001B3ULL;
  return h;
}

// Folds every cell of `batch` into `h`, row by row in column order.
uint64_t DigestRows(uint64_t h, const Batch& batch) {
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      const ColumnVector& col = batch.column(c);
      switch (col.type()) {
        case TypeId::kInt64:
          h = DigestBytes(h, col.ints_data() + i, sizeof(int64_t));
          break;
        case TypeId::kDouble:
          h = DigestBytes(h, col.doubles_data() + i, sizeof(double));
          break;
        case TypeId::kString: {
          const std::string& s = col.StringAt(i);
          const uint64_t len = s.size();
          h = DigestBytes(h, &len, sizeof(len));
          h = DigestBytes(h, s.data(), s.size());
          break;
        }
      }
    }
  }
  return h;
}

// Drains a pipeline, counting rows, checksumming numeric cells and
// digesting every cell in output order.
StatusOr<QueryResult> Summarize(Src src) {
  QueryResult result;
  result.digest = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  Batch batch;
  while (true) {
    PDT_ASSIGN_OR_RETURN(bool more, src->Next(&batch, kDefaultBatchSize));
    if (!more) break;
    result.rows += batch.num_rows();
    result.digest = DigestRows(result.digest, batch);
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      const ColumnVector& col = batch.column(c);
      if (col.type() == TypeId::kInt64) {
        const int64_t* v = col.ints_data();
        for (size_t i = 0; i < col.size(); ++i) {
          result.checksum += static_cast<double>(v[i]);
        }
      } else if (col.type() == TypeId::kDouble) {
        const double* v = col.doubles_data();
        for (size_t i = 0; i < col.size(); ++i) result.checksum += v[i];
      }
    }
  }
  return result;
}

StatusOr<QueryResult> Summarize(Plan in) {
  return Summarize(Finish(std::move(in)));
}

// Q1: pricing summary report. Full lineitem scan minus the last ~90 days.
StatusOr<QueryResult> Q1(const TpchTables& t, const QueryOptions& o) {
  Plan scan = Scan(o, t.lineitem,
                   {kLReturnflag, kLLinestatus, kLQuantity, kLExtendedprice,
                    kLDiscount, kLTax, kLShipdate});
  Plan flt = Filter(std::move(scan), Int64Between(6, kMinDate,
                                                  DayNumber(1998, 9, 2)));
  Plan proj = Project(std::move(flt),
                      {ColumnRef(0), ColumnRef(1), ColumnRef(2), ColumnRef(3),
                       Revenue(3, 4), Charge(3, 4, 5), ColumnRef(4)});
  Plan agg = Agg(std::move(proj), {0, 1},
                 {{AggKind::kSum, 2},
                  {AggKind::kSum, 3},
                  {AggKind::kSum, 4},
                  {AggKind::kSum, 5},
                  {AggKind::kAvg, 2},
                  {AggKind::kAvg, 3},
                  {AggKind::kAvg, 6},
                  {AggKind::kCount, 0}});
  return Summarize(Sort(std::move(agg), {{0}, {1}}));
}

// Q2: minimum-cost supplier (part x supplier; no updated tables).
StatusOr<QueryResult> Q2(const TpchTables& t, const QueryOptions& o) {
  Plan part = Scan(o, t.part, {kPPartkey, kPType, kPSize});
  Plan flt = Filter(std::move(part), Int64Between(2, 15, 15));
  Plan supp = Scan(o, t.supplier, {kSSuppkey, kSNationkey, kSAcctbal});
  // Supplier for a part: suppkey ~ partkey mod |supplier| (the generated
  // partsupp relation is implicit).
  Plan proj = Project(std::move(flt),
                      {ColumnRef(0), [](const Batch& b) {
                         ColumnVector out(TypeId::kInt64);
                         const size_t n = b.column(0).size();
                         const int64_t* pk = b.column(0).ints_data();
                         auto& vals = out.ints();
                         vals.resize(n);
                         for (size_t i = 0; i < n; ++i) {
                           vals[i] = 1 + (pk[i] % 25);
                         }
                         return out;
                       }});
  Plan joined = Join(std::move(proj), std::move(supp), {1}, {0});
  Plan agg = Agg(std::move(joined), {3},
                 {{AggKind::kMin, 4}, {AggKind::kCount, 0}});
  return Summarize(Sort(std::move(agg), {{0}}, 100));
}

// Q3: shipping priority. customer(segment) x orders(date<) x lineitem.
StatusOr<QueryResult> Q3(const TpchTables& t, const QueryOptions& o) {
  int64_t cutoff = DayNumber(1995, 3, 15);
  Plan cust = Filter(Scan(o, t.customer, {kCCustkey, kCMktsegment}),
                     StringEquals(1, "BUILDING"));
  KeyBounds order_bounds;
  order_bounds.hi = {Value(cutoff)};
  Plan ord = Scan(o, t.orders,
                  {kOOrderkey, kOCustkey, kOOrderdate, kOShippriority},
                  &order_bounds);
  Plan ord_flt =
      Filter(std::move(ord), Int64Between(2, kMinDate, cutoff - 1));
  Plan ord_cust = Join(std::move(ord_flt), std::move(cust), {1}, {0},
                       JoinKind::kLeftSemi);
  Plan line = Filter(
      Scan(o, t.lineitem,
           {kLOrderkey, kLExtendedprice, kLDiscount, kLShipdate}),
      Int64Between(3, cutoff + 1, kMaxDate));
  Plan joined = Join(std::move(line), std::move(ord_cust), {0}, {0});
  Plan proj = Project(std::move(joined),
                      {ColumnRef(0), Revenue(1, 2), ColumnRef(6),
                       ColumnRef(7)});
  Plan agg = Agg(std::move(proj), {0, 2, 3},
                 {{AggKind::kSum, 1}});
  return Summarize(Sort(std::move(agg), {{3, true}, {1}}, 10));
}

// Q4: order priority checking. orders(quarter) semi-join late lineitems.
StatusOr<QueryResult> Q4(const TpchTables& t, const QueryOptions& o) {
  int64_t lo = DayNumber(1993, 7, 1), hi = DayNumber(1993, 10, 1) - 1;
  KeyBounds bounds;
  bounds.lo = {Value(lo)};
  bounds.hi = {Value(hi)};
  Plan ord = Scan(o, t.orders, {kOOrderdate, kOOrderkey, kOOrderpriority},
                  &bounds);
  Plan ord_flt = Filter(std::move(ord), Int64Between(0, lo, hi));
  Plan late = Filter(Scan(o, t.lineitem,
                          {kLOrderkey, kLCommitdate, kLReceiptdate}),
                     [](const Batch& b, KeepBitmap* keep) {
                       const int64_t* commit = b.column(1).ints_data();
                       const int64_t* receipt = b.column(2).ints_data();
                       keep->FillFrom(
                           [&](size_t i) { return commit[i] < receipt[i]; });
                     });
  Plan semi = Join(std::move(ord_flt), std::move(late), {1}, {0},
                   JoinKind::kLeftSemi);
  Plan agg = Agg(std::move(semi), {2}, {{AggKind::kCount, 0}});
  return Summarize(Sort(std::move(agg), {{0}}));
}

// Q5: local supplier volume. lineitem x orders(year) x customer nation.
StatusOr<QueryResult> Q5(const TpchTables& t, const QueryOptions& o) {
  int64_t lo = DayNumber(1994, 1, 1), hi = DayNumber(1995, 1, 1) - 1;
  KeyBounds bounds;
  bounds.lo = {Value(lo)};
  bounds.hi = {Value(hi)};
  Plan ord = Filter(Scan(o, t.orders, {kOOrderdate, kOOrderkey, kOCustkey},
                         &bounds),
                    Int64Between(0, lo, hi));
  Plan cust = Scan(o, t.customer, {kCCustkey, kCNationkey});
  Plan ord_cust = Join(std::move(ord), std::move(cust), {2}, {0});
  Plan line = Scan(o, t.lineitem,
                   {kLOrderkey, kLSuppkey, kLExtendedprice, kLDiscount});
  Plan joined = Join(std::move(line), std::move(ord_cust), {0}, {1});
  // nation of the customer groups the revenue.
  Plan proj = Project(std::move(joined), {ColumnRef(8), Revenue(2, 3)});
  Plan agg = Agg(std::move(proj), {0}, {{AggKind::kSum, 1}});
  return Summarize(Sort(std::move(agg), {{1, true}}));
}

// Q6: forecasting revenue change. Pure lineitem scan (the paper's
// poster-child for merge CPU overhead).
StatusOr<QueryResult> Q6(const TpchTables& t, const QueryOptions& o) {
  int64_t lo = DayNumber(1994, 1, 1), hi = DayNumber(1995, 1, 1) - 1;
  Plan scan = Scan(o, t.lineitem,
                   {kLShipdate, kLDiscount, kLQuantity, kLExtendedprice});
  Plan flt = Filter(std::move(scan),
                    And({Int64Between(0, lo, hi),
                         DoubleInRange(1, 0.05, 0.0701),
                         DoubleInRange(2, 0.0, 24.0)}));
  Plan proj = Project(std::move(flt), {[](const Batch& b) {
    ColumnVector out(TypeId::kDouble);
    const size_t n = b.column(3).size();
    const double* price = b.column(3).doubles_data();
    const double* disc = b.column(1).doubles_data();
    auto& vals = out.doubles();
    vals.resize(n);
    for (size_t i = 0; i < n; ++i) {
      vals[i] = price[i] * disc[i];
    }
    return out;
  }});
  return Summarize(Agg(std::move(proj), {}, {{AggKind::kSum, 0}}));
}

// Q7: volume shipping between two nations, grouped by year.
StatusOr<QueryResult> Q7(const TpchTables& t, const QueryOptions& o) {
  int64_t lo = DayNumber(1995, 1, 1), hi = DayNumber(1996, 12, 31);
  Plan line = Filter(Scan(o, t.lineitem,
                          {kLOrderkey, kLSuppkey, kLShipdate,
                           kLExtendedprice, kLDiscount}),
                     Int64Between(2, lo, hi));
  Plan supp = Filter(Scan(o, t.supplier, {kSSuppkey, kSNationkey}),
                     Int64Between(1, 6, 7));  // FRANCE / GERMANY
  Plan line_supp = Join(std::move(line), std::move(supp), {1}, {0},
                        JoinKind::kLeftSemi);
  Plan ord = Scan(o, t.orders, {kOOrderkey, kOCustkey});
  Plan joined = Join(std::move(line_supp), std::move(ord), {0}, {0});
  Plan proj = Project(std::move(joined), {[](const Batch& b) {
                        ColumnVector out(TypeId::kInt64);
                        const size_t n = b.column(2).size();
                        const int64_t* d = b.column(2).ints_data();
                        auto& vals = out.ints();
                        vals.resize(n);
                        for (size_t i = 0; i < n; ++i) {
                          vals[i] = 1992 + d[i] / 365;
                        }
                        return out;
                      },
                      Revenue(3, 4)});
  Plan agg = Agg(std::move(proj), {0}, {{AggKind::kSum, 1}});
  return Summarize(Sort(std::move(agg), {{0}}));
}

// Q8: national market share by year.
StatusOr<QueryResult> Q8(const TpchTables& t, const QueryOptions& o) {
  int64_t lo = DayNumber(1995, 1, 1), hi = DayNumber(1996, 12, 31);
  Plan part = Filter(Scan(o, t.part, {kPPartkey, kPType}),
                     StringEquals(1, "ECONOMY ANODIZED STEEL"));
  Plan line = Scan(o, t.lineitem,
                   {kLOrderkey, kLPartkey, kLExtendedprice, kLDiscount});
  Plan line_part = Join(std::move(line), std::move(part), {1}, {0},
                        JoinKind::kLeftSemi);
  KeyBounds bounds;
  bounds.lo = {Value(lo)};
  bounds.hi = {Value(hi)};
  Plan ord = Filter(Scan(o, t.orders, {kOOrderdate, kOOrderkey}, &bounds),
                    Int64Between(0, lo, hi));
  Plan joined = Join(std::move(line_part), std::move(ord), {0}, {1});
  Plan proj = Project(std::move(joined), {[](const Batch& b) {
                        ColumnVector out(TypeId::kInt64);
                        const size_t n = b.column(4).size();
                        const int64_t* d = b.column(4).ints_data();
                        auto& vals = out.ints();
                        vals.resize(n);
                        for (size_t i = 0; i < n; ++i) {
                          vals[i] = 1992 + d[i] / 365;
                        }
                        return out;
                      },
                      Revenue(2, 3)});
  Plan agg = Agg(std::move(proj), {0},
                 {{AggKind::kSum, 1}, {AggKind::kAvg, 1}});
  return Summarize(Sort(std::move(agg), {{0}}));
}

// Q9: product type profit measure, by year.
StatusOr<QueryResult> Q9(const TpchTables& t, const QueryOptions& o) {
  // StringMatch runs the substring test once per dictionary entry on
  // dict-encoded part names, not once per row.
  Plan part = Filter(Scan(o, t.part, {kPPartkey, kPName}),
                     StringMatch(1, [](const std::string& name) {
                       return name.find("green") != std::string::npos;
                     }));
  Plan line = Scan(o, t.lineitem,
                   {kLOrderkey, kLPartkey, kLQuantity, kLExtendedprice,
                    kLDiscount});
  Plan line_part = Join(std::move(line), std::move(part), {1}, {0},
                        JoinKind::kLeftSemi);
  Plan ord = Scan(o, t.orders, {kOOrderkey, kOOrderdate});
  Plan joined = Join(std::move(line_part), std::move(ord), {0}, {0});
  Plan proj = Project(std::move(joined), {[](const Batch& b) {
                        ColumnVector out(TypeId::kInt64);
                        const size_t n = b.column(6).size();
                        const int64_t* d = b.column(6).ints_data();
                        auto& vals = out.ints();
                        vals.resize(n);
                        for (size_t i = 0; i < n; ++i) {
                          vals[i] = 1992 + d[i] / 365;
                        }
                        return out;
                      },
                      [](const Batch& b) {
                        // profit ~ revenue - supplycost*qty
                        ColumnVector out(TypeId::kDouble);
                        const size_t n = b.column(3).size();
                        const double* price = b.column(3).doubles_data();
                        const double* disc = b.column(4).doubles_data();
                        const double* qty = b.column(2).doubles_data();
                        auto& vals = out.doubles();
                        vals.resize(n);
                        for (size_t i = 0; i < n; ++i) {
                          vals[i] =
                              price[i] * (1.0 - disc[i]) - 500.0 * qty[i];
                        }
                        return out;
                      }});
  Plan agg = Agg(std::move(proj), {0}, {{AggKind::kSum, 1}});
  return Summarize(Sort(std::move(agg), {{0, true}}));
}

// Q10: returned item reporting. Top customers by lost revenue.
StatusOr<QueryResult> Q10(const TpchTables& t, const QueryOptions& o) {
  int64_t lo = DayNumber(1993, 10, 1), hi = DayNumber(1994, 1, 1) - 1;
  KeyBounds bounds;
  bounds.lo = {Value(lo)};
  bounds.hi = {Value(hi)};
  Plan ord = Filter(Scan(o, t.orders, {kOOrderdate, kOOrderkey, kOCustkey},
                         &bounds),
                    Int64Between(0, lo, hi));
  Plan line = Filter(Scan(o, t.lineitem,
                          {kLOrderkey, kLExtendedprice, kLDiscount,
                           kLReturnflag}),
                     StringEquals(3, "R"));
  Plan joined = Join(std::move(line), std::move(ord), {0}, {1});
  Plan proj = Project(std::move(joined), {ColumnRef(6), Revenue(1, 2)});
  Plan agg = Agg(std::move(proj), {0}, {{AggKind::kSum, 1}});
  return Summarize(Sort(std::move(agg), {{1, true}}, 20));
}

// Q11: important stock identification (part x supplier only).
StatusOr<QueryResult> Q11(const TpchTables& t, const QueryOptions& o) {
  Plan supp = Filter(Scan(o, t.supplier, {kSSuppkey, kSNationkey}),
                     Int64Between(1, 7, 7));
  Plan part = Scan(o, t.part, {kPPartkey, kPRetailprice});
  Plan proj = Project(std::move(part),
                      {ColumnRef(0), ColumnRef(1), [](const Batch& b) {
                         ColumnVector out(TypeId::kInt64);
                         const size_t n = b.column(0).size();
                         const int64_t* pk = b.column(0).ints_data();
                         auto& vals = out.ints();
                         vals.resize(n);
                         for (size_t i = 0; i < n; ++i) {
                           vals[i] = 1 + (pk[i] % 25);
                         }
                         return out;
                       }});
  Plan joined = Join(std::move(proj), std::move(supp), {2}, {0},
                     JoinKind::kLeftSemi);
  Plan agg = Agg(std::move(joined), {0}, {{AggKind::kSum, 1}});
  // Many parts share a value: the group key breaks the ties, so LIMIT
  // keeps the same rows whatever order the groups arrive in.
  return Summarize(Sort(std::move(agg), {{1, true}, {0}}, 50));
}

// Q12: shipping modes and order priority.
StatusOr<QueryResult> Q12(const TpchTables& t, const QueryOptions& o) {
  int64_t lo = DayNumber(1994, 1, 1), hi = DayNumber(1995, 1, 1) - 1;
  Plan line = Filter(
      Scan(o, t.lineitem,
           {kLOrderkey, kLShipmode, kLCommitdate, kLReceiptdate,
            kLShipdate}),
      // Disjunction and conjunction both fold word-wise on the bitmap:
      // one compaction for the whole predicate tree.
      And({Or({StringEquals(1, "MAIL"), StringEquals(1, "SHIP")}),
           [lo, hi](const Batch& b, KeepBitmap* keep) {
             const int64_t* commit = b.column(2).ints_data();
             const int64_t* receipt = b.column(3).ints_data();
             const int64_t* ship = b.column(4).ints_data();
             keep->FillFrom([&](size_t i) {
               return (commit[i] < receipt[i]) & (ship[i] < commit[i]) &
                      (receipt[i] >= lo) & (receipt[i] <= hi);
             });
           }}));
  Plan ord = Scan(o, t.orders, {kOOrderkey, kOOrderpriority});
  Plan joined = Join(std::move(line), std::move(ord), {0}, {0});
  Plan proj = Project(std::move(joined),
                      {ColumnRef(1), [](const Batch& b) {
                         // high-priority indicator
                         ColumnVector out(TypeId::kInt64);
                         const ColumnVector& prio = b.column(6);
                         const size_t n = prio.size();
                         auto& vals = out.ints();
                         vals.resize(n);
                         for (size_t i = 0; i < n; ++i) {
                           const std::string& p = prio.StringAt(i);
                           vals[i] =
                               (p == "1-URGENT" || p == "2-HIGH") ? 1 : 0;
                         }
                         return out;
                       }});
  Plan agg = Agg(std::move(proj), {0},
                 {{AggKind::kSum, 1}, {AggKind::kCount, 0}});
  return Summarize(Sort(std::move(agg), {{0}}));
}

// Q13: customer distribution (orders only among updated tables).
StatusOr<QueryResult> Q13(const TpchTables& t, const QueryOptions& o) {
  Plan ord = Scan(o, t.orders, {kOCustkey});
  Plan per_cust = Agg(std::move(ord), {0}, {{AggKind::kCount, 0}});
  Plan dist = Agg(std::move(per_cust), {1}, {{AggKind::kCount, 0}});
  return Summarize(Sort(std::move(dist), {{1, true}, {0, true}}));
}

// Q14: promotion effect.
StatusOr<QueryResult> Q14(const TpchTables& t, const QueryOptions& o) {
  int64_t lo = DayNumber(1995, 9, 1), hi = DayNumber(1995, 10, 1) - 1;
  Plan line = Filter(Scan(o, t.lineitem,
                          {kLPartkey, kLExtendedprice, kLDiscount,
                           kLShipdate}),
                     Int64Between(3, lo, hi));
  Plan part = Scan(o, t.part, {kPPartkey, kPType});
  Plan joined = Join(std::move(line), std::move(part), {0}, {0});
  Plan proj = Project(std::move(joined), {[](const Batch& b) {
                        // promo revenue
                        ColumnVector out(TypeId::kDouble);
                        const size_t n = b.column(1).size();
                        const double* price = b.column(1).doubles_data();
                        const double* disc = b.column(2).doubles_data();
                        const ColumnVector& type = b.column(5);
                        auto& vals = out.doubles();
                        vals.resize(n);
                        for (size_t i = 0; i < n; ++i) {
                          bool promo =
                              type.StringAt(i).rfind("PROMO", 0) == 0;
                          vals[i] =
                              promo ? price[i] * (1.0 - disc[i]) : 0.0;
                        }
                        return out;
                      },
                      Revenue(1, 2)});
  return Summarize(
      Agg(std::move(proj), {}, {{AggKind::kSum, 0}, {AggKind::kSum, 1}}));
}

// Q15: top supplier by quarterly revenue.
StatusOr<QueryResult> Q15(const TpchTables& t, const QueryOptions& o) {
  int64_t lo = DayNumber(1996, 1, 1), hi = DayNumber(1996, 4, 1) - 1;
  Plan line = Filter(Scan(o, t.lineitem,
                          {kLSuppkey, kLExtendedprice, kLDiscount,
                           kLShipdate}),
                     Int64Between(3, lo, hi));
  Plan proj = Project(std::move(line), {ColumnRef(0), Revenue(1, 2)});
  Plan agg = Agg(std::move(proj), {0}, {{AggKind::kSum, 1}});
  return Summarize(Sort(std::move(agg), {{1, true}}, 1));
}

// Q16: parts/supplier relationship (no updated tables).
StatusOr<QueryResult> Q16(const TpchTables& t, const QueryOptions& o) {
  Plan part = Filter(Scan(o, t.part, {kPPartkey, kPBrand, kPType, kPSize}),
                     [](const Batch& b, KeepBitmap* keep) {
                       const ColumnVector& brand = b.column(1);
                       const int64_t* size = b.column(3).ints_data();
                       keep->FillFrom([&](size_t i) {
                         return brand.StringAt(i) != "Brand#45" &&
                                (size[i] == 9 || size[i] == 19 ||
                                 size[i] == 49 || size[i] == 3 ||
                                 size[i] == 36 || size[i] == 14 ||
                                 size[i] == 23 || size[i] == 45);
                       });
                     });
  Plan agg = Agg(std::move(part), {1, 3}, {{AggKind::kCount, 0}});
  return Summarize(Sort(std::move(agg), {{2, true}, {0}}));
}

// Q17: small-quantity-order revenue: lineitems below 20% of the average
// quantity of their part.
StatusOr<QueryResult> Q17(const TpchTables& t, const QueryOptions& o) {
  Plan part = Filter(Scan(o, t.part, {kPPartkey, kPBrand, kPContainer}),
                     And({StringEquals(1, "Brand#23"),
                          StringEquals(2, "MED BOX")}));
  Plan line = Scan(o, t.lineitem, {kLPartkey, kLQuantity, kLExtendedprice});
  Plan line_part = Join(std::move(line), std::move(part), {0}, {0},
                        JoinKind::kLeftSemi);
  Src drained = Finish(std::move(line_part));
  PDT_ASSIGN_OR_RETURN(Batch filtered, MaterializeAll(drained.get()));
  // Two passes: per-part average quantity, then the selective sum.
  Plan pass1 = P(std::make_unique<VectorSource>(filtered));
  Plan avg = Agg(std::move(pass1), {0}, {{AggKind::kAvg, 1}});
  Plan pass2 = P(std::make_unique<VectorSource>(filtered));
  Plan joined = Join(std::move(pass2), std::move(avg), {0}, {0});
  Plan flt = Filter(std::move(joined),
                    [](const Batch& b, KeepBitmap* keep) {
                      const double* qty = b.column(1).doubles_data();
                      const double* avg_q = b.column(4).doubles_data();
                      keep->FillFrom(
                          [&](size_t i) { return qty[i] < 0.2 * avg_q[i]; });
                    });
  return Summarize(Agg(std::move(flt), {}, {{AggKind::kSum, 2}}));
}

// Q18: large volume customers. The orders scan stays the probe side so
// the plan is one open pipeline — probe fragment straight into the
// parallel sort breaker — with the (small) large-order aggregate as the
// build side.
StatusOr<QueryResult> Q18(const TpchTables& t, const QueryOptions& o) {
  Plan line = Scan(o, t.lineitem, {kLOrderkey, kLQuantity});
  Plan per_order = Agg(std::move(line), {0}, {{AggKind::kSum, 1}});
  Plan big = Filter(std::move(per_order), DoubleInRange(1, 250.0, 1e18));
  Plan ord = Scan(o, t.orders,
                  {kOOrderkey, kOCustkey, kOOrderdate, kOTotalprice});
  Plan joined = Join(std::move(ord), std::move(big), {0}, {0});
  // Output: orders columns then (orderkey, sum_qty); totalprice is 3,
  // orderdate 2.
  return Summarize(Sort(std::move(joined), {{3, true}, {2}}, 100));
}

// Q19: discounted revenue (disjunctive part/lineitem predicates).
StatusOr<QueryResult> Q19(const TpchTables& t, const QueryOptions& o) {
  Plan line = Filter(Scan(o, t.lineitem,
                          {kLPartkey, kLQuantity, kLExtendedprice,
                           kLDiscount, kLShipmode}),
                     Or({StringEquals(4, "AIR"),
                         StringEquals(4, "REG AIR")}));
  Plan part = Scan(o, t.part, {kPPartkey, kPBrand, kPSize});
  Plan joined = Join(std::move(line), std::move(part), {0}, {0});
  Plan flt = Filter(std::move(joined),
                    [](const Batch& b, KeepBitmap* keep) {
                      const double* qty = b.column(1).doubles_data();
                      const ColumnVector& brand = b.column(6);
                      const int64_t* size = b.column(7).ints_data();
                      keep->FillFrom([&](size_t i) {
                        const std::string& bd = brand.StringAt(i);
                        bool p1 = bd == "Brand#12" && qty[i] <= 11 &&
                                  size[i] <= 5;
                        bool p2 = bd == "Brand#23" && qty[i] >= 10 &&
                                  qty[i] <= 20 && size[i] <= 10;
                        bool p3 = bd == "Brand#34" && qty[i] >= 20 &&
                                  qty[i] <= 30 && size[i] <= 15;
                        return p1 || p2 || p3;
                      });
                    });
  Plan proj = Project(std::move(flt), {Revenue(2, 3)});
  return Summarize(Agg(std::move(proj), {}, {{AggKind::kSum, 0}}));
}

// Q20: potential part promotion: suppliers with surplus stock.
StatusOr<QueryResult> Q20(const TpchTables& t, const QueryOptions& o) {
  int64_t lo = DayNumber(1994, 1, 1), hi = DayNumber(1995, 1, 1) - 1;
  // On dictionary-encoded part names the match runs once per distinct
  // entry rather than once per row.
  Plan part = Filter(Scan(o, t.part, {kPPartkey, kPName}),
                     StringMatch(1, [](const std::string& name) {
                       return name.rfind("forest", 0) == 0 ||
                              name.find("azure") != std::string::npos;
                     }));
  Plan line = Filter(Scan(o, t.lineitem,
                          {kLPartkey, kLSuppkey, kLQuantity, kLShipdate}),
                     Int64Between(3, lo, hi));
  Plan line_part = Join(std::move(line), std::move(part), {0}, {0},
                        JoinKind::kLeftSemi);
  Plan per_supp = Agg(std::move(line_part), {1}, {{AggKind::kSum, 2}});
  Plan supp = Scan(o, t.supplier, {kSSuppkey, kSNationkey});
  // Probe from the supplier scan pipeline (per-supplier sums as the
  // build side) so the ORDER BY runs through the parallel sort breaker;
  // suppkey is unique on both sides, so the join multiset is the same
  // either way.
  Plan joined = Join(std::move(supp), std::move(per_supp), {0}, {0});
  return Summarize(Sort(std::move(joined), {{0}}));
}

// Q21: suppliers who kept orders waiting.
StatusOr<QueryResult> Q21(const TpchTables& t, const QueryOptions& o) {
  Plan ord = Filter(Scan(o, t.orders, {kOOrderkey, kOOrderstatus}),
                    StringEquals(1, "F"));
  Plan line = Filter(Scan(o, t.lineitem,
                          {kLOrderkey, kLSuppkey, kLCommitdate,
                           kLReceiptdate}),
                     [](const Batch& b, KeepBitmap* keep) {
                       const int64_t* commit = b.column(2).ints_data();
                       const int64_t* receipt = b.column(3).ints_data();
                       keep->FillFrom(
                           [&](size_t i) { return receipt[i] > commit[i]; });
                     });
  Plan joined = Join(std::move(line), std::move(ord), {0}, {0},
                     JoinKind::kLeftSemi);
  Plan agg = Agg(std::move(joined), {1}, {{AggKind::kCount, 0}});
  return Summarize(Sort(std::move(agg), {{1, true}, {0}}, 100));
}

// Q22: global sales opportunity: well-off customers without orders.
StatusOr<QueryResult> Q22(const TpchTables& t, const QueryOptions& o) {
  Plan cust = Filter(Scan(o, t.customer,
                          {kCCustkey, kCNationkey, kCAcctbal}),
                     DoubleInRange(2, 0.0, 1e18));
  Plan ord = Scan(o, t.orders, {kOCustkey});
  Plan anti = Join(std::move(cust), std::move(ord), {0}, {0},
                   JoinKind::kLeftAnti);
  Plan agg = Agg(std::move(anti), {1},
                 {{AggKind::kCount, 0}, {AggKind::kSum, 2}});
  return Summarize(Sort(std::move(agg), {{0}}));
}

}  // namespace

bool QueryTouchesUpdatedTables(int q) {
  return q != 2 && q != 11 && q != 16;
}

StatusOr<QueryResult> RunTpchQuery(int q, const TpchTables& tables,
                                   const QueryOptions& opts) {
  switch (q) {
    case 1:
      return Q1(tables, opts);
    case 2:
      return Q2(tables, opts);
    case 3:
      return Q3(tables, opts);
    case 4:
      return Q4(tables, opts);
    case 5:
      return Q5(tables, opts);
    case 6:
      return Q6(tables, opts);
    case 7:
      return Q7(tables, opts);
    case 8:
      return Q8(tables, opts);
    case 9:
      return Q9(tables, opts);
    case 10:
      return Q10(tables, opts);
    case 11:
      return Q11(tables, opts);
    case 12:
      return Q12(tables, opts);
    case 13:
      return Q13(tables, opts);
    case 14:
      return Q14(tables, opts);
    case 15:
      return Q15(tables, opts);
    case 16:
      return Q16(tables, opts);
    case 17:
      return Q17(tables, opts);
    case 18:
      return Q18(tables, opts);
    case 19:
      return Q19(tables, opts);
    case 20:
      return Q20(tables, opts);
    case 21:
      return Q21(tables, opts);
    case 22:
      return Q22(tables, opts);
    default:
      return Status::InvalidArgument("unknown TPC-H query number");
  }
}

}  // namespace tpch
}  // namespace pdtstore
