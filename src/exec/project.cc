#include "exec/project.h"

#include <utility>

namespace pdtstore {

void ProjectBatch(const std::vector<ColumnExpr>& exprs, Batch* in,
                  Batch* out) {
  std::vector<ColumnVector>& cols = out->columns();
  cols.resize(exprs.size());
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (exprs[i].ref == ColumnExpr::kComputed) cols[i] = exprs[i].fn(*in);
  }
  for (size_t i = 0; i < exprs.size(); ++i) {
    const size_t r = exprs[i].ref;
    if (r == ColumnExpr::kComputed) continue;
    bool last = true;
    for (size_t j = i + 1; j < exprs.size() && last; ++j) {
      last = exprs[j].ref != r;
    }
    ColumnVector& src = in->column(r);
    if (!last) {
      cols[i] = src;
    } else if (cols[i].type() == src.type()) {
      std::swap(cols[i], src);
    } else {
      cols[i] = std::move(src);
    }
  }
  out->set_start_rid(in->start_rid());
  const std::vector<ColumnId>& ids = out->column_ids();
  bool ids_match = ids.size() == exprs.size();
  for (size_t i = 0; ids_match && i < ids.size(); ++i) {
    ids_match = ids[i] == static_cast<ColumnId>(i);
  }
  if (!ids_match) {
    std::vector<ColumnId> fresh(exprs.size());
    for (size_t i = 0; i < fresh.size(); ++i) {
      fresh[i] = static_cast<ColumnId>(i);
    }
    out->set_column_ids(std::move(fresh));
  }
}

StatusOr<bool> ProjectNode::Next(Batch* out, size_t max_rows) {
  PDT_ASSIGN_OR_RETURN(bool more, input_->Next(&in_, max_rows));
  if (!more) return false;
  ProjectBatch(exprs_, &in_, out);
  return true;
}

ColumnExpr ColumnRef(size_t idx) {
  ColumnExpr e;
  e.ref = idx;
  return e;
}

ColumnExpr Revenue(size_t price_idx, size_t discount_idx) {
  return [price_idx, discount_idx](const Batch& b) {
    ColumnVector out(TypeId::kDouble);
    const size_t n = b.column(price_idx).size();
    const double* price = b.column(price_idx).doubles_data();
    const double* disc = b.column(discount_idx).doubles_data();
    auto& vals = out.doubles();
    vals.resize(n);
    for (size_t i = 0; i < n; ++i) {
      vals[i] = price[i] * (1.0 - disc[i]);
    }
    return out;
  };
}

ColumnExpr Charge(size_t price_idx, size_t discount_idx, size_t tax_idx) {
  return [price_idx, discount_idx, tax_idx](const Batch& b) {
    ColumnVector out(TypeId::kDouble);
    const size_t n = b.column(price_idx).size();
    const double* price = b.column(price_idx).doubles_data();
    const double* disc = b.column(discount_idx).doubles_data();
    const double* tax = b.column(tax_idx).doubles_data();
    auto& vals = out.doubles();
    vals.resize(n);
    for (size_t i = 0; i < n; ++i) {
      vals[i] = price[i] * (1.0 - disc[i]) * (1.0 + tax[i]);
    }
    return out;
  };
}

}  // namespace pdtstore
