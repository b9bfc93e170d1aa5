// Algorithm 7: Propagate. Folds a higher-layer PDT W (updates [t1,t2>)
// into this lower-layer PDT R (updates [t0,t1>), where W is *consecutive*
// to R: W's SID domain equals R's RID domain. Used to migrate the
// Write-PDT into the Read-PDT and a committing Trans-PDT into the
// Write-PDT (Sec. 3.3).
//
// The key observation (paper Sec. 3.3): as W's updates are applied to R
// left-to-right, R's RID domain evolves from t1 towards t2, so each W
// entry's own RID (sid + running delta within W) is exactly the position
// at which to apply it to R. Inserts additionally need SKRidToSid on R to
// land correctly among R's ghost tuples.
#include "pdt/pdt.h"

namespace pdtstore {

Status Pdt::Propagate(const Pdt& w) {
  if (&w == this) return Status::InvalidArgument("cannot self-propagate");
  const ValueSpace& wvs = w.value_space();
  for (Cursor c = w.Begin(); c.Valid(); c.Next()) {
    const Rid rid = c.rid();
    const uint16_t type = c.type();
    if (type == kTypeIns) {
      Tuple tuple = wvs.GetInsertTuple(c.value());
      std::vector<Value> sk = wvs.GetInsertSortKey(c.value());
      Sid sid = SKRidToSid(sk, rid);
      PDT_RETURN_NOT_OK(AddInsert(sid, rid, tuple));
    } else if (type == kTypeDel) {
      PDT_RETURN_NOT_OK(AddDelete(rid, wvs.GetDeleteKey(c.value())));
    } else {
      const ColumnId col = static_cast<ColumnId>(type);
      PDT_RETURN_NOT_OK(
          AddModify(rid, col, wvs.GetModifyValue(col, c.value())));
    }
  }
  return Status::OK();
}

}  // namespace pdtstore
