#include "txn/txn_manager.h"

namespace pdtstore {

TxnManagerStats TxnManager::GetStats() const {
  const MultiTxnStats m = MultiTxnManager::GetStats();
  const MultiTxnTableStats& t = m.tables.front();
  TxnManagerStats s;
  s.committed = m.committed;
  s.aborted = m.aborted;
  s.active = m.active;
  s.pending_deltas = m.pending_deltas;
  s.fold_batches = m.fold_batches;
  s.folded_records = m.folded_records;
  s.commit_lock_ns = m.commit_lock_ns;
  s.read_pdt_entries = t.read_pdt_entries;
  s.write_pdt_entries = t.write_pdt_entries;
  s.merge_pending_entries = t.merge_pending_entries;
  s.background_merges = t.background_merges;
  s.wal_syncs = m.wal_syncs;
  s.wal_records = m.wal_records;
  return s;
}

}  // namespace pdtstore
