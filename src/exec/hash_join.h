// HashJoinNode: in-memory equi-join. The build side is fully materialized
// and indexed by a flat bucket-chained table (MonetDB/X100 layout): a
// power-of-two array of chain heads addressed by the low bits of the
// combined 64-bit key hash, one `next` link and one full hash per build
// row. A probe walks its bucket's chain, compares the full hash, then
// verifies the typed keys against the materialized build columns. Probe
// batches are hashed with one bulk HashColumn pass per key column and
// matches are compacted with selection-vector gathers. Inner or
// left-semi/anti.
//
// The build side is factored into an immutable PartitionedJoinTable —
// P >= 1 independent JoinTable partitions addressed by a hash-derived
// partition function — behind a JoinBuildHandle (the publish barrier).
// The parallel pipeline (exec/pipeline.h) partitions build rows by hash
// inside the collect workers and finalizes the P partitions in
// parallel; probes route each row by the same partition function and
// share the whole structure lock-free. The serial HashJoinNode builds a
// single partition, byte-identical to the pre-partitioned behavior.
#ifndef PDTSTORE_EXEC_HASH_JOIN_H_
#define PDTSTORE_EXEC_HASH_JOIN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "columnstore/batch.h"
#include "util/mem_budget.h"

namespace pdtstore {

/// Join flavor.
enum class JoinKind { kInner, kLeftSemi, kLeftAnti };

/// One partition of the materialized build side: build rows plus a flat
/// bucket-chained index over their combined key hashes. Immutable once
/// built, so probe workers share it without locks. Chains hold row+1 so
/// 0 can mean "end of chain"; each chain lists its rows in build order.
struct JoinTable {
  Batch rows;
  std::vector<size_t> key_cols;
  /// Chain head per bucket (row+1, 0 = empty); a power of two >= rows.
  std::vector<uint32_t> heads;
  /// Next row+1 in the same bucket, per build row (0 = end of chain).
  std::vector<uint32_t> next;
  /// Combined key hash per build row, checked before KeysEqual.
  std::vector<uint64_t> hashes;

  static JoinTable Build(Batch build_rows, std::vector<size_t> keys);
  /// Build with the combined key hashes already computed (hashes[i] for
  /// row i) — the partitioned collect path hashes rows once to route
  /// them and reuses the values here.
  static JoinTable BuildWithHashes(Batch build_rows,
                                   std::vector<size_t> keys,
                                   std::vector<uint64_t> hashes);

  /// Typed key equality between a probe row and a build row (the
  /// verify-on-collision step).
  bool KeysEqual(const std::vector<size_t>& probe_keys, const Batch& probe,
                 size_t probe_row, size_t build_row) const;

  /// Calls fn(build_row) for every build row whose key equals probe row
  /// `probe_row` (whose combined key hash is `hash`), in build order;
  /// stops early once fn returns false.
  template <typename Fn>
  void ForEachMatch(uint64_t hash, const std::vector<size_t>& probe_keys,
                    const Batch& probe, size_t probe_row, Fn&& fn) const {
    if (heads.empty()) return;
    for (uint32_t e = heads[hash & (heads.size() - 1)]; e != 0;
         e = next[e - 1]) {
      const uint32_t b = e - 1;
      if (hashes[b] == hash && KeysEqual(probe_keys, probe, probe_row, b) &&
          !fn(b)) {
        return;
      }
    }
  }
};

/// The partition function both the build collect and the probe use.
/// High hash bits, so the choice is independent of the low bits that
/// address each partition's bucket heads; P == 1 short-circuits.
inline size_t JoinPartitionOf(uint64_t hash, size_t num_partitions) {
  return num_partitions == 1 ? 0 : (hash >> 32) % num_partitions;
}

/// The published build side: P >= 1 hash partitions. Build and probe
/// agree on PartitionOf, so a probe row only ever touches one
/// partition's chains. P == 1 (every serial join) behaves exactly like
/// the single-table join.
struct PartitionedJoinTable {
  std::vector<JoinTable> parts;

  size_t num_partitions() const { return parts.size(); }
  size_t TotalRows() const;

  size_t PartitionOf(uint64_t hash) const {
    return JoinPartitionOf(hash, parts.size());
  }
};

/// Per-thread probe scratch (allocation-free steady state).
struct JoinProbeScratch {
  std::vector<uint64_t> hashes;
  SelVector probe_sel;
  SelVector build_sel;
  KeepBitmap keep;  // semi/anti survivor bits, 1 bit per probe row
  std::vector<SelVector> part_rows;  // probe rows routed per partition
  Batch out_proto;  // output layout, built once, reused via ResetLike
  bool proto_init = false;
};

/// Probes `in` against `table`, filling `*out` (reset to the output
/// layout): inner gathers probe then build columns; semi/anti compact
/// surviving probe rows (each probe row emitted at most once no matter
/// how many build rows match). Thread-safe across distinct scratch
/// objects. Inner matches for one probe row come out in that row's
/// partition's build order.
void ProbeJoinBatch(const PartitionedJoinTable& table,
                    const std::vector<size_t>& probe_keys, JoinKind kind,
                    const Batch& in, Batch* out, JoinProbeScratch* scratch);

/// Deferred join build side: resolves to an immutable
/// PartitionedJoinTable on first use and caches it — the pipeline's
/// build barrier. Resolution happens on the probing consumer's thread
/// before probe workers start (see PipelineOp::Prepare); the handle
/// itself is not thread-safe, sharing one across concurrently-starting
/// probes requires external order.
class JoinBuildHandle {
 public:
  /// Build side drained from a serial source (MaterializeAll) into a
  /// single partition — the serial join's unchanged shape.
  JoinBuildHandle(std::unique_ptr<BatchSource> build_source,
                  std::vector<size_t> build_keys);
  /// Build side produced by an arbitrary producer (the parallel
  /// partitioned build pipeline; see Pipeline::IntoJoinBuild).
  explicit JoinBuildHandle(
      std::function<StatusOr<PartitionedJoinTable>()> producer);

  /// Runs the build on first call; later calls return the cached table
  /// (or the cached failure).
  StatusOr<const PartitionedJoinTable*> Resolve();

  /// Ties `lease` (the build side's memory-budget charges) to this
  /// handle: the bytes stay charged exactly as long as the cached table
  /// they cover is alive.
  void RetainLease(std::shared_ptr<BudgetLease> lease) {
    lease_ = std::move(lease);
  }

 private:
  std::function<StatusOr<PartitionedJoinTable>()> producer_;
  std::shared_ptr<BudgetLease> lease_;
  bool resolved_ = false;
  Status error_ = Status::OK();
  PartitionedJoinTable table_;
};

/// Equi-join on (probe_keys[i] == build_keys[i]). Output columns: all
/// probe columns, then (inner only) all build columns. Duplicate build
/// matches are emitted in build-row order.
class HashJoinNode : public BatchSource {
 public:
  HashJoinNode(std::unique_ptr<BatchSource> probe,
               std::unique_ptr<BatchSource> build,
               std::vector<size_t> probe_keys,
               std::vector<size_t> build_keys,
               JoinKind kind = JoinKind::kInner);

  /// Probe against a deferred (possibly pipeline-built) build side.
  HashJoinNode(std::unique_ptr<BatchSource> probe,
               std::shared_ptr<JoinBuildHandle> build,
               std::vector<size_t> probe_keys,
               JoinKind kind = JoinKind::kInner);

  StatusOr<bool> Next(Batch* out, size_t max_rows) override;

 private:
  std::unique_ptr<BatchSource> probe_;
  std::shared_ptr<JoinBuildHandle> build_;
  std::vector<size_t> probe_keys_;
  JoinKind kind_;
  const PartitionedJoinTable* table_ = nullptr;  // resolved on first Next
  Batch in_;  // probe input, reused across pulls
  JoinProbeScratch scratch_;
};

}  // namespace pdtstore

#endif  // PDTSTORE_EXEC_HASH_JOIN_H_
