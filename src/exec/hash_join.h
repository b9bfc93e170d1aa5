// HashJoinNode: in-memory equi-join. The build side is fully materialized
// and indexed by a flat bucket-chained table (MonetDB/X100 layout): a
// power-of-two array of chain heads addressed by the low bits of the
// combined 64-bit key hash, one `next` link and one full hash per build
// row. Probe batches are hashed with one bulk HashColumn pass per key
// column, then probed column-at-a-time: whole-batch passes load every
// row's bucket head, compare full hashes, verify keys with one typed
// kernel per key column and advance every live row one chain link, until
// no row is left. Matches are compacted with selection-vector gathers.
// Inner or left-semi/anti.
//
// The build side is factored into an immutable PartitionedJoinTable —
// P >= 1 independent JoinTable partitions addressed by a hash-derived
// partition function — behind a JoinBuildHandle (the publish barrier).
// The parallel pipeline (exec/pipeline.h) partitions build rows by hash
// inside the collect workers and finalizes the P partitions in
// parallel; probes route each row by the same partition function and
// share the whole structure lock-free. The serial HashJoinNode builds a
// single partition.
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
  /// Combined key hash per build row, checked before the key verify.
  std::vector<uint64_t> hashes;

  static JoinTable Build(Batch build_rows, std::vector<size_t> keys);
  /// Build with the combined key hashes already computed (hashes[i] for
  /// row i) — the partitioned collect path hashes rows once to route
  /// them and reuses the values here.
  static JoinTable BuildWithHashes(Batch build_rows,
                                   std::vector<size_t> keys,
                                   std::vector<uint64_t> hashes);
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

/// Per-thread probe scratch. Every buffer is sized to the probe batch (or
/// its matches) and reused, so a warm probe allocates nothing.
struct JoinProbeScratch {
  std::vector<uint64_t> hashes;  // combined key hash per probe row
  // Chain-walk candidates: probe row and its current chain link (build
  // row+1), compacted to the rows whose chains go on.
  std::vector<uint32_t> cand_rows;
  std::vector<uint32_t> cand_links;
  // Candidates whose full hash matched, narrowed by each key's verify.
  std::vector<uint32_t> pair_rows;
  std::vector<uint32_t> pair_builds;
  std::vector<uint8_t> matched;  // 1 per probe row with a match (semi/anti)
  // Reorder pass: next output slot per routed row, and the reordered
  // matches (the builds are swapped into build_sel).
  std::vector<uint32_t> row_slots;
  std::vector<uint32_t> reorder_rows;
  std::vector<uint32_t> reorder_builds;
  SelVector probe_sel;
  SelVector build_sel;
  KeepBitmap keep;  // semi/anti survivor bits, 1 bit per probe row
  std::vector<SelVector> part_rows;  // probe rows routed per partition
  std::vector<uint32_t> part_pos;    // each probe row's index in part_rows
  Batch out_proto;  // output layout, built once, reused via ResetLike
  bool proto_init = false;
};

/// Probes `in` against `table`, filling `*out` (reset to the output
/// layout): inner gathers probe then build columns; semi/anti compact
/// surviving probe rows (each probe row emitted at most once no matter
/// how many build rows match). Thread-safe across distinct scratch
/// objects. With one partition, inner output is in (probe row, build
/// row) order; with more, it is grouped by partition and in (probe row,
/// build row) order within each group. Semi/anti keep probe order.
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
///
/// An inner Next returns every match of one probe batch of up to
/// `max_rows` rows, so with duplicate build keys it can return more than
/// `max_rows` rows — an exception to BatchSource::Next's "up to
/// `max_rows`". No consumer relies on the bound.
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
