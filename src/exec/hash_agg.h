// Grouped aggregation (SUM / COUNT / MIN / MAX / AVG), the X100 way: every
// step of absorbing a batch is one tight loop over the whole batch.
//
// Group keys are hashed with one bulk HashColumn pass per key column into
// an open-addressing table keyed by the combined 64-bit hash. Group
// assignment then runs in three passes (see DESIGN.md, "Hash
// aggregation"):
//   1. probe by hash only, giving each row one candidate group;
//   2. one typed verify kernel per key column clears the candidates whose
//      stored key differs (ints and doubles compare arrays, plain strings
//      length then bytes, dictionary codes compare the pool ids their
//      dictionary entries resolved to once per batch);
//   3. re-probe only the rows left unresolved — new groups and true hash
//      collisions — in row order, so groups keep first-appearance order.
// Stored keys are typed arrays, one value per group; string keys are ids
// into a pool of the distinct strings.
//
// Accumulators live in one row-major block per group. SUM and AVG over the
// same input share an accumulator, and one fused pass updates every
// accumulator of a row. Each group sums its rows in row order, so serial
// results do not depend on the layout.
//
// The core lives in AggregationState so the parallel pipeline
// (exec/pipeline.h) can run one instance per worker as a thread-local
// pre-aggregation table and merge them at finalize; the serial HashAggNode
// drives a single instance.
#ifndef PDTSTORE_EXEC_HASH_AGG_H_
#define PDTSTORE_EXEC_HASH_AGG_H_

#include <memory>
#include <string>
#include <vector>

#include "columnstore/batch.h"

namespace pdtstore {

/// Aggregate function kinds.
enum class AggKind { kSum, kCount, kMin, kMax, kAvg };

/// One aggregate: fn over input column `input_idx` (ignored for COUNT).
struct AggSpec {
  AggKind kind;
  size_t input_idx = 0;
};

/// The grouped-aggregation core. Not thread-safe; parallel aggregation
/// gives each worker its own instance and merges them (MergeFrom) under
/// the runner's serialization.
class AggregationState {
 public:
  AggregationState(std::vector<size_t> group_by, std::vector<AggSpec> aggs);

  /// Folds one input batch into the table (groups created in order of
  /// first appearance).
  Status Absorb(const Batch& in);

  /// Partial-aggregation merge: folds `other`'s groups into this table
  /// (sums and counts add, MIN/MAX fold; AVG merges exactly because its
  /// sum and the count are both carried).
  Status MergeFrom(const AggregationState& other);

  size_t num_groups() const { return group_hashes_.size(); }

  /// Estimated heap bytes per group, for memory budgets: the hash, two
  /// slots at the 50% load cap, the count, 8 per key (a number, or a
  /// string's pool id plus its share of the pool) and 8 per accumulator.
  size_t bytes_per_group() const {
    return 24 + 8 * (group_by_.size() + accs_.size());
  }

  /// Assembles the result batch — the group-by key columns (first-
  /// appearance order; strings plain) followed by one column per
  /// aggregate (COUNT -> int64, others -> double); a global aggregation
  /// over zero rows yields a single all-zero row. Leaves this state empty.
  Batch TakeResult();

 private:
  /// Distinct strings with their HashBytes, addressed by a dense id.
  class StringPool {
   public:
    /// The id of `s` (whose HashBytes is `hash`), added if absent.
    uint32_t Intern(const std::string& s, uint64_t hash);
    const std::string& value(uint32_t id) const { return values_[id]; }
    uint64_t hash(uint32_t id) const { return hashes_[id]; }
    size_t size() const { return values_.size(); }

   private:
    std::vector<std::string> values_;
    std::vector<uint64_t> hashes_;
    std::vector<uint32_t> slots_;  // open addressing: id + 1
  };

  /// One group-by column's stored keys, one value per group.
  struct KeyColumn {
    TypeId type = TypeId::kInt64;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<uint32_t> sids;  // string keys: ids into `pool`
    StringPool pool;
    // The last dictionary seen in this column, pinned, and its codes'
    // pool ids (kUnresolved until a row uses the code).
    std::shared_ptr<const StringDict> dict;
    std::vector<uint32_t> code_sids;
    size_t unresolved_codes = 0;
  };

  /// An accumulator: SUM (shared by SUM and AVG), MIN or MAX of a column.
  struct Acc {
    AggKind op;
    size_t input_idx;
    bool operator==(const Acc&) const = default;
  };

  // Maps each row of `in` to its group id (creating groups).
  void AssignGroups(const Batch& in);
  // Adds a group for row `row` of `in` with combined hash `h`.
  uint32_t AddGroup(const Batch& in, size_t row, uint64_t h);
  // True if group `gid`'s key equals row `row` of `in`.
  bool KeyEquals(const Batch& in, size_t row, uint32_t gid) const;
  // Resolves the dictionary codes of `col`'s rows to ids in `key`'s pool.
  void ResolveCodes(const ColumnVector& col, KeyColumn* key);
  // One fused pass over the batch: counts and every accumulator.
  void Accumulate(const Batch& in);
  // Appends one group's count and initial accumulators.
  void InitGroup();
  // Grows the open-addressing table (one rehash) so it can hold
  // `min_groups` groups under the 50% load cap; true if it rehashed.
  bool GrowTable(size_t min_groups);

  std::vector<size_t> group_by_;
  std::vector<AggSpec> aggs_;
  std::vector<Acc> accs_;            // sums, then mins, then maxes
  size_t num_sums_ = 0;
  size_t num_mins_ = 0;
  std::vector<size_t> agg_acc_;      // per aggregate: its accumulator
  bool key_cols_init_ = false;
  std::vector<KeyColumn> key_cols_;
  std::vector<uint64_t> group_hashes_;   // combined hash per group
  std::vector<uint32_t> slots_;          // open addressing: group id + 1
  size_t slot_mask_ = 0;
  std::vector<int64_t> counts_;          // per group
  std::vector<double> acc_;              // per group, accs_.size() each
  // Scratch reused across Absorb calls.
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> gids_;
  std::vector<uint32_t> probe_pos_;
  std::vector<uint32_t> sel_;
  std::vector<std::vector<double>> converted_;  // int inputs as doubles
  // New groups the previous batch contributed — the carried estimate that
  // pre-sizes the table before each batch, so high-cardinality inputs do
  // one predicted rehash per batch at most instead of repeated
  // mid-AssignGroups doubling (SIZE_MAX until a batch has been seen: the
  // first batch pre-sizes for the worst case, every row a new group).
  size_t prev_batch_new_groups_ = static_cast<size_t>(-1);
};

/// Grouped aggregation. Output columns: the group-by columns (in the
/// given order) followed by one double/int64 column per aggregate
/// (COUNT -> int64, others -> double). Groups are emitted in order of
/// first appearance.
class HashAggNode : public BatchSource {
 public:
  HashAggNode(std::unique_ptr<BatchSource> input,
              std::vector<size_t> group_by, std::vector<AggSpec> aggs)
      : input_(std::move(input)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)) {}

  StatusOr<bool> Next(Batch* out, size_t max_rows) override;

 private:
  Status BuildResult();

  std::unique_ptr<BatchSource> input_;
  std::vector<size_t> group_by_;
  std::vector<AggSpec> aggs_;
  bool built_ = false;
  std::unique_ptr<BatchSource> emitter_;
};

}  // namespace pdtstore

#endif  // PDTSTORE_EXEC_HASH_AGG_H_
