#!/usr/bin/env bash
# Tier-1 verification + benchmark smoke test. Runnable locally or from CI:
#   scripts/ci.sh [build-dir]
# Set PDTSTORE_SKIP_TSAN=1 to skip the ThreadSanitizer stage (e.g. on
# toolchains without TSan).
set -euo pipefail

BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

echo "== docs check =="
# The docs can't silently rot: README.md must exist (non-empty), DESIGN.md
# must lead with the architecture overview, and every intra-doc anchor
# (DESIGN.md's TOC plus README links into DESIGN.md) must resolve to a
# real heading. Slugs follow the GitHub rule: lowercase, punctuation
# stripped (underscores kept), spaces to hyphens.
[[ -s README.md ]] || { echo "docs check FAILED: README.md missing or empty"; exit 1; }
grep -q '^## Architecture overview' DESIGN.md \
    || { echo "docs check FAILED: DESIGN.md lacks '## Architecture overview'"; exit 1; }
slugs="$(grep -E '^#{1,4} ' DESIGN.md | sed -E 's/^#+ +//' \
    | tr '[:upper:]' '[:lower:]' | sed -E 's/[^a-z0-9_ -]//g; s/ /-/g')"
# `|| true`: a doc legitimately may have no links; grep's no-match exit
# status must not kill the script under set -e before the loop runs.
anchors="$( { grep -oE '\]\(#[A-Za-z0-9_-]+\)' DESIGN.md \
                  | sed -E 's/^\]\(#//; s/\)$//' || true;
              grep -oE '\]\(DESIGN\.md#[A-Za-z0-9_-]+\)' README.md \
                  | sed -E 's/^\]\(DESIGN\.md#//; s/\)$//' || true; } \
            | sort -u)"
docs_ok=1
resolved=0
while IFS= read -r anchor; do
  [[ -z "$anchor" ]] && continue
  if grep -qxF "$anchor" <<<"$slugs"; then
    resolved=$((resolved + 1))
  else
    echo "docs check FAILED: anchor '#$anchor' has no DESIGN.md heading"
    docs_ok=0
  fi
done <<<"$anchors"
[[ "$docs_ok" == 1 ]] || exit 1
echo "docs OK ($resolved anchors resolved)"

echo "== configure =="
cmake -B "$BUILD_DIR" -S .

echo "== build =="
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== test =="
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

echo "== bench smoke (tiny sizes) =="
"$BUILD_DIR/bench_exec_kernels" --rows=20000 --reps=1 \
    --json="$BUILD_DIR/BENCH_exec_smoke.json"
# The smallest input the bench accepts: every cell's anti-elision guard
# must still find a surviving row.
"$BUILD_DIR/bench_exec_kernels" --rows=64 --reps=1 \
    --json="$BUILD_DIR/BENCH_exec_rows64.json"
"$BUILD_DIR/bench_fig17_mergescan_scaling" --sizes=20000 --rates=0,1 \
    --threads=1,2,4,8 --json="$BUILD_DIR/BENCH_fig17_smoke.json"
"$BUILD_DIR/bench_fig19_tpch" --sf=0.01 --config=uncompressed \
    --threads=1,2,4,8 --json="$BUILD_DIR/BENCH_fig19_smoke.json"
# bench_write_path doubles as the key-loss check: after every workload it
# re-counts the table through a fresh snapshot and aborts if any
# committed insert went missing (the commit FIFO must never drop a
# record).
"$BUILD_DIR/bench_write_path" --txns=400 --writers=1,2,4,8 \
    --json="$BUILD_DIR/BENCH_write_smoke.json"
# The HTAP scenario is its own key-loss check: the driver verifies that
# equal insert/delete refresh loads return orders to its starting row
# count and fails the run on any torn or lost refresh group. Note: CI
# machines may be single-core, so the reader/writer overlap is
# time-sliced and the latency numbers are upper bounds only.
"$BUILD_DIR/bench_htap" --sf=0.01 --configs=1x2,2x2,4x4 --streams=1 \
    --fraction=0.002 --json="$BUILD_DIR/BENCH_htap_smoke.json"
# Workload-management smoke: all four client fleets, each with and
# without admission (so every committed BENCH_workload.json key is
# produced), over a small table. The binary itself fails if any query
# is lost or rejected with an oversized queue.
"$BUILD_DIR/bench_workload" --queries=64 --clients=1,8,64,256 \
    --rows=50000 --json="$BUILD_DIR/BENCH_workload_smoke.json"

echo "== value gate: PDT merge scan >= 3x VDT =="
# The paper's claim at smoke scale: at every nonzero update rate the PDT
# merge scan is at least 3x faster than the value-based VDT merge
# (ratio = vdt_ms / pdt_ms). Rate-0 entries are excluded: with no
# updates there is nothing to merge, and their ratio only measures the
# VDT's extra key-column read. Three smoke runs on a 4-vCPU VM gave
# 14x-23x at rate 1, so the gate has wide headroom against noise.
python3 - "$BUILD_DIR/BENCH_fig17_smoke.json" <<'PY'
import json, re, sys
gated, failed = 0, []
for b in json.load(open(sys.argv[1]))["benches"]:
    m = re.fullmatch(r"mergescan_.*_rate([0-9.]+)", b["name"])
    if m is None or float(m.group(1)) == 0:
        continue
    gated += 1
    if b["metrics"]["ratio"] < 3:
        failed.append("%s ratio %.2f" % (b["name"], b["metrics"]["ratio"]))
if gated == 0:
    sys.exit("value gate FAILED: no nonzero-rate mergescan entries")
if failed:
    sys.exit("value gate FAILED: PDT < 3x VDT: " + "; ".join(failed))
print("value gate OK (%d entries, PDT >= 3x VDT)" % gated)
PY

echo "== value gate: group commit shares fsyncs at 8 writers =="
# Commits wait for durability outside the manager lock, so concurrent
# committers ride one fsync: at 8 writers the write smoke must need
# fewer than one fsync per transaction. Runs on a 4-vCPU VM read
# 0.41-0.59; one fsync per commit (no sharing) reads 1.0.
python3 - "$BUILD_DIR/BENCH_write_smoke.json" <<'PY'
import json, sys
cells = {b["name"]: b["metrics"] for b in json.load(open(sys.argv[1]))["benches"]}
if "commit_w8" not in cells:
    sys.exit("value gate FAILED: no commit_w8 cell in the write smoke")
syncs = cells["commit_w8"]["syncs_per_txn"]
if not syncs < 1:
    sys.exit("value gate FAILED: commit_w8 syncs_per_txn %.3f >= 1" % syncs)
print("value gate OK (commit_w8 syncs_per_txn %.3f)" % syncs)
PY

echo "== value gate: fig19 thread counts agree =="
# bench_fig19_tpch prints MISMATCH and records t{N}_agree = 0 when a
# thread count's TPC-H results (tpch_pipeline) or sort / join-build
# results (sort_join_build) differ from the serial run; the smoke must
# report agreement at every thread count it swept.
python3 - "$BUILD_DIR/BENCH_fig19_smoke.json" <<'PY'
import json, re, sys
cells = {b["name"]: b["metrics"] for b in json.load(open(sys.argv[1]))["benches"]}
gated, failed = 0, []
for name in ("tpch_pipeline", "sort_join_build"):
    flags = {k: v for k, v in cells.get(name, {}).items()
             if re.fullmatch(r"t[0-9]+_agree", k)}
    if not flags:
        sys.exit("value gate FAILED: no t{N}_agree flags in %s" % name)
    gated += len(flags)
    failed += ["%s %s=%s" % (name, k, v) for k, v in flags.items() if v != 1]
if failed:
    sys.exit("value gate FAILED: thread counts disagree: " + "; ".join(failed))
print("value gate OK (%d t{N}_agree flags all 1)" % gated)
PY

echo "== pdtbench smoke =="
# The end-to-end benchmark (BENCHMARK.json): every workload at SF 0.01
# for 2 s, untraced and traced. Fails on any correctness check and on a
# metric BENCHMARK.json names but no run emitted.
bash benchmark/run.sh --smoke

echo "== bench key check =="
# The committed BENCH_*.json artifacts are the record of what the benches
# report; a code change must not silently drop an entry (e.g. deleting
# an ablation while its recorded numbers still look current). Every
# bench name in a committed artifact must be produced by the current
# binaries' smoke runs: bench_exec_kernels plus bench_fig17's
# parallel_merge_scan entry for BENCH_exec.json, and the writer-count,
# (writers, readers) and client-count cells of the write, HTAP and
# workload benches. A missing or empty smoke file produces no
# names, so it fails the check too.
bench_names() {
  grep -o '"name": "[^"]*"' "$1" | sed -E 's/"name": "([^"]*)"/\1/' | sort -u
}
check_keys() {
  local committed="$1" producer="$2" produced name
  shift 2
  produced="$( { for f in "$@"; do bench_names "$f" || true; done; } | sort -u)"
  while IFS= read -r name; do
    [[ -z "$name" ]] && continue
    if ! grep -qxF "$name" <<<"$produced"; then
      echo "bench key check FAILED: committed $committed entry '$name'" \
           "is no longer produced by $producer"
      keys_ok=0
    fi
  done <<<"$(bench_names "$committed")"
}
keys_ok=1
# merge_scan_sparse records the zero-copy merge gain (PDT scan vs its
# checkpointed twin), chunk_decode the decode kernels' throughput per
# encoding, predicate_eval the branch-free predicate kernels,
# project_refs move-through projection, group_assign the
# column-at-a-time hash-aggregation group assign and join_probe the
# column-at-a-time join probe; all must stay in the committed artifact.
for required in merge_scan_sparse chunk_decode predicate_eval project_refs \
    group_assign join_probe; do
  if ! bench_names BENCH_exec.json | grep -qxF "$required"; then
    echo "bench key check FAILED: BENCH_exec.json lacks $required"
    keys_ok=0
  fi
done
# BENCH_workload.json keeps both arms at every client count: the
# admitted fleet (workload_c<N>) and the same fleet and query with no
# admission (noadmit_c<N>), so the record of what admission buys cannot
# lose its baseline. There is no ratio gate on the pair: the smoke run
# is 64 queries over 50k rows and CI may have one core, while
# admission's win at 64 clients was measured only at full size (512
# queries over 800k rows) on 4 vCPUs.
for clients in 1 8 64 256; do
  for required in "workload_c$clients" "noadmit_c$clients"; do
    if ! bench_names BENCH_workload.json | grep -qxF "$required"; then
      echo "bench key check FAILED: BENCH_workload.json lacks $required"
      keys_ok=0
    fi
  done
done
check_keys BENCH_exec.json "the benches" \
    "$BUILD_DIR/BENCH_exec_smoke.json" "$BUILD_DIR/BENCH_fig17_smoke.json"
check_keys BENCH_write.json bench_write_path "$BUILD_DIR/BENCH_write_smoke.json"
check_keys BENCH_htap.json bench_htap "$BUILD_DIR/BENCH_htap_smoke.json"
check_keys BENCH_workload.json bench_workload \
    "$BUILD_DIR/BENCH_workload_smoke.json"
# The name check above cannot see stale metrics inside a cell, nor a
# committed file that lost a cell: for each pattern below, the committed
# file must hold exactly the cells the smoke produces, each carrying
# exactly the smoke's metric keys. This covers the parallel_merge_scan
# cell (the fig17 smoke runs the same 1,2,4,8 thread sweep) and the
# commit_w1/2/4/8 cells of BENCH_write.json (the smoke runs the same
# writer counts), whose wal_bytes_per_txn records a commit's WAL traffic.
metric_keys_match() {
  python3 - "$@" <<'PY' || keys_ok=0
import json, re, sys
committed_path, produced_path, pattern = sys.argv[1:4]
def cells(path):
    return {b["name"]: set(b["metrics"])
            for b in json.load(open(path))["benches"]
            if re.fullmatch(pattern, b["name"])}
committed, produced = cells(committed_path), cells(produced_path)
if not produced:
    sys.exit("bench key check FAILED: the smoke produced no %s cell" % pattern)
if set(committed) != set(produced):
    sys.exit("bench key check FAILED: %s cells differ from the smoke's"
             " (committed only: %s; smoke only: %s)"
             % (pattern, sorted(set(committed) - set(produced)),
                sorted(set(produced) - set(committed))))
for name, keys in sorted(committed.items()):
    got = produced[name]
    if keys != got:
        sys.exit("bench key check FAILED: %s metric keys differ"
                 " (committed only: %s; smoke only: %s)"
                 % (name, sorted(keys - got), sorted(got - keys)))
PY
}
metric_keys_match BENCH_exec.json "$BUILD_DIR/BENCH_fig17_smoke.json" \
    parallel_merge_scan
metric_keys_match BENCH_write.json "$BUILD_DIR/BENCH_write_smoke.json" \
    'commit_w[0-9]+'
[[ "$keys_ok" == 1 ]] || exit 1
echo "bench keys OK"

# Differential-fuzz provenance: the ctest stage above already ran the
# fixed-seed smoke batch (differential_fuzz_test's default iterations);
# the TSan stage below runs a longer batch from FUZZ_SEED. Record the
# seed in the bench artifact so any CI failure is a one-line repro:
#   PDT_FUZZ_SEED=<seed> PDT_FUZZ_ITERS=1 ./differential_fuzz_test
FUZZ_SEED="${PDT_FUZZ_SEED:-20260731}"
FUZZ_ITERS="${PDT_FUZZ_ITERS:-200}"
# Non-numeric overrides would corrupt the JSON artifact (and silently
# confuse the fuzz binary): fall back to the defaults.
[[ "$FUZZ_SEED" =~ ^[0-9]+$ ]] || FUZZ_SEED=20260731
[[ "$FUZZ_ITERS" =~ ^[0-9]+$ ]] || FUZZ_ITERS=200
# Same provenance scheme for the crash-recovery fuzzer (ASan stage below
# runs CRASH_ITERS seeded iterations); repro:
#   PDT_CRASH_SEED=<seed> PDT_CRASH_ITERS=1 ./crash_recovery_fuzz_test
CRASH_SEED="${PDT_CRASH_SEED:-20260808}"
CRASH_ITERS="${PDT_CRASH_ITERS:-200}"
[[ "$CRASH_SEED" =~ ^[0-9]+$ ]] || CRASH_SEED=20260808
[[ "$CRASH_ITERS" =~ ^[0-9]+$ ]] || CRASH_ITERS=200
cat > "$BUILD_DIR/BENCH_fuzz.json" <<EOF
{"differential_fuzz": {"seed": ${FUZZ_SEED}, "tsan_iters": ${FUZZ_ITERS}},
 "crash_recovery_fuzz": {"seed": ${CRASH_SEED}, "asan_iters": ${CRASH_ITERS}}}
EOF

if [[ "${PDTSTORE_SKIP_TSAN:-0}" != "1" ]]; then
  echo "== tsan build + parallel scan/pipeline/sort/join/commit + fuzz tests =="
  # ThreadSanitizer over the subsystems with cross-thread shared state:
  # exchange queues, the shared process pool, partial-agg merges, the
  # partitioned join build + published table, per-worker sort runs, the
  # buffer pool and shared read-only PDT layers — plus the long
  # differential fuzz batch (FUZZ_ITERS seeded iterations).
  TSAN_DIR="${BUILD_DIR}-tsan"
  cmake -B "$TSAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
      -DPDTSTORE_BUILD_BENCHES=OFF -DPDTSTORE_BUILD_EXAMPLES=OFF
  # htap_test runs the full HTAP driver (writer/reader/maintenance
  # threads over the multi-table commit FIFO) at small scale — the
  # densest cross-thread interleaving in the tree, so it belongs here.
  # txn_test and multi_txn_test drive the commit engine directly:
  # concurrent publishers whose commits fold the Write-PDT inline,
  # racing driverless table scans and the other committers. durability_test commits from 8
  # threads through a Database with a real WalWriter: the group-commit
  # fsync leader election in Wal::SyncTo racing the commit lock.
  # memory_budget_test: parallel sort and join-build workers charge one
  # shared lease at once, and a failed build's lease is released while
  # pool workers may still hold the op chain. tpch_test runs all 22
  # TPC-H plans at four threads: every fragment shape (filter, project,
  # probe, partial agg, partitioned build, sort runs) across workers.
  cmake --build "$TSAN_DIR" -j "$(nproc)" \
      --target parallel_scan_test pipeline_test parallel_sort_join_test \
      htap_test txn_test multi_txn_test durability_test \
      memory_budget_test tpch_test differential_fuzz_test \
      workload_stress_test
  (cd "$TSAN_DIR" && \
      ctest --output-on-failure \
          -R "parallel_scan_test|pipeline_test|parallel_sort_join_test|htap_test|txn_test|multi_txn_test|durability_test|memory_budget_test|tpch_test")
  (cd "$TSAN_DIR" && \
      PDT_FUZZ_SEED="$FUZZ_SEED" PDT_FUZZ_ITERS="$FUZZ_ITERS" \
          ./differential_fuzz_test)
  # The workload stress batch belongs under TSan: 16 driver threads
  # through the admission gate and budget charges racing on the shared
  # pool. A smaller batch than the default — TSan's interleaving checks,
  # not query volume, are the point here.
  (cd "$TSAN_DIR" && PDT_WORKLOAD_QUERIES=150 ./workload_stress_test)
fi

if [[ "${PDTSTORE_SKIP_ASAN:-0}" != "1" ]]; then
  echo "== asan build (assertions on) + durability/crash-recovery/join/merge/decode/predicate/project/sparse-index/pdt tests =="
  # AddressSanitizer over the durability path: the WAL frame codec and
  # recovery scanner parse attacker-shaped (torn / bit-flipped) bytes,
  # and the crash fuzzer tears writes at arbitrary offsets — exactly
  # where an out-of-bounds read would hide. CRASH_ITERS seeded
  # iterations of the fuzzer run under ASan.
  # This is the one assert-enabled build in CI: RelWithDebInfo flags
  # without -DNDEBUG, so contracts such as "the const typed accessors
  # see owned-plain storage" are checked, not silently skipped.
  ASAN_DIR="${BUILD_DIR}-asan"
  cmake -B "$ASAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=address" \
      -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O1 -g" \
      -DPDTSTORE_BUILD_BENCHES=OFF -DPDTSTORE_BUILD_EXAMPLES=OFF
  # The compressed-execution suite also runs here: borrowed spans over
  # pool-owned chunk memory and dictionary-code reads are exactly the
  # pointer arithmetic ASan exists to check.
  # memory_budget_test runs here too: budget-triggered teardown paths
  # (aborted sorts, failed join builds) free buffers on
  # error edges that the happy path never takes — use-after-free bait.
  # exec_test and parallel_sort_join_test cover the join table's row+1
  # chain links, the probe's candidate and cursor arrays (compacted in
  # place each round, then reordered by probe row) and the partitioned
  # build's per-partition row indices: index arithmetic where an
  # off-by-one reads past a vector.
  # merge_scan_test and pipeline_test run here because merged scan
  # output borrows slices of pool-owned chunks through every PDT layer.
  # encoding_test and storage_test run here because the chunk decode
  # kernels write through raw pointers into sized vectors and load 8-byte
  # words near the payload's end; the suites feed them truncated and
  # hostile payloads, where an out-of-bounds read or write would hide.
  # keep_bitmap_test and exec_kernels_test run here because
  # KeepBitmap::FillFrom packs verdicts with 8-byte loads from a stack
  # buffer, and ProjectBatch moves columns out of an input batch that is
  # then reused: use-after-move bait that exec_test and pipeline_test
  # drive through ProjectNode and the pipeline's project op.
  # exec_kernels_test also drives hash aggregation's probe positions,
  # selection compaction and pool ids over borrowed and dictionary keys.
  # sparse_index_test runs here because SparseIndex::LookupRange asserts
  # its one-interval contract (the qualifying chunks are contiguous),
  # and only this build keeps asserts.
  # pdt_test, pdt_stress_test and propagate_serialize_test run here
  # because PDT nodes hold exactly kFanout slots: an off-by-one write
  # lands in the next member of the same node, which ASan cannot see,
  # so only the asserts where nodes grow (InsertEntryAt, LinkSibling)
  # and the value-space compaction's one-reference check catch it.
  cmake --build "$ASAN_DIR" -j "$(nproc)" \
      --target wal_test durability_test crash_recovery_fuzz_test \
      compressed_exec_test memory_budget_test exec_test \
      parallel_sort_join_test merge_scan_test pipeline_test \
      encoding_test storage_test keep_bitmap_test exec_kernels_test \
      sparse_index_test pdt_test pdt_stress_test propagate_serialize_test
  (cd "$ASAN_DIR" && \
      ctest --output-on-failure \
          -R "wal_test|durability_test|compressed_exec_test|memory_budget_test|exec_test|parallel_sort_join_test|merge_scan_test|pipeline_test|encoding_test|storage_test|keep_bitmap_test|exec_kernels_test|sparse_index_test|pdt_test|pdt_stress_test|propagate_serialize_test")
  (cd "$ASAN_DIR" && \
      PDT_CRASH_SEED="$CRASH_SEED" PDT_CRASH_ITERS="$CRASH_ITERS" \
          ./crash_recovery_fuzz_test)
fi

echo "CI OK"
