#!/usr/bin/env bash
# pdtbench: builds the benchmark (Release) and runs its workloads, each in
# a process of its own so the worker pool, the allocator and the RSS of
# one workload never carry over into the next. Run from anywhere; paths
# are relative to the repository root.
#
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       One run of one workload (the command BENCHMARK.json names). The
#       last line of its output is the run's JSON result.
#   benchmark/run.sh [--trace] [--seconds=S] [--seed=N]
#       Every workload once, untraced (or traced: per-layer metrics plus
#       a Chrome trace per workload under .bench_build/).
#   benchmark/run.sh --repeat=N [...]
#       N rounds with seeds 1..N, the workloads alternating inside each
#       round; prints the median and interquartile range of every metric.
#   benchmark/run.sh --smoke
#       SF 0.01, 2 s per workload, untraced and traced; fails if any
#       metric BENCHMARK.json names is not emitted.
#
# Every run prints each metric as `workload metric value unit`; the
# multi-run modes then write all results to .bench_build/results.json.
# Exits non-zero if any run failed a correctness check.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=.bench_build
BIN="$BUILD_DIR/pdtbench"
WORKLOADS=(olap_hot olap_cold htap_mixed ingest)

build() {
  if [[ ! -f "$BUILD_DIR/build.ninja" && ! -f "$BUILD_DIR/Makefile" ]]; then
    local generator=()
    if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
    cmake -S benchmark -B "$BUILD_DIR" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "$BUILD_DIR" --target pdtbench -j 4 >&2
}

# Single-run mode: everything goes to the binary unchanged.
for arg in "$@"; do
  if [[ "$arg" == --workload || "$arg" == --workload=* ]]; then
    build
    exec "$BIN" "$@"
  fi
done

repeat=1
trace=0
smoke=0
seconds=
seed=7
for arg in "$@"; do
  case "$arg" in
    --repeat=*) repeat="${arg#*=}" ;;
    --trace) trace=1 ;;
    --smoke) smoke=1 ;;
    --seconds=*) seconds="${arg#*=}" ;;
    --seed=*) seed="${arg#*=}" ;;
    *) echo "run.sh: unknown argument $arg (see the header of $0)" >&2; exit 2 ;;
  esac
done
if ! [[ "$repeat" =~ ^[1-9][0-9]*$ ]]; then
  echo "run.sh: --repeat takes a positive count" >&2
  exit 2
fi
build

extra=()
modes=("$trace")
if [[ "$smoke" == 1 ]]; then
  extra=(--sf 0.01 --setup-reps 2)
  seconds=${seconds:-2}
  modes=(0 1)
fi
if [[ -z "$seconds" ]]; then
  seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
fi

runs_dir="$BUILD_DIR/runs"
rm -rf "$runs_dir"
mkdir -p "$runs_dir"
status=0
for ((round = 1; round <= repeat; round++)); do
  run_seed=$seed
  [[ "$repeat" -gt 1 ]] && run_seed=$round
  for mode in "${modes[@]}"; do
    for w in "${WORKLOADS[@]}"; do
      log="$runs_dir/$round-$w-trace$mode.out"
      if ! "$BIN" --workload "$w" --seed "$run_seed" --seconds "$seconds" \
          --trace "$mode" "${extra[@]}" >"$log"; then
        echo "run.sh: $w (seed $run_seed, trace $mode) failed; see $log" >&2
        status=1
      fi
      grep -v -e '^#' -e '^{' "$log" || true
    done
  done
done

check=()
[[ "$smoke" == 1 ]] && check=(--check-keys BENCHMARK.json)
python3 benchmark/report.py --out "$BUILD_DIR/results.json" "${check[@]}" \
  "$runs_dir"/*.out || status=1
exit "$status"
