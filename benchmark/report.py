#!/usr/bin/env python3
"""Collects pdtbench run outputs into one results file.

    report.py --out results.json [--check-keys BENCHMARK.json] RUN.out...

Each RUN.out is the standard output of one `pdtbench` process: a
`# pdtbench workload=... seed=... trace=...` header and, as its last line,
the run's JSON result. Writes every run plus, per (workload, trace mode),
the median, quartiles and interquartile range of each metric — quartiles
as Python's statistics.quantiles(values, n=4) gives them. With several
runs per workload it also prints that summary. --check-keys fails if a
run lacks a metric the benchmark file names (end-to-end metrics for
untraced runs, per-layer metrics for traced ones).
"""
import argparse
import json
import statistics
import sys


def parse_run(path):
    with open(path) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    header = {}
    for line in lines:
        if line.startswith("# pdtbench "):
            header = dict(kv.split("=", 1) for kv in line.split()[2:])
            break
    if not header or not lines[-1].startswith("{"):
        return None
    result = json.loads(lines[-1])
    return {
        "workload": header["workload"],
        "seed": int(header["seed"]),
        "trace": int(header["trace"]),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def summarize(runs):
    groups = {}
    for run in runs:
        key = f"{run['workload']}/trace{run['trace']}"
        for name, m in run["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, (m["unit"], []))[1].append(
                m["value"])
    summary = {}
    for key, metrics in groups.items():
        summary[key] = {}
        for name, (unit, values) in metrics.items():
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else [values[0]] * 3)
            summary[key][name] = {
                "unit": unit, "runs": len(values), "median": median,
                "q1": q1, "q3": q3,
                "iqr_share": (q3 - q1) / median if median else 0.0,
            }
    return summary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--check-keys")
    ap.add_argument("runs", nargs="+")
    args = ap.parse_args()

    ok = True
    runs = []
    for path in args.runs:
        run = parse_run(path)
        if run is None:
            print(f"report: {path} holds no result", file=sys.stderr)
            ok = False
        else:
            runs.append(run)
            if not run["correct"]:
                print(f"report: {path} failed its correctness checks",
                      file=sys.stderr)
                ok = False

    if args.check_keys:
        with open(args.check_keys) as f:
            spec = json.load(f)
        for run in runs:
            wanted = spec["per_layer" if run["trace"] else "end_to_end"]
            missing = [m["name"] for m in wanted if m["name"] not in run["metrics"]]
            if missing:
                print(f"report: {run['workload']} (trace {run['trace']}) is "
                      f"missing {', '.join(missing)}", file=sys.stderr)
                ok = False

    summary = summarize(runs)
    if any(s["runs"] > 1 for metrics in summary.values() for s in metrics.values()):
        print(f"{'workload/mode':28} {'metric':32} {'median':>14} "
              f"{'q1':>14} {'q3':>14} {'iqr/med':>8} runs")
        for key in sorted(summary):
            for name in sorted(summary[key]):
                s = summary[key][name]
                print(f"{key:28} {name:32} {s['median']:14.6g} {s['q1']:14.6g} "
                      f"{s['q3']:14.6g} {s['iqr_share']:8.2%} {s['runs']}")
    with open(args.out, "w") as f:
        json.dump({"runs": runs, "summary": summary}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"report: {len(runs)} runs -> {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
