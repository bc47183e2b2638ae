#!/usr/bin/env python3
"""Calibrates the serving benchmark's bounds on the current host.

Runs every workload of BENCHMARK.json --runs times untraced and --traced
times traced, each untraced run with its own seed and the workloads
interleaved, so that a change in the host's load hits every workload alike.
Traced run i of a workload follows its untraced run i at the same seed and
reports trace_overhead_pct against it. For each end-to-end metric it records the
per-run values, their median and quartiles and the spread (q3 - q1) / median,
and derives the metric's bound (see derive_bound). The previous contents of
the output file move into its history. Run it from the root of the
repository:

    python3 benchmark/calibrate.py --runs 10 --traced 3 --change "what changed" -o benchmark/CALIBRATION.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# Bounds are picked from this grid. The largest is the most a bound may be.
GRID = (0.01, 0.02, 0.05, 0.10, 0.15, 0.20, 0.25)

# Latency percentiles every run prints but BENCHMARK.json does not gate;
# their spreads are recorded to show why.
LATENCIES = ("req_p50_ms", "req_p90_ms", "req_p99_ms")


def derive_bound(metric, spread_now, spread_before):
    """The smallest grid value at least three times the largest spread this
    calibration measured for the metric (over the workloads), and at least
    the largest spread an earlier calibration measured with the metric
    computed as it is now, capped at the grid's largest. Three times,
    because the medians of two sets of runs must agree within the bound,
    and a spread above a third of the bound makes that a coin toss. setup_s
    always takes the largest bound: even as the median of five set-ups per
    run, it spreads the most of the gated metrics."""
    if metric == "setup_s":
        return GRID[-1]
    need = max(3 * spread_now, spread_before)
    return next((b for b in GRID if b >= need), GRID[-1])


def run_once(workload, seed, seconds, trace, baseline=None):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if baseline:
        cmd += ["--baseline", baseline]
    begin = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    wall = time.monotonic() - begin
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stderr}")
    lines = [json.loads(l) for l in proc.stdout.strip().splitlines()]
    result = lines[-1]
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)}: verification failed\n{proc.stderr}")
    extra = {l["metric"]: l["value"] for l in lines[:-1] if "metric" in l}
    return proc.stdout, result, extra, wall


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def earlier(path):
    """The previous calibration at path (None if there is none) and its
    history, with the previous calibration itself appended as the last
    entry."""
    if not os.path.exists(path):
        return None, []
    with open(path) as f:
        prev = json.load(f)
    history = prev.get("history", [])
    history.append({
        "calibration": str(len(history) + 1),
        "change": prev.get("change", ""),
        # Edit this list by hand when a metric's statistic changes.
        "current_metrics": sorted(next(iter(prev["end_to_end"].values()))),
        "first_seed": prev["first_seed"],
        "runs": prev["runs"],
        "spread": {w: {m: round(s["spread"], 4) for m, s in ms.items()}
                   for w, ms in prev["end_to_end"].items()},
        "median": {w: {m: s["median"] for m, s in ms.items()}
                   for w, ms in prev["end_to_end"].items()},
    })
    return prev, history


def agreement(prev, end_to_end, metrics, current):
    """How much worse each median is than the previous calibration's, as a
    share of the previous median, for the metrics computed as they are now
    in both (current lists those of the previous calibration)."""
    out = {}
    for w, ms in end_to_end.items():
        for m, spec in metrics.items():
            old = prev["end_to_end"].get(w, {}).get(m) if prev else None
            if old is None or m not in current:
                continue
            a, b = old["median"], ms[m]["median"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            out.setdefault(w, {})[m] = {"previous_median": a, "median": b, "worse_by": round(worse, 4),
                                        "bound": spec["bound"], "within_bound": worse <= spec["bound"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    ap.add_argument("--traced", type=int, default=3, help="traced runs per workload (at most --runs)")
    ap.add_argument("--seed", type=int, default=1000, help="seed of the first run")
    ap.add_argument("--change", default="", help="what changed since the previous calibration")
    ap.add_argument("-o", "--out", default="benchmark/CALIBRATION.json")
    args = ap.parse_args()
    if args.traced > args.runs:
        sys.exit("--traced may not exceed --runs")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    bounds = {m: spec["bound"] for m, spec in metrics.items()}
    outputs = os.path.join(".bench_build", "calibrate")
    os.makedirs(outputs, exist_ok=True)

    untraced = {w: {m: [] for m in bounds} for w in names}
    latencies = {w: {m: [] for m in LATENCIES} for w in names}
    traced = {w: {} for w in names}
    seeds = {w: [] for w in names}
    walls = []
    seed = args.seed
    for i in range(args.runs):
        for w in names:
            stdout, result, extra, wall = run_once(w, seed, seconds, 0)
            with open(os.path.join(outputs, f"{w}-{seed}.jsonl"), "w") as f:
                f.write(stdout)
            seeds[w].append(seed)
            seed += 1
            walls.append(wall)
            for name, m in result["metrics"].items():
                untraced[w][name].append(m["value"])
            for name in LATENCIES:
                latencies[w][name].append(extra[name])
            print(f"trace=0 {w} run {i + 1}: {wall:.1f} s", file=sys.stderr)
            if i >= args.traced:
                continue
            # Right after its untraced run, so that the host's drift does not
            # enter trace_overhead_pct.
            s = seeds[w][i]
            _, result, extra, wall = run_once(w, s, seconds, 1, os.path.join(outputs, f"{w}-{s}.jsonl"))
            walls.append(wall)
            for name, m in result["metrics"].items():
                traced[w].setdefault(name, []).append(m["value"])
            traced[w].setdefault("trace_overhead_pct", []).append(extra["trace_overhead_pct"])
            print(f"trace=1 {w} run {i + 1}: {wall:.1f} s", file=sys.stderr)

    prev, history = earlier(args.out)
    end_to_end = {w: {m: summary(v) for m, v in ms.items()} for w, ms in untraced.items()}
    agree = agreement(prev, end_to_end, metrics, history[-1]["current_metrics"] if history else [])
    derived = {}
    for m in bounds:
        now_w = max(names, key=lambda w: end_to_end[w][m]["spread"])
        before = [(h["calibration"], w, s[m]) for h in history if m in h.get("current_metrics", [])
                  for w, s in h["spread"].items() if m in s]
        before_max = max(before, key=lambda x: x[2], default=(None, None, 0))
        spread_now = end_to_end[now_w][m]["spread"]
        bound = derive_bound(m, spread_now, before_max[2])
        derived[m] = {
            "bound": bound,
            "largest_spread": round(spread_now, 4), "workload": now_w,
            "largest_earlier_spread": round(before_max[2], 4),
            "earlier_calibration": before_max[0], "earlier_workload": before_max[1],
            "spread_within_third_of_bound": spread_now <= bound / 3,
            "benchmark_json_bound": bounds[m],
        }

    out = {
        "note": "Spread is (q3 - q1) / median over the runs, quartiles as statistics.quantiles(values, n=4) "
                "gives them. bounds holds each end-to-end metric's bound as derive_bound in calibrate.py "
                "derives it, with the spreads it was derived from. history lists the earlier calibrations "
                "and the change after each; current_metrics names the metrics an entry computed as they "
                "are computed now, whose spreads count toward the bounds.",
        "change": args.change,
        "host": {"cpus": os.cpu_count(), "cpu": cpu_model(),
                 "go": subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()},
        "run_seconds": seconds,
        "runs": args.runs,
        "traced_runs": args.traced,
        "first_seed": args.seed,
        "wall_s_per_run": summary(walls),
        "bounds": derived,
        "agreement_with_previous": agree,
        "end_to_end": end_to_end,
        "latency": {w: {m: summary(v) for m, v in ms.items()} for w, ms in latencies.items()},
        "per_layer": {w: {m: summary(v) for m, v in ms.items()} for w, ms in traced.items()} if args.traced >= 2 else {},
        "history": history,
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    for w in names:
        for m, s in list(end_to_end[w].items()) + list(out["latency"][w].items()):
            print(f"{w:14s} {m:14s} median {s['median']:14.6g} spread {s['spread']:.4f}")
    for m, d in derived.items():
        flag = "" if d["bound"] == d["benchmark_json_bound"] else f"  <-- BENCHMARK.json has {d['benchmark_json_bound']}"
        print(f"{m:14s} bound {d['bound']:.2f} (largest spread {d['largest_spread']:.4f} on {d['workload']}, "
              f"earlier {d['largest_earlier_spread']:.4f}){flag}")
    for w, ms in agree.items():
        for m, a in ms.items():
            flag = "" if a["within_bound"] else "  <-- worse than the bound"
            print(f"{w:14s} {m:14s} median worse than the previous calibration's by {a['worse_by']:+.4f}{flag}")


if __name__ == "__main__":
    main()
