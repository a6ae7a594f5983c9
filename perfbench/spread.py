#!/usr/bin/env python3
"""Run one workload on several seeds and print each metric's spread.

For every metric of the final result line it prints the median, the
quartiles (statistics.quantiles(n=4)) and the interquartile range as a
share of the median, checked against the bound BENCHMARK.json declares.

With --record FILE it also merges a summary into FILE under the
workload's name: the workload's reason from BENCHMARK.json, medians and
quartiles of every metric and printed detail, the seeds, and the
provenance of the first run. BASELINE.json is made this way.

Usage, from the repository root:
    python3 perfbench/spread.py --workload train --seeds 1-10 [--trace 1]
        [--seconds N] [--record perfbench/BASELINE.json]
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(xs):
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
    return med, q1, q3, ((q3 - q1) / med if med else float("nan"))


def details(run):
    """The run's printed detail lines as {name: (value, unit)}."""
    out = {}
    for line in run["report"]:
        parts = line.split()
        if parts and parts[0] == "detail" and len(parts) >= 3:
            out[parts[1]] = (float(parts[2]), parts[3] if len(parts) > 3 else "")
        if parts and parts[0] == "provenance":
            run["provenance"] = json.loads(line[len("provenance "):])
    return out


def record(path, workload, why, trace, seconds, runs):
    try:
        base = json.load(open(path))
    except FileNotFoundError:
        base = {}
    entry = base.setdefault("workloads", {}).setdefault(workload, {})
    entry["why"] = why
    section = {}
    for name in sorted(runs[0]["metrics"]):
        med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
        section[name] = {"median": med, "q1": q1, "q3": q3, "iqr_over_median": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
    dets = [details(r) for r in runs]
    detail = {}
    for name in sorted(dets[0]):
        xs = [d[name][0] for d in dets if name in d]
        med, q1, q3, spread = summary(xs)
        detail[name] = {"median": med, "q1": q1, "q3": q3, "unit": dets[0][name][1]}
    key = "per_layer" if trace == "1" else "end_to_end"
    entry[key] = {
        "seeds": [r["seed"] for r in runs],
        "seconds": seconds,
        "all_correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "provenance": runs[0].get("provenance", {}),
        "metrics": section,
        "detail": detail,
    }
    with open(path, "w") as f:
        json.dump(base, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--record", help="merge a summary into this baseline file")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in seeds(a.seeds):
        cmd = bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", a.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        lines = out.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        res["seed"] = seed
        res["report"] = lines[:-1]
        runs.append(res)
        vals = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items()))
        steal = details(res).get("host_steal_pct", (float("nan"),))[0]
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} steal={steal:.1f}% {vals}", flush=True)
        for line in lines[:-1]:
            if line.startswith(("failed", "invalid")):
                print("   ", line)
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    worst = True
    for name in sorted(runs[0]["metrics"]):
        med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and not spread <= bound / 3:
            flag, worst = " <-- above bound/3", False
        print(f"{name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound if bound is not None else '':>6}{flag}")
    ok = all(r["correct"] for r in runs)
    print(f"all correct: {ok}; spreads within bound/3: {worst}")
    if a.record:
        why = next(w["why"] for w in bench["workloads"] if w["name"] == a.workload)
        record(a.record, a.workload, why, a.trace, seconds, runs)


if __name__ == "__main__":
    main()
