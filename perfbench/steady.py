#!/usr/bin/env python3
"""Steadiness self-check for the repository benchmark.

Runs the benchmark command from BENCHMARK.json on each workload once per
seed, then prints for every end-to-end metric its median, quartiles and
spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) next to the
metric's bound, and flags any spread above its bound. It also checks that
the deterministic ``counts`` line repeats exactly on every run of a
workload, and that every run reports ``"correct": true``.

Run it from the repository root:

    python3 perfbench/steady.py --seeds 10
    python3 perfbench/steady.py --workloads fuzz_deep --seeds 5 --stream-seed 11
    python3 perfbench/steady.py --seeds 10 --out a.json
    python3 perfbench/steady.py --seeds 10 --against a.json   # median shift

Exit status 1 if a spread exceeds its bound, a median moved by more than
its bound against ``--against``, a run was incorrect, or counts differ.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, stream_seed):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    if stream_seed is not None:
        args += ["--stream-seed", str(stream_seed)]
    out = subprocess.run(args, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    counts = [line for line in lines if line.startswith("counts ")]
    return json.loads(lines[-1]), counts


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / abs(med) if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--stream-seed", type=int)
    ap.add_argument("--out", help="write every value to this JSON file")
    ap.add_argument("--against", help="compare medians with a file written by --out")
    opts = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = opts.seconds or bench["run_seconds"]
    previous = json.load(open(opts.against)) if opts.against else {}

    bad = False
    values = {}
    for w in workloads:
        per_metric, counts_seen = {}, set()
        for seed in range(opts.first_seed, opts.first_seed + opts.seeds):
            result, counts = run_once(bench["command"], w, seed, seconds,
                                      opts.stream_seed)
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: incorrect run: {result}")
                bad = True
            counts_seen.add("\n".join(counts))
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        if len(counts_seen) != 1:
            print(f"{w}: deterministic counts differ between runs:")
            for c in sorted(counts_seen):
                print("   ", c)
            bad = True
        values[w] = per_metric
        print(f"\n{w}: {opts.seeds} runs")
        print(f"  {'metric':24} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vs in per_metric.items():
            if len(vs) < 2:
                continue
            q1, med, q3, sp = spread(vs)
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and sp > bound:
                flag = "  SPREAD ABOVE BOUND"
                bad = bad or name != "setup_s"
            elif bound is not None and sp > bound / 3:
                flag = "  above bound/3"
            if name in previous.get(w, {}) and bound is not None:
                before = statistics.median(previous[w][name])
                worse = (med - before) / before
                if bounds[name]["better"] == "higher":
                    worse = -worse
                flag += f"  shift {worse:+.3f}"
                if worse > bound:
                    flag += " WORSE THAN BOUND"
                    bad = True
            bstr = f"{bound:6.2f}" if bound is not None else "     -"
            print(f"  {name:24} {q1:12.6g} {med:12.6g} {q3:12.6g} {sp:8.4f} {bstr}{flag}")
        print(flush=True)
    if opts.out:
        json.dump(values, open(opts.out, "w"), indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
