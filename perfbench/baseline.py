#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and summarises it.

For each workload and seed it runs the command in BENCHMARK.json with
`--trace 0`, keeps every result, and reports per metric the median and
the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound. Optionally it also makes one traced run per workload
and keeps its span dump.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/results/set1.json
    python3 perfbench/baseline.py --workloads light-4k --seeds 1-5
    python3 perfbench/baseline.py --seeds 1 --trace --spans-dir perfbench/results
    python3 perfbench/baseline.py --compare perfbench/results/set1.json perfbench/results/set2.json

Run it from the repository root. It exits with code 1 if any run fails,
reports `correct: false`, or shows a spread above its bound. With
`--compare` it runs nothing: it prints how far the second set's median of
each metric lies from the first's, as a share of the first, and exits with
code 1 if any lies further than the metric's bound, in either direction.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(bench, workload, seed, trace, extra=()):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "1" if trace else "0",
        *extra,
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result["wall_s"] = round(wall, 2)
    result["lines"] = lines[:-1]
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def compare(bench, first, second):
    sets = []
    for name in (first, second):
        with open(name) as f:
            sets.append(json.load(f)["workloads"])
    ok = True
    for w, runs in sets[0].items():
        for m in bench["end_to_end"]:
            a = runs["summary"][m["name"]]["median"]
            b = sets[1][w]["summary"][m["name"]]["median"]
            change = (b - a) / a
            flag = ""
            if abs(change) > m["bound"]:
                flag, ok = "  DISAGREE", False
            print(f"{w:15s} {m['name']:18s} {a:<12.6g} {b:<12.6g} {change:+.3f}"
                  f"  bound {m['bound']}{flag}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", help="write every result and the summary here")
    ap.add_argument("--trace", action="store_true",
                    help="one traced run per workload on the first seed instead")
    ap.add_argument("--spans-dir", help="with --trace: keep the span dumps here")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare the medians of two result files instead")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.compare:
        sys.exit(0 if compare(bench, *args.compare) else 1)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    doc = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for w in workloads:
        if args.trace:
            extra = (["--spans-out", f"{args.spans_dir}/spans-{w}.json"]
                     if args.spans_dir else [])
            r = run(bench, w, seeds[0], True, extra)
            doc["workloads"][w] = {"traced": r}
            print(f"{w} seed {seeds[0]} traced ({r['wall_s']} s)")
            for k, v in r["metrics"].items():
                print(f"  {k:40s} {v['value']:.6g} {v['unit']}")
            continue
        runs = []
        for seed in seeds:
            r = run(bench, w, seed, False)
            r["seed"] = seed
            runs.append(r)
            print(f"{w} seed {seed}: {r['wall_s']} s  " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()), flush=True)
        summary = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, sp = spread(values) if len(values) > 1 else (values[0], 0.0)
            summary[m["name"]] = {"median": med, "spread": sp, "bound": m["bound"],
                                  "unit": m["unit"]}
            flag = ""
            if sp > m["bound"]:
                flag, ok = "  OVER BOUND", False
            elif sp > m["bound"] / 3:
                flag = "  above a third of the bound"
            print(f"  {m['name']:18s} median {med:<12.6g} spread {sp:7.4f}"
                  f"  bound {m['bound']}{flag}")
        doc["workloads"][w] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
