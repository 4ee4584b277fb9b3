#!/usr/bin/env python3
"""Steadiness evidence for the benchmark's end-to-end metrics.

Runs the workloads interleaved, one run at a time, alternating their
order every round (forward on even rounds, reversed on odd ones), and
prints for every metric its median, quartiles, quartile spread and
largest deviation from the median, set against the bound in
BENCHMARK.json. Each run also reports its median host slowdown (the
host-speed probe, fixed loops timed around every query outside the
library, against their time on the reference host), so a slow host
stretch can be told apart from a slow change. Digests are compared per
seed: identical at one seed, different across seeds.

    python3 perfbench/steadiness.py --rounds 10 --seeds 1-10
    python3 perfbench/steadiness.py --workloads plan_sweep --rounds 5

The quartiles are Python's statistics.quantiles(values, n=4). The first
and second halves of the rounds are also compared, as two sets of runs
of the same code.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    probe = re.search(r"host_slowdown\s+p25 \S+\s+p50 (\S+)", proc.stdout)
    digest = re.search(r"digest\s+(\w+)", proc.stdout)
    return {
        "workload": workload,
        "seed": seed,
        "result": result,
        "slowdown": float(probe.group(1)) if probe else float("nan"),
        "digest": digest.group(1) if digest else "",
    }


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    dev = max(abs(v - med) for v in values)
    return med, q1, q3, (q3 - q1) / med, dev / med


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seeds", default="1-10",
                        help="seeds, cycled over the rounds (e.g. 1-10 or 1,2,3)")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for r in range(args.rounds):
        seed = seeds[r % len(seeds)]
        for w in (workloads if r % 2 == 0 else workloads[::-1]):
            run = run_once(w, seed, args.seconds)
            run["round"] = r
            runs.append(run)
            metrics = run["result"]["metrics"]
            print(f"round {r:2d} {w:13s} seed {seed:4d} "
                  f"slowdown {run['slowdown']:.3f}  digest {run['digest']}  "
                  + "  ".join(f"{k} {v['value']:.6g}"
                              for k, v in metrics.items()),
                  flush=True)

    ok = True
    for w in workloads:
        mine = [x for x in runs if x["workload"] == w]
        attempted = sum(x["result"]["attempted"] for x in mine)
        failed = sum(x["result"]["failed"] for x in mine)
        print(f"\n{w}: {len(mine)} runs, {failed} of {attempted} queries "
              f"failed")
        slowdowns = [x["slowdown"] for x in mine]
        med, q1, q3, iqr, dev = spread(slowdowns)
        print(f"  {'host_slowdown':16s} median {med:10.4g}  q1 {q1:10.4g}  "
              f"q3 {q3:10.4g}  iqr {100 * iqr:5.1f}%  maxdev {100 * dev:5.1f}%")
        half = len(mine) // 2
        for name, bound in bounds.items():
            values = [x["result"]["metrics"][name]["value"] for x in mine]
            med, q1, q3, iqr, dev = spread(values)
            line = (f"  {name:16s} median {med:10.4g}  q1 {q1:10.4g}  "
                    f"q3 {q3:10.4g}  iqr {100 * iqr:5.1f}%  "
                    f"maxdev {100 * dev:5.1f}%  bound {100 * bound:4.1f}%")
            steady = iqr < bound / 3
            ok &= steady
            line += "  steady" if steady else "  NOT STEADY (iqr >= bound/3)"
            if half >= 2:
                first = statistics.median(values[:half])
                second = statistics.median(values[half:])
                lower = next(m["better"] == "lower" for m in bench["end_to_end"]
                             if m["name"] == name)
                worse = (second / first - 1) if lower else (first / second - 1)
                ok &= worse <= bound
                line += f"  halves {100 * worse:+5.1f}%"
            print(line)
        by_seed = {}
        for x in mine:
            by_seed.setdefault(x["seed"], set()).add(x["digest"])
        same = all(len(d) == 1 for d in by_seed.values())
        distinct = len({next(iter(d)) for d in by_seed.values()}) == len(by_seed)
        print(f"  digests: {'identical' if same else 'DIFFER'} within each "
              f"seed, {'distinct' if distinct else 'REPEATED'} across "
              f"{len(by_seed)} seeds")
        ok &= same and distinct and failed == 0
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
