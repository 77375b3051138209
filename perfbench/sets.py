"""Run a set of untraced runs and print each metric's median and quartiles.

    python3 perfbench/sets.py --seeds 11-20 [--out runs.jsonl]

For every seed it runs every workload once, in turn, with the run length
of BENCHMARK.json, so slow phases of the machine fall on all workloads
alike.  Each run's JSON result is appended to ``--out``; the table printed
at the end is the one README.md shows for each set.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def table(rows):
    lines = ["| workload | metric | median | q1 | q3 | (q3 − q1) / median |",
             "| --- | --- | --- | --- | --- | --- |"]
    for wl in dict.fromkeys(r["workload"] for r in rows):
        runs = [r for r in rows if r["workload"] == wl]
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = stats.quartiles(values)
            lines.append(f"| `{wl}` | `{name}` ({m['unit']}) | {q2:.6g} | {q1:.6g} | {q3:.6g} "
                         f"| {(q3 - q1) / q2:.3f} |")
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        lines.append(f"| `{wl}` | {len(runs)} runs, all correct: "
                     f"{all(r['correct'] for r in runs)}; failed/attempted {', '.join(shares)} "
                     f"| | | | |")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="a seed or a range such as 11-20")
    parser.add_argument("--out", default=None, help="append each run's result here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    workloads = [w["name"] for w in manifest["workloads"]]
    rows = []
    for seed in parse_seeds(args.seeds):
        for wl in workloads:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(manifest["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{wl} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            row = json.loads(proc.stdout.strip().splitlines()[-1])
            row.update(workload=wl, seed=seed, wall_s=time.perf_counter() - t0)
            rows.append(row)
            print(f"{wl} seed {seed}: {row['wall_s']:.1f} s", file=sys.stderr)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(row) + "\n")
    print(table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
