"""Regenerate ``tolerances.json``: every verify check id and its tolerance.

Run from the root of the repository:

    python3 perfbench/tolerances.py

It runs ``ale-lab verify`` for every (k, lambda, suite) the benchmark's
workloads use and records each check's tolerance.  A benchmark run fails
when a check id of this table disappears or its tolerance grows, so
regenerate the table only when a check is added or deliberately tightened.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "tolerances.json")


def load():
    with open(TABLE, encoding="utf-8") as fh:
        return json.load(fh)["configs"]


def generate(outdir):
    import checks
    import workloads

    configs = {}
    for k, lam, suites in workloads.verify_configs():
        entry = configs.setdefault(checks.config_key(k, lam), {})
        for suite in suites:
            path = os.path.join(outdir, f"tol_{suite}.json")
            code, _out, err = workloads.run_cli(
                ["verify", "--suite", suite, "--k", str(k), "--lambda", repr(lam),
                 "--report", path])
            if code != 0:
                raise SystemExit(f"verify --suite {suite} --k {k} --lambda {lam} "
                                 f"exited {code}: {err}")
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
            entry[suite] = {c["check_id"]: c["tolerance"] for c in report["suites"][0]["checks"]}
    return configs


def main():
    import run

    root = run.prepare_environment()
    os.makedirs(run.out_dir(root), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.out_dir(root)) as tmp:
        configs = generate(tmp)
    with open(TABLE, "w", encoding="utf-8") as fh:
        json.dump({"generated_by": "python3 perfbench/tolerances.py", "configs": configs},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(len(c) for s in configs.values() for c in s.values())} "
          f"check tolerances for {len(configs)} configurations to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
