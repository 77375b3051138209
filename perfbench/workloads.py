"""The three workloads: their inputs, their operation and their checks.

Each workload repeats one kind of operation whose cost varies little and
covers its whole input set a whole number of times per run.  Operations go
through the program's public entry point ``ale_lab.cli.main``.
"""
from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from ale_lab import cli, jets

import checks

VERIFY_SUITES = ("gh", "harmonic", "quadrature", "deformation")
GRID = tuple((k, lam) for k in (1, 2, 3) for lam in (0.5, 1.0, 2.0))
OBSTRUCT_FILES = 12
OBSTRUCT_LAMBDAS = (0.5, 1.0, 2.0)
# The finite-difference route of D meets 1e-6 relative for jets up to this size.
MAX_JET_ENTRY = 1.0


def run_cli(argv):
    """``ale_lab.cli.main`` with its output captured; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _read(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def _unlink(path):
    if os.path.exists(path):
        os.remove(path)


class Workload:
    """Base: ``inputs`` is one round; ``run`` is one operation."""

    name = ""
    ref_reps = 1

    def __init__(self, tmpdir, table):
        self.tmpdir = tmpdir
        self.table = table
        self.inputs = []

    def prepare(self, seed):
        raise NotImplementedError

    def warmup_input(self):
        return self.inputs[0]

    def before(self, item):
        """Untimed step before each operation (clearing its output file)."""

    def run(self, item):
        raise NotImplementedError

    def collect(self, item, out):
        """Untimed step after each operation (reading its output file)."""
        return out

    def known_fault(self, item):
        """True for the input of a known fault; its operation is expected to fail."""
        return False

    def check(self, item, out):
        """Failure messages for one operation's collected output; empty when it succeeded."""
        raise NotImplementedError

    def report_bytes(self, out):
        """The part of an output that must be identical for every operation on one input."""
        return out[-1]


def _exit_codes(codes, want):
    return [] if codes == want else [f"exit code {codes} instead of {want}"]


class VerifyAll(Workload):
    """``ale-lab verify --suite all --k 1 --lambda 1.0 --report <file>``."""

    name = "verify_all"
    ref_reps = 100

    def prepare(self, seed):
        self.inputs = [(1, 1.0)]
        self.report = os.path.join(self.tmpdir, "verify_all.json")

    def before(self, item):
        _unlink(self.report)

    def run(self, item):
        k, lam = item
        return run_cli(["verify", "--suite", "all", "--k", str(k), "--lambda", repr(lam),
                        "--report", self.report])[0]

    def collect(self, item, code):
        return code, _read(self.report)

    def check(self, item, out):
        k, lam = item
        code, text = out
        return _exit_codes(code, 0) + checks.check_verify_text(
            text, k, lam, VERIFY_SUITES, self.table)


class GeometryGrid(Workload):
    """``verify --suite gh`` then ``verify --suite harmonic`` at one (k, lambda)."""

    name = "geometry_grid"
    ref_reps = 20

    def prepare(self, seed):
        self.inputs = list(GRID)
        self.reports = {s: os.path.join(self.tmpdir, f"grid_{s}.json") for s in ("gh", "harmonic")}

    def before(self, item):
        for path in self.reports.values():
            _unlink(path)

    def run(self, item):
        k, lam = item
        return tuple(run_cli(["verify", "--suite", s, "--k", str(k), "--lambda", repr(lam),
                              "--report", path])[0]
                     for s, path in self.reports.items())

    def collect(self, item, codes):
        return codes, tuple(_read(p) for p in self.reports.values())

    def check(self, item, out):
        k, lam = item
        codes, texts = out
        fails = _exit_codes(codes, (0, 0))
        for suite, text in zip(self.reports, texts):
            fails += checks.check_verify_text(text, k, lam, (suite,), self.table)
        return fails


def obstruct_inputs(seed):
    """Degenerate-regime jets: (k, lambda, target block, quadratic jet, quartic jet).

    The blocks have a zero first row and a lower 2x2 part drawn from the
    seed; k cycles through 1..3 over a few values of lambda.  A draw whose
    gauge-projected jet has an entry above ``MAX_JET_ENTRY`` is replaced by
    the generator's next draw.  The last entry is the canonical block
    diag(0, 1, 1) at k = 1, whose mu1 is 4.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < OBSTRUCT_FILES:
        i = len(out)
        a = rng.normal(size=(2, 2))
        block = np.zeros((3, 3))
        block[1:, 1:] = 0.5 * (a + a.T)
        jet_seed, quartic_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
        jet = jets.jet2_with_block(block, seed=jet_seed)
        if jet_size(jet) > MAX_JET_ENTRY:
            continue
        k = 1 + i % 3
        lam = OBSTRUCT_LAMBDAS[(i // 3) % len(OBSTRUCT_LAMBDAS)]
        out.append((k, lam, block, jet, jets.random_jet4(quartic_seed)))
    block = np.diag([0.0, 1.0, 1.0])
    out.append((1, 1.0, block, jets.jet2_with_block(block, seed=0), jets.random_jet4(0)))
    return out


def jet_size(jet):
    """Largest entry of the gauge-projected quadratic jet."""
    return float(np.max(np.abs(jets.gauge_project(jet).jet.H)))


def _write_jet(path, k, lam, h, h2):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"k": k, "lambda": lam, "H": h.tolist(), "H2": h2.tolist(),
                   "gauge_project": True}, fh)


class ObstructBatch(Workload):
    """``ale-lab obstruct --jet <file> --report <file>`` over a batch of jet files.

    One more file, independent of the seed, holds a NaN in ``H``; the
    program should refuse it with exit code 2 and a message naming ``H``.
    """

    name = "obstruct_batch"
    ref_reps = 4

    def prepare(self, seed):
        self.meta = {}
        self.inputs = []
        for idx, (k, lam, block, jet, quartic) in enumerate(obstruct_inputs(seed)):
            path = os.path.join(self.tmpdir, f"jet{idx:02d}.json")
            _write_jet(path, k, lam, jet.H, quartic.H2)
            # the finite-difference route of D, before any operation is timed
            d_fd = jets.d2_invariant_fd(jets.gauge_project(jet).jet, quartic)
            self.meta[path] = (k, lam, block.tolist(), d_fd)
            self.inputs.append(path)
        # the known fault: the canonical jet (the last one above) with one NaN entry in H
        bad = np.array(jet.H)
        bad[1, 2, 1, 2] = np.nan
        self.nan_path = os.path.join(self.tmpdir, "jet_nan.json")
        _write_jet(self.nan_path, k, lam, bad, quartic.H2)
        self.inputs.append(self.nan_path)
        self.report = os.path.join(self.tmpdir, "obstruct.json")

    def warmup_input(self):
        return self.inputs[-2]

    def known_fault(self, item):
        return item == self.nan_path

    def before(self, item):
        _unlink(self.report)

    def run(self, item):
        code, _out, err = run_cli(["obstruct", "--jet", item, "--report", self.report])
        return code, err

    def collect(self, item, out):
        code, err = out
        return code, err, _read(self.report)

    def check(self, item, out):
        code, err, report = out
        if self.known_fault(item):
            return checks.check_nonfinite_rejected(code, err)
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        if report is None:
            return ["no report written"]
        k, lam, block, d_fd = self.meta[item]
        return checks.check_obstruct_report(report.decode("utf-8"), k, lam, block, d_fd)


WORKLOADS = {w.name: w for w in (VerifyAll, GeometryGrid, ObstructBatch)}


def verify_configs():
    """Every (k, lambda, suites) a verify workload runs, for the tolerance table."""
    return [(1, 1.0, VERIFY_SUITES)] + [(k, lam, ("gh", "harmonic")) for k, lam in GRID]
