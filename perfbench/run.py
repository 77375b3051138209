"""Benchmark of ale-lab: one workload per invocation, in its own process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The metrics are the end-to-end
ones, from an untraced timed phase; with ``--trace 1`` a traced round of
the input set follows, and the per-layer metrics are added.  An operation
fails when it raises, exits non-zero or breaks a check on its own output;
failed operations are counted in ``failed`` and kept out of the timings.
See README.md in this directory for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_INTERPRETERS = 5
IMPORTTIME_INTERPRETERS = 3
THREAD_VARS = ("ALE_LAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"op_p50_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s"}
# Raw wall-clock timings of the same untraced phase.  The machine's speed
# drifts between runs by more than any bound allows, so they carry none and
# are printed with the per-layer metrics.
RAW_TIMINGS = {"op_p50_ms": "ms", "ops_per_s": "1/s"}

FUNCTION_METRICS = {
    "quadrature.integrate_S3.total_ms": "ms",
    "deformation.expm.calls": "count",
    "deformation.TripleFamily.metric.calls": "count",
    "deformation.TripleFamily.connection_order2.total_ms": "ms",
    "forms.metric_from_triple.calls": "count",
    "forms.metric_from_triple.distinct_frac": "ratio",
    "forms.comps_to_tensor.calls": "count",
    "gh.metric_matrix.calls": "count",
    "gh.eval_V.calls": "count",
    "fd.ricci.calls": "count",
    "fd.metric_evals_per_ricci": "count",
    "forms.hodge_star.calls": "count",
    "forms.form_inner.calls": "count",
    "harmonic.build_omega.total_ms": "ms",
    "quadrature.gh_volume_integral.total_ms": "ms",
    "jets.poly_mul.calls": "count",
    "jets.d2_invariant_symbolic.total_ms": "ms",
    "jets.gauge_project.total_ms": "ms",
    "obstruction.ak_constants.total_ms": "ms",
}


def per_layer_units():
    from tracing import LAYERS

    units = dict(RAW_TIMINGS)
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_ms": "ms",
                      f"{layer}.import_ms": "ms"})
    units["deps.import_ms"] = "ms"
    units.update(FUNCTION_METRICS)
    units["trace.overhead_x"] = "x"
    return units


def out_dir(root):
    return os.path.join(root, "perfbench", "out")


class CheckoutError(Exception):
    pass


def prepare_environment():
    """Cap the thread pools before numpy loads and import the program from src/."""
    root = os.path.dirname(HERE)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ale_lab", "cli.py")):
        raise CheckoutError(f"no program sources under {src}; run from a full checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path[:0] = [src, HERE]
    import ale_lab.cli

    if not os.path.abspath(ale_lab.cli.__file__).startswith(os.path.join(src, "")):
        raise CheckoutError(f"ale_lab imported from {ale_lab.cli.__file__}, not from {src}")
    return root


def loaded_imports():
    """Modules the workload's operations have loaded: the program's and its deps'."""
    mods = sorted(n for n in sys.modules if n.startswith("ale_lab."))
    mods += sorted(n for n in sys.modules if n.startswith("scipy.") and n.count(".") == 1
                   and not n.split(".")[1].startswith("_"))
    if "sympy" in sys.modules:
        mods.append("sympy")
    return mods


def measure_setup(modules, root, n=SETUP_INTERPRETERS):
    """Wall time of fresh interpreters from start until ``modules`` are loaded."""
    import tracing

    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", tracing.import_statement(modules)],
                       cwd=root, check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


class Phase:
    """Operations, outputs and reference timings of one run."""

    def __init__(self):
        self.ops = []        # (item, seconds, failed)
        self.refs = []       # reference computation, ms
        self.reports = {}    # item -> report bytes of each operation that succeeded

    def run_op(self, wl, item, tracer=None):
        """One operation, timed, then checked; it fails if it raises or a check fails."""
        from stats import ReferenceSampler, time_reference

        wl.before(item)
        self.refs.extend(time_reference(wl.ref_reps))
        if tracer is not None:
            tracer.op_id = len(self.ops)
        # the traced round takes no samples: their time would land in a layer's self time
        sampler = ReferenceSampler() if tracer is None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with sampler:
                out = wl.run(item)
            dt = time.perf_counter() - t0
            out = wl.collect(item, out)
            fails = wl.check(item, out)
        except Exception:
            dt = time.perf_counter() - t0
            fails = [f"raised:\n{traceback.format_exc()}"]
        if tracer is None:
            dt -= sampler.spent
            self.refs.extend(sampler.samples)
        for msg in fails:
            print(f"{wl.name} {item!r}: {msg}", file=sys.stderr)
        self.ops.append((item, dt, bool(fails)))
        if not fails:
            self.reports.setdefault(item, []).append(wl.report_bytes(out))

    def run_rounds(self, wl, seconds, items=None, tracer=None, max_rounds=None):
        from stats import time_reference

        items = wl.inputs if items is None else items
        start = time.perf_counter()
        rounds = 0
        while True:
            for item in items:
                self.run_op(wl, item, tracer)
            rounds += 1
            if rounds == max_rounds or time.perf_counter() - start >= seconds:
                break
        self.refs.extend(time_reference(wl.ref_reps))

    def failed(self):
        return sum(1 for _item, _dt, failed in self.ops if failed)

    def op_seconds(self, wl):
        """Durations of the operations that succeeded, known-fault inputs left out."""
        out = [dt for item, dt, failed in self.ops if not failed and not wl.known_fault(item)]
        if not out:
            raise RuntimeError(f"{wl.name}: no operation succeeded")
        return out


def differing_reports(wl, phases):
    """Inputs whose successful operations wrote different reports within the run."""
    reports = {}
    for phase in phases:
        for item, texts in phase.reports.items():
            reports.setdefault(item, []).extend(texts)
    return [f"{wl.name} {item!r}: reports differ between operations"
            for item, texts in reports.items() if any(t != texts[0] for t in texts)]


def timed_values(wl, timed, setup):
    """The end-to-end metrics and the raw timings of the untraced timed phase."""
    import stats

    op_s = timed.op_seconds(wl)
    op_ms = [s * 1000.0 for s in op_s]
    return {
        "op_p50_ms": stats.median(op_ms),
        "op_p50_ref": stats.ratio_to_reference(op_ms, timed.refs),
        "ops_per_s": stats.throughput(op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": stats.median(setup),
    }


def traced_round(wl, timed, modules, root, name, seed):
    """Per-layer values of one traced round of the inputs that are not a known fault."""
    import stats
    import tracing

    traced = Phase()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced.run_rounds(wl, 0, items=[i for i in wl.inputs if not wl.known_fault(i)],
                          tracer=tracer, max_rounds=1)
    finally:
        tracer.remove()
    values = tracer.metrics(len(traced.ops))
    per_module = {}
    for _ in range(IMPORTTIME_INTERPRETERS):
        for mod, ms in tracing.measure_imports(modules, root).items():
            per_module.setdefault(mod, []).append(ms)
    values.update(tracing.import_metrics(
        {mod: stats.median(v) for mod, v in per_module.items()}))
    values["trace.overhead_x"] = (stats.median(traced.op_seconds(wl))
                                  / stats.median(timed.op_seconds(wl)))
    write_trace(root, name, seed, tracer, values, t0, len(traced.ops))
    return traced, values


def run_workload(name, seed, seconds, trace, root, tmpdir):
    import tolerances
    import workloads

    wl = workloads.WORKLOADS[name](tmpdir, tolerances.load())
    wl.prepare(seed)
    warm = Phase()
    warm.run_op(wl, wl.warmup_input())
    modules = loaded_imports()
    # half the set-up samples before the timed phase and half after it, so
    # that they fall in different phases of the machine's drifting speed
    setup = measure_setup(modules, root)
    timed = Phase()
    timed.run_rounds(wl, seconds)
    setup += measure_setup(modules, root)
    values = timed_values(wl, timed, setup)
    units = dict(END_TO_END)
    untimed = {"warm-up": warm}
    if trace:
        untimed["traced round"], layer_values = traced_round(wl, timed, modules, root, name,
                                                             seed)
        values.update(layer_values)
        units.update(per_layer_units())
    metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()}

    print(f"{name}: warm-up operation {warm.ops[0][1] * 1000.0:.1f} ms; timed operations (ms): "
          + " ".join(f"{dt * 1000.0:.1f}" for dt in timed.op_seconds(wl)), file=sys.stderr)
    # operations outside the timed phase are not counted in `failed`, so they must succeed
    fails = [f"{label}: {phase.failed()} operations failed"
             for label, phase in untimed.items() if phase.failed()]
    fails += differing_reports(wl, [timed, *untimed.values()])
    for msg in fails:
        print(msg, file=sys.stderr)
    return {
        "correct": not fails,
        "attempted": len(timed.ops),
        "failed": timed.failed(),
        "metrics": metrics,
    }


def write_trace(root, name, seed, tracer, values, t0, n_ops):
    path = os.path.join(out_dir(root), f"trace-{name}-seed{seed}.json")
    spans = [{"op": op, "id": sid, "parent": parent, "name": key,
              "start_ms": (start - t0) * 1000.0, "end_ms": (end - t0) * 1000.0}
             for op, sid, parent, key, start, end in tracer.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "operations": n_ops,
                   "per_operation": dict(sorted(values.items())), "spans": spans}, fh, indent=1)
    print(f"trace written to {os.path.relpath(path, root)}", file=sys.stderr)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify_all", "geometry_grid", "obstruct_batch"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        root = prepare_environment()
    except CheckoutError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    os.makedirs(out_dir(root), exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=out_dir(root))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              root, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
