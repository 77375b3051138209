"""Per-layer tracing by wrapping the program's public functions from outside.

Every public function of a layer module, and every public method of a
class it defines, is replaced by a wrapper for the duration of the traced
phase.  The replacement is made in every module namespace that bound the
original (``comps_to_tensor`` is bound in ``forms``, ``jets`` and
``quadrature``), so calls from inside the program are seen too.

Because some functions are called millions of times per operation, the
tracer aggregates counts, inclusive time and self time per function and per
layer instead of keeping one span per call.  Spans, with the operation id,
are kept only at the coarse boundaries: calls made by the benchmark itself
and calls made from a spanned function of a coarse layer (CLI command, then
suite or pipeline, then module entry point).
"""
from __future__ import annotations

import importlib
import inspect
import re
import subprocess
import sys
import time

LAYERS = ("cli", "suites", "obstruction", "jets", "deformation", "harmonic",
          "connection", "quadrature", "gh", "fd", "forms")
DEPS = ("numpy", "scipy", "sympy")
# layers whose calls into other functions are kept as spans
COARSE = ("cli", "suites", "obstruction")

# Foreign functions worth counting where a layer binds them.
FOREIGN = (("deformation", "expm"),)


class FnStats:
    __slots__ = ("calls", "total_s", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.depth = 0
        self.extra = 0


class Tracer:
    """Aggregating tracer; ``install`` patches the layers, ``remove`` restores them."""

    def __init__(self, package="ale_lab", layers=LAYERS, foreign=FOREIGN, coarse=COARSE,
                 clock=time.perf_counter):
        self.package = package
        self.layers = layers
        self.foreign = foreign
        self.coarse = coarse
        self.clock = clock
        self.fn = {}
        self.layer_calls = dict.fromkeys(layers, 0)
        self.layer_self = dict.fromkeys(layers, 0.0)
        self.stack = []
        self.spans = []
        self.op_id = None
        self.distinct = {}
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, key, layer, fn, hook=None):
        stats = self.fn.setdefault(key, FnStats())
        stack = self.stack
        layer_calls = self.layer_calls
        layer_self = self.layer_self
        spans = self.spans
        clock = self.clock
        coarse = self.coarse

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None or parent[0] != layer:
                layer_calls[layer] += 1
            stats.calls += 1
            if hook is not None:
                args, kwargs = hook(stats, args, kwargs)
            span = None
            if parent is None or (parent[2] is not None and parent[0] in coarse):
                span = [self.op_id, len(spans), parent[2] if parent else None, key, 0.0, 0.0]
                spans.append(span)
            frame = [layer, 0.0, span[1] if span else None]
            stack.append(frame)
            stats.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                stats.depth -= 1
                if stats.depth == 0:
                    stats.total_s += dt
                layer_self[layer] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                if span is not None:
                    span[4], span[5] = t0, t1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def _hooks(self):
        def count_metric_evals(stats, args, kwargs):
            # fd.ricci(metric_fn, x, ...): count evaluations of the metric
            def counted(*a, **kw):
                stats.extra += 1
                return metric_fn(*a, **kw)
            if args:
                metric_fn = args[0]
                args = (counted,) + tuple(args[1:])
            else:
                metric_fn = kwargs["metric_fn"]
                kwargs = dict(kwargs, metric_fn=counted)
            return args, kwargs

        seen = self.distinct.setdefault("forms.metric_from_triple", set())

        def record_distinct(stats, args, kwargs):
            seen.add(_arg_key(args, kwargs))
            return args, kwargs

        return {"fd.ricci": count_metric_evals,
                "forms.metric_from_triple": record_distinct}

    def install(self):
        hooks = self._hooks()
        modules = {name: importlib.import_module(f"{self.package}.{name}")
                   for name in self.layers}
        namespaces = [m for n, m in sys.modules.items()
                      if n == self.package or n.startswith(self.package + ".")]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj):
                    if obj.__module__ == mod.__name__:
                        self._wrap_class(layer, obj, hooks)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    key = f"{layer}.{name}"
                    self._rebind(namespaces, obj, self._wrap(key, layer, obj, hooks.get(key)))
        for layer, name in self.foreign:
            obj = getattr(modules[layer], name)
            self._patch(modules[layer], name, self._wrap(f"{layer}.{name}", layer, obj))

    def _wrap_class(self, layer, cls, hooks):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(key, layer, raw.__func__, hooks.get(key)))
            elif inspect.isfunction(raw):
                new = self._wrap(key, layer, raw, hooks.get(key))
            else:
                continue
            self._patch(cls, name, new)

    def _rebind(self, namespaces, original, wrapper):
        for mod in namespaces:
            for name, val in list(vars(mod).items()):
                if val is original:
                    self._patch(mod, name, wrapper)

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def remove(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, n_ops):
        """Per-operation values of every layer and function metric."""
        out = {}
        for layer in self.layers:
            out[f"{layer}.calls"] = self.layer_calls[layer] / n_ops
            out[f"{layer}.self_ms"] = self.layer_self[layer] * 1000.0 / n_ops
        for key, st in self.fn.items():
            out[f"{key}.calls"] = st.calls / n_ops
            out[f"{key}.total_ms"] = st.total_s * 1000.0 / n_ops
        ricci = self.fn.get("fd.ricci")
        out["fd.metric_evals_per_ricci"] = (ricci.extra / ricci.calls
                                            if ricci and ricci.calls else 0.0)
        mft = self.fn.get("forms.metric_from_triple")
        seen = self.distinct.get("forms.metric_from_triple", ())
        out["forms.metric_from_triple.distinct_frac"] = (len(seen) / mft.calls
                                                         if mft and mft.calls else 0.0)
        return out


def _arg_key(args, kwargs):
    parts = []
    for a in list(args) + sorted(kwargs.items()):
        tobytes = getattr(a, "tobytes", None)
        parts.append(tobytes() if tobytes is not None else repr(a))
    return tuple(parts)


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+\d+\s+\|\s*(\S+)\s*$")


def parse_importtime(text):
    """Self import time in ms per module from ``python -X importtime`` output."""
    out = {}
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            out[m.group(2)] = out.get(m.group(2), 0.0) + int(m.group(1)) / 1000.0
    return out


def import_metrics(self_ms, package="ale_lab"):
    """``<layer>.import_ms`` per layer and ``deps.import_ms`` for numpy, scipy, sympy."""
    out = {f"{layer}.import_ms": self_ms.get(f"{package}.{layer}", 0.0) for layer in LAYERS}
    out["deps.import_ms"] = sum(ms for mod, ms in self_ms.items()
                                if mod.split(".")[0] in DEPS)
    return out


def measure_imports(modules, cwd):
    """Run ``python -X importtime`` on the workload's imports in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", import_statement(modules)],
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import of {modules} failed: {proc.stderr[-2000:]}")
    return parse_importtime(proc.stderr)


def import_statement(modules):
    return "import " + ", ".join(modules)
