import sys
import types

import pytest

import tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


INNER = '''
def leaf(t):
    CLOCK.now += t
    return t

def helper(t):
    CLOCK.now += 1.0
    return leaf(t)

class Maker:
    @classmethod
    def make(cls, t):
        CLOCK.now += t
        return cls()
'''

OUTER = '''
def top():
    CLOCK.now += 2.0
    inner.helper(3.0)
    leaf(4.0)
    inner.Maker.make(0.25)
    CLOCK.now += 0.5
'''

FD = '''
def ricci(metric_fn, x):
    return [metric_fn(x) for _ in range(3)]
'''


def _module(name, code, clock, **extra):
    mod = types.ModuleType(name)
    mod.CLOCK = clock
    mod.__dict__.update(extra)
    exec(code, mod.__dict__)
    return mod


@pytest.fixture()
def fakepkg(monkeypatch):
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    inner = _module("fakepkg.inner", INNER, clock)
    # outer binds inner's leaf under its own name, as `from .inner import leaf` does
    outer = _module("fakepkg.outer", OUTER, clock, inner=inner, leaf=inner.leaf)
    fd = _module("fakepkg.fd", FD, clock)
    for name, mod in (("fakepkg", pkg), ("fakepkg.inner", inner), ("fakepkg.outer", outer),
                      ("fakepkg.fd", fd)):
        monkeypatch.setitem(sys.modules, name, mod)
    return clock, inner, outer, fd


def _tracer(clock):
    return tracing.Tracer(package="fakepkg", layers=("outer", "inner", "fd"), foreign=(),
                          coarse=("outer",), clock=clock)


def test_self_time_on_a_synthetic_call_tree(fakepkg):
    clock, inner, outer, _fd = fakepkg
    tracer = _tracer(clock)
    tracer.install()
    try:
        outer.top()
    finally:
        tracer.remove()
    m = tracer.metrics(1)
    # top: 2 + helper(1 + leaf 3) + leaf 4 + make 0.25 + 0.5
    assert m["outer.top.total_ms"] == pytest.approx(10750.0)
    assert m["outer.self_ms"] == pytest.approx(2500.0)
    assert m["inner.self_ms"] == pytest.approx(8250.0)
    assert m["inner.helper.total_ms"] == pytest.approx(4000.0)
    assert m["inner.leaf.total_ms"] == pytest.approx(7000.0)
    assert m["inner.Maker.make.total_ms"] == pytest.approx(250.0)
    # layer calls count entries from another layer; function calls count all
    assert m["outer.calls"] == 1
    assert m["inner.calls"] == 3
    assert m["inner.leaf.calls"] == 2
    # self times add up to the root's inclusive time
    assert m["outer.self_ms"] + m["inner.self_ms"] == pytest.approx(m["outer.top.total_ms"])


def test_values_are_per_operation(fakepkg):
    clock, _inner, outer, _fd = fakepkg
    tracer = _tracer(clock)
    tracer.install()
    try:
        outer.top()
        outer.top()
    finally:
        tracer.remove()
    m = tracer.metrics(2)
    assert m["inner.leaf.calls"] == 2
    assert m["outer.self_ms"] == pytest.approx(2500.0)


def test_spans_only_at_coarse_boundaries(fakepkg):
    clock, _inner, outer, _fd = fakepkg
    tracer = _tracer(clock)
    tracer.op_id = 7
    tracer.install()
    try:
        outer.top()
    finally:
        tracer.remove()
    names = [(s[3], s[2]) for s in tracer.spans]
    # calls made by the coarse layer only: leaf under helper is not kept
    assert names == [("outer.top", None), ("inner.helper", 0), ("inner.leaf", 0),
                     ("inner.Maker.make", 0)]
    assert all(s[0] == 7 for s in tracer.spans)
    top = tracer.spans[0]
    assert top[5] - top[4] == pytest.approx(10.75)


def test_remove_restores_every_binding(fakepkg):
    clock, inner, outer, fd = fakepkg
    originals = (inner.leaf, outer.leaf, inner.helper, inner.Maker.__dict__["make"], fd.ricci)
    tracer = _tracer(clock)
    tracer.install()
    assert outer.leaf is not originals[1] and outer.leaf is inner.leaf
    tracer.remove()
    assert (inner.leaf, outer.leaf, inner.helper, inner.Maker.__dict__["make"], fd.ricci) \
        == originals


def test_metric_evaluations_under_ricci_are_counted(fakepkg):
    clock, _inner, _outer, fd = fakepkg
    tracer = _tracer(clock)
    tracer.install()
    try:
        fd.ricci(lambda x: x, 1.0)
        fd.ricci(metric_fn=lambda x: x, x=2.0)
    finally:
        tracer.remove()
    m = tracer.metrics(1)
    assert m["fd.ricci.calls"] == 2
    assert m["fd.metric_evals_per_ricci"] == 3


def test_parse_importtime_and_layer_metrics():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1500 |       1500 |     numpy.core",
        "import time:       500 |       2000 |   numpy",
        "import time:      3000 |       3000 |     scipy.linalg",
        "import time:      4000 |       9000 |   ale_lab.forms",
        "import time:      2500 |       2500 | ale_lab.cli",
    ])
    self_ms = tracing.parse_importtime(text)
    assert self_ms == {"numpy.core": 1.5, "numpy": 0.5, "scipy.linalg": 3.0,
                       "ale_lab.forms": 4.0, "ale_lab.cli": 2.5}
    m = tracing.import_metrics(self_ms)
    assert m["forms.import_ms"] == 4.0
    assert m["cli.import_ms"] == 2.5
    assert m["gh.import_ms"] == 0.0
    assert m["deps.import_ms"] == pytest.approx(5.0)
