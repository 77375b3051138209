"""The call recorder of the evaluation pins (the record fixture of
conftest.py), on a function that two ale_lab modules bind."""

from __future__ import annotations

import sys
import types

import numpy as np


def _bound_twice(monkeypatch):
    """A function and two modules of the package that bind it under one name."""
    def stack(x):
        return np.sum(x, axis=-1)

    modules = (types.ModuleType("ale_lab._probe_a"), types.ModuleType("ale_lab._probe_b"))
    for module in modules:
        module.stack = stack
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return stack, modules


def test_recorder_logs_every_binding_in_call_order(monkeypatch, record):
    stack, (a, b) = _bound_twice(monkeypatch)
    shapes = record(b, "stack")
    assert a.stack(np.ones((2, 3, 4))).tolist() == [[4.0] * 3] * 2
    b.stack(np.ones(4))
    a.stack(np.ones((5, 4)))
    assert shapes == [(2, 3, 4), (4,), (5, 4)]
    assert record.log == [("stack", shape) for shape in shapes]
    monkeypatch.undo()
    assert a.stack is stack and b.stack is stack


def test_recorder_takes_a_custom_record(monkeypatch, record):
    stack, (a, b) = _bound_twice(monkeypatch)
    sums = record(a, "stack", entry=lambda x: float(np.sum(x)))
    b.stack(np.ones(4))
    a.stack(np.ones((2, 4)))
    assert sums == [4.0, 8.0]
    monkeypatch.undo()
    assert a.stack is stack and b.stack is stack


def test_recorder_wraps_a_plain_callable(record):
    field, calls = record.wrap(np.negative)
    assert field(np.ones((3, 4))).tolist() == [[-1.0] * 4] * 3
    assert calls == [(3, 4)]
