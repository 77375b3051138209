"""Per-operation failure accounting of ``run.Phase`` on a synthetic workload."""
import pytest

import run


class FakeWorkload:
    """Inputs "ok", "bad-exit", "bad-value", "raises" and the known fault "nan"."""

    name = "fake"
    ref_reps = 1

    def __init__(self, reports=None):
        self.inputs = ["ok", "bad-exit", "bad-value", "raises", "nan"]
        self.reports = reports or {}

    def before(self, item):
        pass

    def run(self, item):
        if item == "raises":
            raise RuntimeError("boom")
        return 1 if item == "bad-exit" else 0

    def collect(self, item, code):
        return code, self.reports.get(item, b"report-" + item.encode())

    def known_fault(self, item):
        return item == "nan"

    def check(self, item, out):
        code, _text = out
        if code != 0:
            return [f"exit code {code}"]
        return ["value off"] if item in ("bad-value", "nan") else []

    def report_bytes(self, out):
        return out[-1]


def test_each_kind_of_failure_counts_and_leaves_the_timings():
    wl = FakeWorkload()
    phase = run.Phase()
    phase.run_rounds(wl, 60, max_rounds=2)
    assert len(phase.ops) == 10
    assert phase.failed() == 8
    assert len(phase.op_seconds(wl)) == 2
    assert set(phase.reports) == {"ok"}
    assert run.differing_reports(wl, [phase]) == []


def test_known_fault_once_fixed_succeeds_but_stays_out_of_the_timings():
    wl = FakeWorkload()
    wl.check = lambda item, out: []
    phase = run.Phase()
    for item in ("ok", "nan"):
        phase.run_op(wl, item)
    assert phase.failed() == 0
    assert len(phase.op_seconds(wl)) == 1


def test_no_successful_operation_is_an_error():
    wl = FakeWorkload()
    phase = run.Phase()
    phase.run_op(wl, "raises")
    with pytest.raises(RuntimeError):
        phase.op_seconds(wl)


def test_reports_that_differ_between_operations_are_found():
    wl = FakeWorkload()
    first, second = run.Phase(), run.Phase()
    first.run_op(wl, "ok")
    wl.reports["ok"] = b"another report"
    second.run_op(wl, "ok")
    assert run.differing_reports(wl, [first]) == []
    assert len(run.differing_reports(wl, [first, second])) == 1
