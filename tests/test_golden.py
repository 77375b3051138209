"""Golden `obstruct` outputs: the report and the standard output of
`obstruct` on every jet file of tests/golden, against the files that
tests/golden/generate.py wrote from the same run."""

from __future__ import annotations

import json
import pathlib

import pytest

from ale_lab import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
NAMES = sorted(p.name.removesuffix(".jet.json") for p in GOLDEN.glob("*.jet.json"))

# Entries whose report bits depend on the BLAS kernels, each with the
# reason; their reports are compared value by value, each number within
# VALUE_BOUND max(1, |golden value|), and every other entry byte by byte.
# Under the OpenBLAS core types Prescott, Nehalem, Sandybridge, Haswell,
# SkylakeX, Zen and Cooperlake the others write the same bytes.
VALUE_COMPARED = {
    "gauge_projected": "the Bianchi-gauge projection solves a least-squares system through "
                       "LAPACK: D, A and the t^4 coefficient move by about 3e-15 relative",
    "einstein_side": "first_row_norm is np.linalg.norm, BLAS nrm2, of a row with three "
                     "nonzero entries: its last bit moves with the core type",
}
VALUE_BOUND = 1e-12


def _obstruct(name: str, tmp_path, capsys) -> tuple[bytes, str]:
    report = tmp_path / "report.json"
    assert cli.main(["obstruct", "--jet", str(GOLDEN / f"{name}.jet.json"),
                     "--report", str(report)]) == 0
    return report.read_bytes(), capsys.readouterr().out


def _assert_close(got, want, path: str = "") -> None:
    """Equal structure, strings and flags; numbers within VALUE_BOUND."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= VALUE_BOUND * max(1.0, abs(want)), (path, got, want)
    else:
        assert got == want, path


def test_corpus_covers_every_entry_of_the_generator():
    assert NAMES == sorted(["block_r23", "canonical", "degenerate_off_floor", "einstein_side",
                            "gauge_projected", "generic", "near_floor", "no_quartic",
                            "on_floor"])


@pytest.mark.parametrize("name", [n for n in NAMES if n not in VALUE_COMPARED])
def test_obstruct_writes_the_golden_bytes(name, tmp_path, capsys):
    report, out = _obstruct(name, tmp_path, capsys)
    assert report == (GOLDEN / f"{name}.report.json").read_bytes()
    assert out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(VALUE_COMPARED))
def test_obstruct_writes_the_golden_values(name, tmp_path, capsys):
    report, out = _obstruct(name, tmp_path, capsys)
    _assert_close(json.loads(report), json.loads((GOLDEN / f"{name}.report.json").read_bytes()))
    # on the floor, the line prints no digits
    assert out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
