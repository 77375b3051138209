"""Write the golden `ale-lab obstruct` corpus: nine seeded jets, each as a
jet file beside the report and the standard output of `obstruct` on it.

    PYTHONPATH=src python tests/golden/generate.py

It needs the standard library and the package alone.  The jet files are
the inputs of tests/test_golden.py, which runs `obstruct` on them and
compares its outputs with the files written here; a change that moves a
golden byte runs this script again and lists the old and new values in
CHANGES.md.  The corpus reaches each wall side, R_23 != 0, no quartic,
gauge projection and k = 1, 2, 3 with five jets:

* canonical: the canonical jet of CI, on the wall inside the degenerate
  regime, with R_23 = 0;
* generic: random_jet2(5) with random_jet4(1), off the regime, empty_side;
* block_r23: jet2_with_block with R_23 = 0.3 and a zero first row, at
  k = 2 and lambda = 0.7;
* no_quartic: jet2_first_row_zero(4) without a quartic, at k = 3;
* gauge_projected: jet2_first_row_zero(6) with random_jet4(6), projected
  to the Bianchi gauge by `obstruct`, at k = 2;

and, for the floor of the determinant from both sides and explicit
constants, four jets without a quartic:

* einstein_side: random_jet2(3) with the model constants given;
* near_floor: a nonzero first row and the determinant of the negated
  block -3.6e-7 max|H|^3, between the floor and 1e-6, empty_side;
* on_floor: the same first row and |det| within the 1e-8 max|H|^3 floor;
* degenerate_off_floor: a first row of 5e-9 in the degenerate regime, on
  the wall, with |det| above the floor, so the line prints it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import pathlib

from ale_lab import cli, jets

HERE = pathlib.Path(__file__).resolve().parent


def _first_row_block(corner: float):
    """A jet whose block has the first row (corner, 1e-3, 0) and the unit
    lower diagonal: det of the negated block is 1e-6 - corner."""
    return jets.jet2_with_block([[corner, 1e-3, 0.0], [1e-3, 1.0, 0.0], [0.0, 0.0, 1.0]],
                                seed=1).H


def corpus() -> dict[str, dict]:
    """The jet file content of every corpus entry, by name."""
    return {
        "canonical": {"k": 1, "H": jets.jet2_with_block([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                                         [0.0, 0.0, 1.0]], seed=0).H,
                      "H2": jets.random_jet4(0).H2},
        "generic": {"k": 1, "H": jets.random_jet2(5).H, "H2": jets.random_jet4(1).H2},
        "block_r23": {"k": 2, "lambda": 0.7,
                      "H": jets.jet2_with_block([[0.0, 0.0, 0.0], [0.0, 1.0, 0.3],
                                                 [0.0, 0.3, 0.8]], seed=0).H,
                      "H2": jets.random_jet4(2).H2},
        "no_quartic": {"k": 3, "H": jets.jet2_first_row_zero(4).H},
        "gauge_projected": {"k": 2, "H": jets.jet2_first_row_zero(6).H,
                            "H2": jets.random_jet4(6).H2, "gauge_project": True},
        "einstein_side": {"H": jets.random_jet2(3).H, "constants_override": {
            "volSigma": 4 * math.pi, "omegaNorm2": 8 * math.pi**2, "intMomega": 8 * math.pi,
            "mP1": 2.0}},
        "near_floor": {"k": 1, "H": _first_row_block(1.03e-6)},
        "on_floor": {"k": 1, "H": _first_row_block(1.0001e-6)},
        "degenerate_off_floor": {"k": 1, "H": jets.jet2_with_block(
            [[5e-9, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], seed=4).H},
    }


def write(name: str, raw: dict) -> None:
    """The jet file of one entry, then the report and stdout of obstruct on it."""
    jet = HERE / f"{name}.jet.json"
    jet.write_text(json.dumps({key: value.tolist() if hasattr(value, "tolist") else value
                               for key, value in raw.items()}) + "\n", encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["obstruct", "--jet", str(jet), "--report", str(HERE / f"{name}.report.json")])
    if code != 0:
        raise SystemExit(f"{name}: obstruct exited {code}")
    (HERE / f"{name}.stdout").write_text(out.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    for name, raw in corpus().items():
        write(name, raw)
