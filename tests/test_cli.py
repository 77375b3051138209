"""Command-line interface: exit codes, deterministic JSON reports, jet-file
schema validation, and the far-field CSV table."""

from __future__ import annotations

import csv
import ctypes
import json
import os
import platform
import struct
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

from ale_lab import cli, jets, suites

BLOCK0 = [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def _jet_lists():
    """H and H2 of the test jet as nested lists."""
    return {"H": jets.jet2_with_block(np.array(BLOCK0), seed=3).H.tolist(),
            "H2": jets.random_jet4(0).H2.tolist()}


def _write_jet(path, **extra):
    payload = {"k": 1, "lambda": 1.0, **_jet_lists(), "gauge_project": True}
    payload.update(extra)
    path.write_text(json.dumps(payload))
    return path


def _with_entry(field, value):
    """The field of the test jet with its entry [1, 2, 1, 2, ...] set to value."""
    lists = _jet_lists()
    row = lists[field]
    index = (1, 2) * (len(np.shape(row)) // 2)
    for i in index[:-1]:
        row = row[i]
    row[index[-1]] = value
    return {field: lists[field]}


def _orbit_jet(values):
    """A quadratic jet as nested lists holding the JSON numbers ``values``,
    each on the orbit of one index under the pair symmetries."""
    h = np.zeros((4, 4, 4, 4)).tolist()
    for (a, b, c, d), value in zip([(1, 2, 1, 2), (0, 3, 0, 3), (0, 0, 1, 1), (3, 3, 3, 3)],
                                   values):
        for i, j, k, m in {(a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c)}:
            h[i][j][k][m] = value
    return h


def _diagonal_jet(value):
    """A quadratic jet as nested lists, zero but for H[1][1][1][1] = value."""
    h = np.zeros((4, 4, 4, 4))
    h[1, 1, 1, 1] = value
    return h.tolist()


def _asymmetric_jet(value):
    """A quadratic jet as nested lists holding value at [1, 2, 1, 2] and
    -value at [1, 2, 2, 1] and [2, 1, 1, 2], zero elsewhere."""
    h = np.zeros((4, 4, 4, 4))
    h[1, 2, 1, 2], h[1, 2, 2, 1], h[2, 1, 1, 2] = value, -value, -value
    return h.tolist()


# --- verify -----------------------------------------------------------------

def test_verify_quadrature_passes(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = cli.main(["verify", "--suite", "quadrature", "--report", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verify: PASS" in out
    payload = json.loads(report.read_text())
    assert payload["schema_version"] == 1
    assert payload["passed"] is True
    assert payload["suites"][0]["suite"] == "quadrature"
    # no timing data may leak into the report
    assert "duration" not in report.read_text()


def test_verify_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["verify", "--suite", "quadrature", "--report", str(a)]) == 0
    assert cli.main(["verify", "--suite", "quadrature", "--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


_DUMPS = {"sort_keys": True, "indent": 2, "allow_nan": False}


def test_report_writer_is_json_dumps_on_every_report(tmp_path):
    # every report kind is the text json.dumps writes for its own content:
    # verify at k = 1 and 2, obstruct on a degenerate jet, on a generic one
    # and with explicit constants
    report = tmp_path / "r.json"

    def assert_dumps_text():
        text = report.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), **_DUMPS) + "\n"

    for k in ("1", "2"):
        assert cli.main(["verify", "--suite", "all", "--k", k, "--report", str(report)]) == 0
        assert_dumps_text()
    overrides = {"volSigma": 4.0, "omegaNorm2": 8.0, "intMomega": 8.0, "mP1": 2.0}
    for path, extra in (("jet.json", {}), ("over.json", {"constants_override": overrides}),
                        ("generic.json", {"H": jets.random_jet2(3).H.tolist()})):
        assert cli.main(["obstruct", "--jet", str(_write_jet(tmp_path / path, **extra)),
                         "--report", str(report)]) == 0
        assert_dumps_text()


def test_verify_tiny_tolerance_fails(capsys):
    rc = cli.main(["verify", "--suite", "quadrature", "--tol", "1e-14"])
    assert rc == 1
    assert "verify: FAIL" in capsys.readouterr().out


def test_verify_rejects_bad_configuration(capsys):
    assert cli.main(["verify", "--k", "0"]) == 2
    assert "--k" in capsys.readouterr().err
    assert cli.main(["verify", "--lambda", "-1.0"]) == 2
    assert "--lambda" in capsys.readouterr().err
    for value in ("inf", "nan"):
        assert cli.main(["verify", "--lambda", value]) == 2
        assert "--lambda" in capsys.readouterr().err
    for value in ("-1", "0", "nan", "inf"):
        assert cli.main(["verify", "--suite", "gh", "--tol", value]) == 2
        assert "--tol" in capsys.readouterr().err
    # a k too large for a float overflows inside the suite
    assert cli.main(["verify", "--suite", "gh", "--k", str(10**400)]) == 2
    assert f"configuration error: --k {10**400} --lambda 1.0: " in capsys.readouterr().err


@pytest.mark.parametrize("argv,prefix", [
    (["verify", "--suite", "gh", "--lambda", "1e200"], "--k 1 --lambda 1e+200: "),
    (["verify", "--suite", "harmonic", "--lambda", "1e200"], "--k 1 --lambda 1e+200: "),
    (["verify", "--suite", "deformation", "--lambda", "1e200"], "--k 1 --lambda 1e+200: "),
    (["verify", "--suite", "gh", "--lambda", "1e-9"], "--k 1 --lambda 1e-09: "),
    (["asympt", "--k", str(10**400), "--radii", "10"], f"--k {10**400} --lambda 1.0: "),
], ids=["verify-large-lambda", "verify-harmonic-large-lambda",
        "verify-deformation-large-lambda", "verify-small-lambda", "asympt-k-beyond-float"])
def test_configuration_errors_name_the_flags(capsys, argv, prefix):
    # errors raised inside the computation carry the flags they were run
    # with, and no numpy warning comes before them (warnings are errors here)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {prefix}"), err
    assert err.count("\n") == 1


def test_parser_is_built_once_and_each_call_gets_the_defaults(tmp_path, capsys):
    # the cached parser fills a new namespace per call: flags of one call
    # do not leak into the next, and a bad flag still exits 2
    assert cli.build_parser() is cli.build_parser()

    def report(*flags):
        path = tmp_path / "report.json"
        assert cli.main(["verify", "--suite", "quadrature", *flags, "--report", str(path)]) == 0
        payload = json.loads(path.read_text())
        return payload["k"], payload["tol_scale"]

    assert report("--k", "3", "--tol", "2") == (3, 2.0)
    assert report() == (1, 1.0)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--no-such-flag"])
    assert exc.value.code == 2
    assert "--no-such-flag" in capsys.readouterr().err
    assert report() == (1, 1.0)


# bounds that --tol leaves fixed: exponents, a ratio and a sign test
UNSCALED_CHECKS = {"metric-decay-exponent", "density-annulus-exponent", "anisotropic-ratio",
                   "anisotropic-consistency", "radial-contraction-decay"}


def test_tol_scales_every_tolerance_but_the_fixed_bounds():
    # at k = 2, where the anisotropic checks run
    def tolerances(scale):
        return {(s.suite, c.check_id): c.tolerance
                for s in suites.run_suites(list(suites.SUITE_NAMES), 2, 1.0, tol_scale=scale)
                for c in s.checks}

    base, scaled = tolerances(1.0), tolerances(3.0)
    assert base.keys() == scaled.keys()
    assert {cid for _, cid in base} >= UNSCALED_CHECKS
    for key, tol in base.items():
        want = tol if key[1] in UNSCALED_CHECKS else 3.0 * tol
        assert scaled[key] == pytest.approx(want, rel=1e-12), key


# --- obstruct ---------------------------------------------------------------

def test_obstruct_canonical_jet(tmp_path, capsys):
    jet_path = _write_jet(tmp_path / "jet.json")
    report = tmp_path / "report.json"
    rc = cli.main(["obstruct", "--jet", str(jet_path), "--report", str(report)])
    assert rc == 0
    # on the floor the determinant is rounding, and its digits are not printed
    assert capsys.readouterr().out.splitlines()[-1] == (
        "wall side: on_wall (|det of the negated block| within the 1e-8 max|H|^3 floor)")
    payload = json.loads(report.read_text())
    assert payload["schema_version"] == 1
    assert payload["command"] == "obstruct"
    assert payload["mu1"] == pytest.approx(4.0, abs=1e-8)
    assert payload["wall_side"] == "on_wall"
    assert max(abs(v) for v in payload["lambda"]) < 1e-7


def test_obstruct_reports_are_byte_identical(tmp_path):
    jet_path = _write_jet(tmp_path / "jet.json")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["obstruct", "--jet", str(jet_path), "--report", str(a)]) == 0
    assert cli.main(["obstruct", "--jet", str(jet_path), "--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_obstruct_rejects_asymmetric_jet(tmp_path, capsys):
    h = np.zeros((4, 4, 4, 4))
    h[0, 1, 2, 3] = 1.0  # breaks the pair symmetry
    jet_path = tmp_path / "jet.json"
    jet_path.write_text(json.dumps({"H": h.tolist()}))
    assert cli.main(["obstruct", "--jet", str(jet_path)]) == 2
    err = capsys.readouterr().err
    assert "schema error" in err and "H:" in err


@pytest.mark.parametrize("field", ["H", "H2"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_obstruct_rejects_non_finite_jet(tmp_path, capsys, field, value):
    jet_path = _write_jet(tmp_path / "jet.json")
    payload = json.loads(jet_path.read_text())
    arr = np.array(payload[field])
    arr[(1, 2) * (arr.ndim // 2)] = value
    payload[field] = arr.tolist()
    jet_path.write_text(json.dumps(payload))  # NaN / Infinity tokens
    report = tmp_path / "report.json"
    assert cli.main(["obstruct", "--jet", str(jet_path), "--report", str(report)]) == 2
    assert f"schema error: {field}: non-finite entry" in capsys.readouterr().err
    assert not report.exists()


def test_obstruct_rejects_a_jet_whose_report_overflows(tmp_path, capsys):
    # every entry finite (max 4.8e199), but the minor R22 R33 - R23^2 and
    # the values built on it overflow to inf - inf
    jet = jets.jet2_with_block(np.diag([0.0, 1.0, 1.0]), seed=0)
    jet_path = tmp_path / "jet.json"
    jet_path.write_text(json.dumps({"k": 1, "H": (jet.H * 1e200).tolist()}))
    report = tmp_path / "report.json"
    assert cli.main(["obstruct", "--jet", str(jet_path), "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert "schema error: H:" in err and "report field A is not finite" in err
    assert not report.exists()


def test_obstruct_rejects_bad_shape(tmp_path, capsys):
    jet_path = tmp_path / "jet.json"
    jet_path.write_text(json.dumps({"H": [[0.0] * 4] * 4}))
    assert cli.main(["obstruct", "--jet", str(jet_path)]) == 2
    assert "H:" in capsys.readouterr().err


def test_obstruct_rejects_unknown_override(tmp_path, capsys):
    jet_path = _write_jet(tmp_path / "jet.json",
                          constants_override={"volsigma": 1.0})
    assert cli.main(["obstruct", "--jet", str(jet_path)]) == 2
    assert "constants_override.volsigma" in capsys.readouterr().err


def _overrides(vol_sigma, omega_norm2):
    return {"constants_override": {"volSigma": vol_sigma, "omegaNorm2": omega_norm2,
                                   "intMomega": 1.0, "mP1": 1.0}}


@pytest.mark.parametrize("extra,field", [
    ({"k": True}, "k:"),
    ({"lambda": True}, "lambda:"),
    (_overrides(True, 1.0), "constants_override.volSigma:"),
    (_overrides(1.0, 0), "constants_override.omegaNorm2: expected positive number, got 0.0"),
    (_overrides(0, 1.0), "constants_override.volSigma: expected positive number, got 0.0"),
    (_overrides(-1, -2), "constants_override.volSigma: expected positive number, got -1.0"),
    ({"lambda": 1e200}, "lambda: 1e+200 at k = 1 is out of range"),
    pytest.param({"k": 10**400}, f"k: {10**400} is too large to convert to a float",
                 id="k-beyond-float"),
    pytest.param({"k": 10**160, "lambda": 1.0},
                 f"k: {10**160} is too large even at lambda = 1, the Sigma constants are "
                 "not finite", id="k-sigma-overflow"),
    # the factors the report takes from the overrides alone overflow: vol^2
    # in mu1 raised OverflowError, 4 pi / norm gave a report blaming H
    pytest.param(_overrides(1e200, 1.0),
                 "constants_override.volSigma: out of range, the factor vol_sigma^2",
                 id="override-vol-squared-overflow"),
    pytest.param(_overrides(1.0, 1e-320),
                 "constants_override.omegaNorm2: out of range, the factor 4 pi / omega_norm2",
                 id="override-norm-factor-overflow"),
    pytest.param({"k": 10**308, "lambda": 1e3},
                 f"k and lambda: {10**308} * 1000.0 is out of range",
                 id="k-lambda-center-overflow"),
    pytest.param({"lambda": 2e153},
                 "lambda: 2e+153 at k = 1 is out of range, the factor vol_sigma^2",
                 id="lambda-vol-squared-overflow"),
    # JSON integers beyond a float raised OverflowError on conversion
    pytest.param({"lambda": 10**400}, f"lambda: {10**400} is too large to convert to a float",
                 id="lambda-beyond-float"),
    pytest.param({"constants_override": {"volSigma": 1.0, "omegaNorm2": 1.0,
                                         "intMomega": 1.0, "mP1": -10**400}},
                 f"constants_override.mP1: {-10**400} is too large to convert to a float",
                 id="override-beyond-float"),
    pytest.param({"H": [[[[10**400] * 4] * 4] * 4] * 4},
                 f"H: entry {10**400} at [0, 0, 0, 0] is too large to convert to a float",
                 id="jet-entry-beyond-float"),
    # numpy read a numeric string and true as numbers and null as NaN
    pytest.param(_with_entry("H", "0.0063"), "H: non-numeric entry at [1, 2, 1, 2]",
                 id="jet-entry-string"),
    pytest.param(_with_entry("H", True), "H: non-numeric entry at [1, 2, 1, 2]",
                 id="jet-entry-true"),
    pytest.param(_with_entry("H", None), "H: non-numeric entry at [1, 2, 1, 2]",
                 id="jet-entry-null"),
    pytest.param(_with_entry("H2", "1"), "H2: non-numeric entry at [1, 2, 1, 2, 1, 2]",
                 id="quartic-entry-string"),
    pytest.param(_with_entry("H2", False), "H2: non-numeric entry at [1, 2, 1, 2, 1, 2]",
                 id="quartic-entry-false"),
    pytest.param(_with_entry("H2", None), "H2: non-numeric entry at [1, 2, 1, 2, 1, 2]",
                 id="quartic-entry-null"),
    # symmetric jets of finite entries: R_+ of 4e307 overflows, which named
    # no input field; the symmetrizing sum of 1e308 overflows, which warned
    # and called the jet asymmetric
    pytest.param({"H": _orbit_jet([4e307]), "gauge_project": False},
                 "H: the jet is out of range, its curvature block has a non-finite entry",
                 id="jet-curvature-overflow"),
    pytest.param({"H": _orbit_jet([1e308])},
                 "H: entry at [1, 2, 1, 2] is out of range, the sum of its index transposes "
                 "overflows a float", id="jet-symmetrization-overflow"),
    # the gauge projection of 4e307 on the orbit named an index of the
    # projected jet whose input entry is 0; the orbit mean keeps the
    # projection in range, and its curvature block overflows
    pytest.param({"H": _orbit_jet([4e307]), "gauge_project": True},
                 "H: the jet is out of range, its curvature block has a non-finite entry",
                 id="jet-gauge-projection-overflow"),
    # a generic jet read no factor of vol_sigma^2 and gave a report; the
    # constants are checked whatever the regime of the jet
    pytest.param({"lambda": 2e153, "H": jets.random_jet2(3).H.tolist()},
                 "lambda: 2e+153 at k = 1 is out of range, the factor vol_sigma^2",
                 id="lambda-vol-squared-overflow-generic"),
    # an entry fixed by every transpose is its own orbit's mean, so 1e308
    # there stops at the gauge projection or at the curvature block
    pytest.param({"H": _diagonal_jet(1e308), "gauge_project": True},
                 "H: the jet is out of range, its gauge projection overflows a float",
                 id="jet-diagonal-gauge-projection-overflow"),
    pytest.param({"H": _diagonal_jet(1e308), "gauge_project": False},
                 "H: the jet is out of range, its curvature block has a non-finite entry",
                 id="jet-diagonal-curvature-overflow"),
    # the orbit of [1, 2, 1, 2] sums to -1.5e308, and 1.5e308 lies beyond a
    # float from the mean: the gap is inf, without numpy's overflow warning
    pytest.param({"H": _asymmetric_jet(1.5e308)},
                 "H: quadratic jet asymmetry inf exceeds tolerance", id="jet-asymmetry-overflow"),
])
def test_obstruct_rejects_bad_numbers(tmp_path, capsys, extra, field):
    # Python reads JSON true as the integer 1, and the area of the surface
    # and the squared norm of the harmonic form are positive by definition
    jet_path = _write_jet(tmp_path / "jet.json", **extra)
    report = tmp_path / "report.json"
    assert cli.main(["obstruct", "--jet", str(jet_path), "--report", str(report)]) == 2
    assert f"schema error: {field}" in capsys.readouterr().err
    assert not report.exists()


def _parity_payloads():
    """Jet files whose values both JSON readers must read alike."""
    canonical = jets.jet2_with_block(np.diag([0.0, 1.0, 1.0]), seed=0)
    yield {"k": 1, "H": canonical.H.tolist(), "H2": jets.random_jet4(0).H2.tolist()}
    rng = np.random.default_rng(31)
    for seed in range(3):
        a = rng.normal(size=(2, 2))
        block = np.zeros((3, 3))
        block[1:, 1:] = a + a.T
        yield {"k": 1 + seed, "lambda": float(rng.uniform(0.5, 2.0)),
               "H": jets.jet2_with_block(block, seed=seed).H.tolist(),
               "H2": jets.random_jet4(seed + 1).H2.tolist(), "gauge_project": True}
    signed = canonical.H.copy()
    signed[signed == 0.0] = -0.0
    yield {"H": signed.tolist(), "lambda": 5e-324,
           "constants_override": {"volSigma": 2.2e-308, "omegaNorm2": 1.0,
                                  "intMomega": -0.0, "mP1": 4.9e-324}}
    yield {"H": (canonical.H * 1e-310).tolist(), "H2": (jets.random_jet4(5).H2 * 5e-324).tolist()}
    big = [2**64, 2**64 + 1, 10**200 + 7, 4 * 10**307 + 1]
    yield {"k": 2**64, "lambda": 10**200 + 1, "H": _orbit_jet(big)}
    yield {"k": 3, "lambda": 2**70 + 3, "H": _orbit_jet([2**65 + 1, -(2**90) - 1]),
           "constants_override": {"volSigma": 2**80 + 1, "omegaNorm2": 10**100,
                                  "intMomega": -(2**64) - 1, "mP1": 1}}


@pytest.mark.parametrize("payload", list(_parity_payloads()))
def test_jet_readers_agree_bit_for_bit(tmp_path, monkeypatch, payload):
    # orjson reads the files; a stand-in that refuses every file forces the
    # stdlib reader, which must give the same arrays and scalars bit for bit
    import orjson

    jet_path = tmp_path / "jet.json"
    jet_path.write_text(json.dumps(payload))
    fast = cli._load_jet_input(str(jet_path))

    def refuse(data):
        raise orjson.JSONDecodeError("refused", "", 0)

    monkeypatch.setitem(sys.modules, "orjson", types.SimpleNamespace(
        loads=refuse, JSONDecodeError=orjson.JSONDecodeError))
    slow = cli._load_jet_input(str(jet_path))

    def bits(loaded):
        jet, quartic, k, lam, overrides, gauge = loaded
        return (jet.H.tobytes(), None if quartic is None else quartic.H2.tobytes(),
                k, type(k), struct.pack("<d", lam),
                {key: struct.pack("<d", v) for key, v in (overrides or {}).items()}, gauge)

    assert bits(fast) == bits(slow)


def test_obstruct_accepts_explicit_constants(tmp_path):
    # overrides replace the (k, lambda) model constants entirely
    jet_path = _write_jet(
        tmp_path / "jet.json",
        constants_override={"volSigma": 4 * np.pi, "omegaNorm2": 8 * np.pi**2,
                            "intMomega": 8 * np.pi, "mP1": 2.0},
    )
    report = tmp_path / "r.json"
    assert cli.main(["obstruct", "--jet", str(jet_path),
                     "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["mu1"] == pytest.approx(4.0, abs=1e-8)


def test_obstruct_requires_k_or_overrides(tmp_path, capsys):
    jet_path = tmp_path / "jet.json"
    jet_path.write_text(json.dumps(_jet_lists()))
    assert cli.main(["obstruct", "--jet", str(jet_path)]) == 2
    assert "error: either k (two-cluster family) or overrides required" in capsys.readouterr().err


@pytest.mark.parametrize("extra,builder", [
    ({}, "ak_constants"),
    (_overrides(4 * np.pi, 8 * np.pi**2), "constants_from_overrides"),
], ids=["k", "overrides"])
def test_obstruct_builds_the_constants_once(tmp_path, monkeypatch, extra, builder):
    from ale_lab import obstruction

    calls = {"ak_constants": 0, "constants_from_overrides": 0}
    for name in calls:
        def counted(*args, _inner=getattr(obstruction, name), _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(obstruction, name, counted)
    jet_path = _write_jet(tmp_path / "jet.json", **extra)
    assert cli.main(["obstruct", "--jet", str(jet_path), "--report", str(tmp_path / "r.json")]) == 0
    assert calls == {name: int(name == builder) for name in calls}


def test_obstruct_prints_an_overflowing_det_without_a_warning(tmp_path, capsys):
    # every report field of this generic jet is finite, but the determinant
    # of its block overflows a float; the line prints it in jet units, as
    # for the unscaled jet (pytest turns numpy's warnings into errors)
    jet_path = tmp_path / "jet.json"

    def line(scale):
        jet_path.write_text(json.dumps({"k": 1, "H": (jets.random_jet2(3).H * scale).tolist()}))
        assert cli.main(["obstruct", "--jet", str(jet_path), "--report", str(tmp_path / "r.json")]) == 0
        return capsys.readouterr().out.splitlines()[-1]

    assert line(1e150) == line(1.0)
    assert line(1.0) == "wall side: einstein_side (det of the negated block = 0.891311 max|H|^3)"


def test_obstruct_prints_a_det_above_the_floor_on_the_wall(tmp_path, capsys):
    # a first row of 6e-9 max|H| is degenerate, so the side reads on_wall,
    # while det of the negated block, -2.7e-8 max|H|^3, is above the floor
    jet = jets.jet2_with_block(np.diag([3e-9, 1.0, 1.0]), seed=0)
    jet_path = tmp_path / "jet.json"
    jet_path.write_text(json.dumps({"k": 1, "H": jet.H.tolist()}))
    assert cli.main(["obstruct", "--jet", str(jet_path)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("wall side: on_wall (det of the negated block = -")
    assert line.endswith(" max|H|^3)")


def test_obstruct_missing_file(tmp_path, capsys):
    assert cli.main(["obstruct", "--jet", str(tmp_path / "nope.json")]) == 2
    assert "schema error" in capsys.readouterr().err


# --- asympt -----------------------------------------------------------------

def test_asympt_csv_table(tmp_path):
    out = tmp_path / "table.csv"
    rc = cli.main(["asympt", "--k", "1", "--lambda", "1.0",
                   "--radii", "8,12", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["r", "metric_deviation", "moment_deviation",
                       "omega_profile_coeff", "metric_exponent",
                       "moment_exponent", "omega_exponent", "flag"]
    assert len(rows) == 3
    radii = [float(row[0]) for row in rows[1:]]
    assert radii == sorted(radii)
    # profile coefficient approaches (k+1)^2 lambda = 4 from the far field
    assert float(rows[-1][3]) == pytest.approx(4.0, rel=0.05)
    assert all(row[7] == "" for row in rows[1:])
    assert float(rows[1][4]) < -3.0  # metric deviation decays


def test_asympt_single_radius_flags_fit(tmp_path):
    # one distinct radius fits no slope: the flag, and no polyfit warning
    out = tmp_path / "table.csv"
    for radii in ("10", "10,10"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["asympt", "--k", "1", "--radii", radii, "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 1 + len(radii.split(","))
        assert all(row[7] == "fit-unstable" for row in rows[1:])
        assert all(row[4] == row[5] == row[6] == "" for row in rows[1:])


def test_asympt_rejects_bad_radii(capsys):
    assert cli.main(["asympt", "--radii", ","]) == 2
    assert "empty" in capsys.readouterr().err
    assert cli.main(["asympt", "--radii", "10,abc"]) == 2
    capsys.readouterr()
    assert cli.main(["asympt", "--radii", "10,-3"]) == 2
    assert "positive" in capsys.readouterr().err
    # radii the profile sampler cannot use: base points on a center's gauge
    # ray, and a metric that overflows into a singular solve; neither is
    # blamed on --k or --lambda, and no numpy warning comes on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for radii in ("0.001,0.002", "1e200,2e200"):
            assert cli.main(["asympt", "--k", "1", "--radii", radii]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"configuration error: --radii {radii}: "), err
            assert err.count("\n") == 1


def test_asympt_blames_the_configuration_for_its_own_failure(capsys):
    # the harmonic form of lambda = 1e200 fails before any radius is read,
    # with no numpy warning on the way (warnings are errors here)
    assert cli.main(["asympt", "--lambda", "1e200", "--radii", "10,20"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --k 1 --lambda 1e+200: "), err
    assert err.count("\n") == 1


@pytest.mark.parametrize("radii", ["1e4,2e4", "1e5,2e5", "1e6,2e6", "1e10,2e10"])
def test_asympt_flags_fits_of_rounding_noise(tmp_path, radii):
    # far enough out the deviations are float rounding, and a slope fitted
    # to them (-971.5, +977, +0.82 and +2.58 at these radii) is no exponent
    out = tmp_path / "table.csv"
    assert cli.main(["asympt", "--k", "1", "--radii", radii, "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    assert len(rows) == 2
    assert all(row[7] == "fit-unstable" for row in rows), rows
    assert all(row[4] == row[5] == row[6] == "" for row in rows)


@pytest.mark.parametrize("k,radii", [(1, "10,20,40"), (1, "1e2,2e2"), (1, "1e3,2e3"),
                                     (2, "10,20,40"), (2, "1e3,2e3"), (3, "10,20,40"),
                                     (3, "1e3,2e3")])
def test_asympt_fits_deviations_above_rounding(tmp_path, k, radii):
    out = tmp_path / "table.csv"
    assert cli.main(["asympt", "--k", str(k), "--radii", radii, "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    assert all(row[7] == "" for row in rows), rows
    assert float(rows[0][4]) == pytest.approx(-4.0, abs=0.02)
    assert float(rows[0][5]) == pytest.approx(-2.0, abs=0.01)
    assert float(rows[0][6]) == pytest.approx(-4.0, abs=0.02)


# --- thread configuration ------------------------------------------------------

def test_configure_threads_sets_backends(monkeypatch):
    monkeypatch.setenv("ALE_LAB_THREADS", "2")
    for var in cli._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    cli._configure_threads()
    for var in cli._THREAD_VARS:
        assert os.environ[var] == "2"


def test_configure_threads_defaults_to_one_without_cap(monkeypatch):
    monkeypatch.delenv("ALE_LAB_THREADS", raising=False)
    for var in cli._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    cli._configure_threads()
    # a pool the user sized keeps its size; every other one gets one thread
    assert os.environ["OMP_NUM_THREADS"] == "4"
    for var in cli._THREAD_VARS[1:]:
        assert os.environ[var] == "1"


def test_thread_cap_overrides_user_pools(monkeypatch):
    monkeypatch.setenv("ALE_LAB_THREADS", "2")
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    cli._configure_threads()
    assert os.environ["OMP_NUM_THREADS"] == "2"


def test_thread_cap_propagates_in_subprocess():
    code = (
        "import os; "
        "from ale_lab.cli import _configure_threads; "
        "_configure_threads(); "
        "print(os.environ.get('OMP_NUM_THREADS'), "
        "os.environ.get('MKL_NUM_THREADS'))"
    )
    env = dict(os.environ, ALE_LAB_THREADS="3")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["3", "3"]


# --- heap configuration ---------------------------------------------------------

class _FakeLibc:
    """A libc stand-in whose mallopt records its calls."""

    def __init__(self):
        self.calls = []
        self.mallopt = lambda param, value: self.calls.append((param, value)) or 1


def test_configure_heap_sets_both_thresholds(monkeypatch):
    libc = _FakeLibc()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    cli._configure_heap.__wrapped__()
    assert libc.calls == [(-3, 4 << 20), (-1, 16 << 20)]
    assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    assert libc.mallopt.restype is ctypes.c_int


def test_configure_heap_is_a_no_op_without_mallopt(monkeypatch):
    libc = types.SimpleNamespace()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    assert cli._configure_heap.__wrapped__() is None
    assert vars(libc) == {}


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are set on glibc only")
def test_warm_verify_keeps_its_heap():
    # freed numpy temporaries stay in the process: the third verify in one
    # process faults in fewer than 50 pages (several hundred without the thresholds)
    code = ("import contextlib, io, resource\n"
            "from ale_lab import cli\n"
            "def verify():\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(['verify', '--suite', 'harmonic']) == 0\n"
            "verify(); verify()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "verify()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout.split()[-1]) < 50


def test_console_script_end_to_end(tmp_path):
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "ale_lab.cli", "verify", "--suite", "quadrature",
         "--report", str(report)],
        env=dict(os.environ, ALE_LAB_THREADS="1"),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verify: PASS" in proc.stdout
    assert json.loads(report.read_text())["passed"] is True
