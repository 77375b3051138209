"""The check table of the verify suites: every emitted check has one row,
every row is emitted, and the hand-kept lists of fixed bounds name exactly
the rows that ``--tol`` leaves alone."""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import re

import pytest

from ale_lab import cli, suites

ROOT = pathlib.Path(__file__).resolve().parents[1]
# hyphenated lower-case words: the shape of every check id
CHECK_ID = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)+")


def _row_key(check_id: str, k: int) -> str:
    qualified = f"{check_id}@k={k}"
    return qualified if qualified in suites.CHECKS else check_id


def _tolerance(row: suites.Check, expected) -> float:
    """The tolerance of a row at --tol 1, as the module docstring states it."""
    if row.kind == "rel":
        return row.tolerance * abs(expected)
    if row.kind == "floor":
        return row.tolerance * max(1.0, abs(expected))
    return row.tolerance


def _unscaled() -> set[str]:
    return {key.partition("@")[0] for key, row in suites.CHECKS.items() if not row.scaled}


def test_every_emitted_check_has_one_row_and_every_row_is_emitted():
    used = set()
    for k in (1, 2):
        emitted = [c for s in suites.run_suites(list(suites.SUITE_NAMES), k, 1.0) for c in s.checks]
        assert len({c.check_id for c in emitted}) == len(emitted), f"an id is emitted twice at k = {k}"
        for c in emitted:
            key = _row_key(c.check_id, k)
            assert key in suites.CHECKS, f"{c.check_id} has no row"
            row = suites.CHECKS[key]
            assert c.tolerance == _tolerance(row, c.expected), key
            used.add(key)
    assert set(suites.CHECKS) - used == set(), "rows no suite emits at k = 1 or 2"
    for key, row in suites.CHECKS.items():
        assert row.provenance in suites.PROVENANCE_TAGS, key
        assert row.kind in ("abs", "rel", "floor", "upper", "band"), key


def _verify_option(flag: str) -> argparse.Action:
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in commands.choices["verify"]._actions if flag in a.option_strings)


def test_tol_help_names_exactly_the_unscaled_rows():
    assert set(CHECK_ID.findall(_verify_option("--tol").help)) == _unscaled()


def test_suite_choices_are_the_suite_names_and_all():
    # cli writes the choices out, as importing suites would load numpy for
    # every command; a suite missing from them is unreachable from the CLI
    names = [*suites.SUITE_NAMES, "all"]
    assert _verify_option("--suite").choices == names
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    bullet = re.search(r"^\* `--suite`.*?(?=^\* |^$)", readme, re.S | re.M).group(0)
    assert re.findall(r"`([^`]+)`", bullet) == ["--suite", *names]


def test_readme_tol_bullet_names_exactly_the_unscaled_rows():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    bullet = re.search(r"^\* `--tol`.*?(?=^\* |^$)", readme, re.S | re.M).group(0)
    assert "`suites.CHECKS`" in bullet
    named = {w for w in re.findall(r"`([^`]+)`", bullet) if CHECK_ID.fullmatch(w)}
    assert named == _unscaled()


@pytest.mark.parametrize("ratio, passed", [
    (0.5, True), (1.0, True), (2.0, True), (-1.0, False), (0.49, False), (2.01, False),
    (0.0, False), (-0.0, False), (float("nan"), False)])
def test_band_is_same_sign_and_magnitude_within_the_factor(ratio, passed):
    res = suites.check_result("anisotropic-consistency", ratio, 3.0)
    assert res.passed is passed
    assert (res.expected, res.tolerance) == ("same sign, magnitude within 2x", 2.0)


def test_upper_reports_its_bound_as_the_tolerance():
    # --tol leaves the negative slope bound alone; a scaled bound moves with it
    slope = suites.check_result("radial-contraction-decay", -3.0, 3.0)
    assert (slope.passed, slope.expected, slope.tolerance) == (True, "<= -2.8", -2.8)
    ricci = suites.check_result("ricci-flat", 2e-5, 3.0)
    assert (ricci.passed, ricci.expected, ricci.tolerance) == (True, "<= 3e-05", 1e-5 * 3.0)


@pytest.mark.parametrize("k, lam", [(1, 1.0), (2, 0.7)])
def test_report_checks_are_asdict_of_their_results(k, lam, tmp_path, monkeypatch):
    # to_dict builds each check's dict without asdict's deep copy: the same
    # keys in the same order, values and value types, and the report is the
    # json.dumps text of the payload built through asdict
    runs = []
    run_suites = suites.run_suites

    def kept(*args, **kwargs):
        runs.append(run_suites(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(suites, "run_suites", kept)
    report = tmp_path / "v.json"
    code = cli.main(["verify", "--suite", "all", "--k", str(k), "--lambda", repr(lam),
                     "--report", str(report)])
    (results,) = runs
    for res in results:
        for entry, check in zip(res.to_dict()["checks"], res.checks, strict=True):
            expected = dataclasses.asdict(check)
            assert list(entry) == list(expected)
            assert [(v, type(v)) for v in entry.values()] == [
                (v, type(v)) for v in expected.values()]
    payload = {
        "schema_version": cli.SCHEMA_VERSION, "command": "verify", "k": k, "lambda": lam,
        "tol_scale": 1.0, "passed": all(r.passed for r in results),
        "suites": [{"suite": r.suite, "passed": r.passed,
                    "checks": [dataclasses.asdict(c) for c in r.checks]} for r in results],
    }
    assert code == (0 if payload["passed"] else 1)
    assert report.read_text(encoding="utf-8") == json.dumps(payload, sort_keys=True, indent=2) + "\n"
