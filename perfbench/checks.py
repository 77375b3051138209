"""Correctness checks the benchmark applies to the program's outputs.

Every expected value here is computed by the benchmark itself from a
closed form or from a property of the method; none is a copy of an
earlier output.  Each check returns a list of failure messages, empty
when the output is correct.
"""
from __future__ import annotations

import json
import math
import re

# Closed forms of the verify checks, as functions of (k, lambda).
CLOSED_FORMS = {
    ("quadrature", "s3-cross-moment"): lambda k, lam: math.pi ** 2 / 6.0,
    ("quadrature", "s3-quadratic-moment"): lambda k, lam: 2.0 * math.pi ** 2 / 3.0,
    ("quadrature", "pairing-asd-null"): lambda k, lam: 0.0,
    ("gh", "vol-sigma"): lambda k, lam: 2.0 * math.pi * (k + 1) * lam,
    ("gh", "int-m-omega"): lambda k, lam: math.pi * (k + 1) ** 3 * lam ** 2,
    ("gh", "moment-at-far-center"): lambda k, lam: (k + 1) * lam,
    # -2 pi (k+1)^2 (k-1) lambda^2, which is 0 at k = 1
    ("gh", "int-phi1-omega"): lambda k, lam: -2.0 * math.pi * (k + 1) ** 2 * (k - 1) * lam ** 2,
    ("harmonic", "norm-squared"): lambda k, lam: 4.0 * math.pi ** 2 * (k + 1) / k,
    ("harmonic", "segment-ratio"): lambda k, lam: -k * lam,
}

# A tolerance may exceed the table's by float noise only.
TOL_SLACK = 1e-12


def config_key(k, lam):
    return f"k={k},lambda={float(lam)!r}"


def strict_json(text):
    """Parse JSON, refusing the NaN and Infinity tokens Python accepts by default."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def _close(computed, expected, rel, scale=1.0):
    return abs(computed - expected) <= rel * max(1.0, abs(expected), scale)


def check_tolerance_table(report, k, lam, table):
    """Every check id of the table is present with a tolerance no larger."""
    fails = []
    wanted = table.get(config_key(k, lam))
    if wanted is None:
        return [f"tolerance table has no entry for {config_key(k, lam)}"]
    got = {(s["suite"], c["check_id"]): c["tolerance"]
           for s in report.get("suites", []) for c in s.get("checks", [])}
    suites = {s["suite"] for s in report.get("suites", [])}
    for suite, checks in wanted.items():
        if suite not in suites:
            continue
        for check_id, tol in checks.items():
            if (suite, check_id) not in got:
                fails.append(f"{suite}/{check_id}: check id missing")
            elif got[(suite, check_id)] > tol + TOL_SLACK * abs(tol):
                fails.append(f"{suite}/{check_id}: tolerance {got[(suite, check_id)]!r} "
                             f"exceeds the table's {tol!r}")
    return fails


def check_verify_report(report, k, lam, suites, table):
    """A verify report: passed, all suites present, closed forms within tolerance."""
    fails = []
    if report.get("passed") is not True:
        fails.append("report does not say passed")
    if report.get("k") != k or report.get("lambda") != lam:
        fails.append(f"report is for k={report.get('k')}, lambda={report.get('lambda')}")
    present = [s.get("suite") for s in report.get("suites", [])]
    if present != list(suites):
        fails.append(f"suites {present} instead of {list(suites)}")
    checks = {(s["suite"], c["check_id"]): c
              for s in report.get("suites", []) for c in s.get("checks", [])}
    for (suite, check_id), form in CLOSED_FORMS.items():
        if suite not in suites:
            continue
        c = checks.get((suite, check_id))
        if c is None:
            fails.append(f"{suite}/{check_id}: missing")
            continue
        expected = form(k, lam)
        if not abs(c["computed"] - expected) <= c["tolerance"]:
            fails.append(f"{suite}/{check_id}: computed {c['computed']!r} is not within "
                         f"{c['tolerance']!r} of {expected!r}")
        if not c["passed"]:
            fails.append(f"{suite}/{check_id}: marked failed")
    fails += check_tolerance_table(report, k, lam, table)
    return fails


def check_verify_text(text, k, lam, suites, table):
    """A verify report file's bytes (None when none was written)."""
    if text is None:
        return ["no report written"]
    try:
        report = strict_json(text)
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"]
    return check_verify_report(report, k, lam, suites, table)


def d_route_tolerance(d_fd):
    """Allowed gap between the two routes of D: 1e-6 relative.

    The program's own acceptance test requires this for jets with entries
    below 1, which is how large the workload's jets are drawn.
    """
    return 1e-6 * max(1.0, abs(d_fd))


def check_obstruct_report(text, k, lam, target, d_fd):
    """An obstruct report on a degenerate-regime jet with quartic part.

    ``target`` is the 3x3 block the jet was built for (first row zero) and
    ``d_fd`` the quartic invariant from the finite-difference route.
    """
    try:
        rep = strict_json(text)
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"]
    fails = []
    scale = max(1.0, max(abs(x) for row in target for x in row))
    block = rep.get("Rplus_block")
    if block is None or any(abs(block[i][j] - target[i][j]) > 1e-9 * scale
                            for i in range(3) for j in range(3)):
        fails.append(f"Rplus_block {block} differs from the target {target}")
    lam_vec = rep.get("lambda") or [math.inf]
    if max(abs(x) for x in lam_vec) > 1e-8 * scale * 2.0 * k * lam:
        fails.append(f"first-order coefficients {lam_vec} are not zero")
    minor = target[1][1] * target[2][2] - target[1][2] ** 2
    if not _close(rep.get("minor", math.nan), minor, 1e-9, scale * scale):
        fails.append(f"minor {rep.get('minor')!r} != {minor!r}")
    d = rep.get("D")
    if d is None or not abs(d - d_fd) <= d_route_tolerance(d_fd):
        fails.append(f"D {d!r} disagrees with the finite-difference route {d_fd!r}")
        return fails
    k1 = k + 1
    mu1_gen = k * k1 ** 2 * lam ** 2 * minor
    if not _close(rep.get("mu1_generic", math.nan), mu1_gen, 1e-8):
        fails.append(f"mu1_generic {rep.get('mu1_generic')!r} != {mu1_gen!r}")
    terms = k * k1 * lam ** 2 * (k1 * abs(minor) + (k - 1) * abs(d) / 16.0)
    mu1 = k * k1 * lam ** 2 * (k1 * minor - (k - 1) * d / 16.0)
    if not _close(rep.get("mu1", math.nan), mu1, 1e-8, terms):
        fails.append(f"mu1 {rep.get('mu1')!r} != {mu1!r}")
    a_terms = k1 * lam * ((k - 1) * abs(minor) + k1 * abs(d) / 16.0)
    a_coeff = k1 * lam * (-(k - 1) * minor + k1 * d / 16.0)
    if not _close(rep.get("A", math.nan), a_coeff, 1e-8, a_terms):
        fails.append(f"A {rep.get('A')!r} != {a_coeff!r}")
    det = minor * a_coeff
    if not _close(rep.get("det_leading_t4_coefficient", math.nan), det, 1e-8,
                  abs(minor) * a_terms):
        fails.append(f"det coefficient {rep.get('det_leading_t4_coefficient')!r} != {det!r}")
    # det R_+ vanishes when the first row does, so the jet sits on the wall
    if rep.get("wall_side") != "on_wall":
        fails.append(f"wall side {rep.get('wall_side')!r} for a block with zero first row")
    return fails


def check_nonfinite_rejected(exit_code, stderr):
    """A jet with a NaN in H must stop at the boundary: exit 2, naming H."""
    fails = []
    if exit_code != 2:
        fails.append(f"exit code {exit_code} instead of 2")
    if not re.search(r"\bH\b", stderr):
        fails.append("error message does not name the field H")
    return fails
