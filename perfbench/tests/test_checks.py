import copy
import json
import math

import pytest

import checks
import workloads

K, LAM = 2, 0.5


def _report(k=K, lam=LAM):
    suites = {}
    for (suite, check_id), form in checks.CLOSED_FORMS.items():
        suites.setdefault(suite, []).append({
            "check_id": check_id, "expected": form(k, lam), "computed": form(k, lam) + 1e-9,
            "tolerance": 1e-6, "passed": True, "provenance": "closed-form-constant",
            "advisory": False})
    for suite in suites:
        suites[suite].append({"check_id": f"{suite}-residual", "expected": "<= 1e-05",
                              "computed": 1e-7, "tolerance": 1e-5, "passed": True,
                              "provenance": "trivial-identity", "advisory": False})
    order = ("gh", "harmonic", "quadrature")
    return {"k": k, "lambda": lam, "passed": True,
            "suites": [{"suite": s, "passed": True, "checks": suites[s]} for s in order]}


def _table(report):
    return {checks.config_key(report["k"], report["lambda"]): {
        s["suite"]: {c["check_id"]: c["tolerance"] for c in s["checks"]}
        for s in report["suites"]}}


SUITES = ("gh", "harmonic", "quadrature")


def test_valid_verify_report_passes():
    rep = _report()
    assert checks.check_verify_report(rep, K, LAM, SUITES, _table(rep)) == []


@pytest.mark.parametrize("key", sorted(checks.CLOSED_FORMS))
def test_each_closed_form_catches_a_perturbed_value(key):
    rep = _report()
    table = _table(rep)
    for s in rep["suites"]:
        for c in s["checks"]:
            if (s["suite"], c["check_id"]) == key:
                c["computed"] += 10 * c["tolerance"]
    fails = checks.check_verify_report(rep, K, LAM, SUITES, table)
    assert any(key[1] in f for f in fails)


def test_closed_forms_match_the_paper_constants():
    f = checks.CLOSED_FORMS
    assert f[("gh", "vol-sigma")](1, 1.0) == pytest.approx(4 * math.pi)
    assert f[("gh", "int-m-omega")](1, 1.0) == pytest.approx(8 * math.pi)
    assert f[("gh", "int-phi1-omega")](1, 2.0) == 0.0
    assert f[("gh", "int-phi1-omega")](3, 1.0) == pytest.approx(-64 * math.pi)
    assert f[("harmonic", "norm-squared")](1, 1.0) == pytest.approx(8 * math.pi ** 2)
    assert f[("harmonic", "segment-ratio")](3, 0.5) == -1.5


def test_missing_check_id_fails():
    rep = _report()
    table = _table(rep)
    rep["suites"][0]["checks"] = [c for c in rep["suites"][0]["checks"]
                                  if c["check_id"] != "gh-residual"]
    fails = checks.check_verify_report(rep, K, LAM, SUITES, table)
    assert any("gh-residual" in f and "missing" in f for f in fails)


def test_grown_tolerance_fails():
    rep = _report()
    table = _table(rep)
    rep["suites"][1]["checks"][-1]["tolerance"] *= 1.5
    fails = checks.check_verify_report(rep, K, LAM, SUITES, table)
    assert any("harmonic-residual" in f and "exceeds" in f for f in fails)


def test_tightened_tolerance_passes_the_table():
    rep = _report()
    table = _table(rep)
    rep["suites"][1]["checks"][-1]["tolerance"] *= 0.5
    assert checks.check_tolerance_table(rep, K, LAM, table) == []


@pytest.mark.parametrize("mutate", [
    lambda r: r.update(passed=False),
    lambda r: r.update(k=K + 1),
    lambda r: r["suites"].pop(),
    lambda r: r["suites"][0]["checks"][0].update(passed=False),
])
def test_verify_report_mutations_fail(mutate):
    rep = _report()
    table = _table(rep)
    mutate(rep)
    assert checks.check_verify_report(rep, K, LAM, SUITES, table)


def test_table_without_configuration_fails():
    rep = _report()
    assert checks.check_verify_report(rep, K, LAM, SUITES, {})


def test_verify_text_missing_or_not_strict_fails():
    rep = _report()
    table = _table(rep)
    assert checks.check_verify_text(json.dumps(rep).encode(), K, LAM, SUITES, table) == []
    assert checks.check_verify_text(None, K, LAM, SUITES, table) == ["no report written"]
    text = json.dumps(rep).replace("1e-07", "NaN")
    assert "strict JSON" in checks.check_verify_text(text, K, LAM, SUITES, table)[0]


def test_strict_json_refuses_nan():
    assert checks.strict_json('{"a": 1.5}') == {"a": 1.5}
    with pytest.raises(ValueError):
        checks.strict_json('{"a": NaN}')


# --- obstruct ---------------------------------------------------------------

TARGET = [[0.0, 0.0, 0.0], [0.0, 0.7, -0.3], [0.0, -0.3, 1.1]]
D = 0.42
D_FD = D * (1 + 1e-8)


def _obstruct(k=3, lam=2.0, d=D):
    minor = TARGET[1][1] * TARGET[2][2] - TARGET[1][2] ** 2
    k1 = k + 1
    a = k1 * lam * (-(k - 1) * minor + k1 * d / 16.0)
    return {"Rplus_block": copy.deepcopy(TARGET), "lambda": [0.0, 1e-14, -1e-14],
            "minor": minor, "D": d, "mu1_generic": k * k1 ** 2 * lam ** 2 * minor,
            "mu1": k * k1 * lam ** 2 * (k1 * minor - (k - 1) * d / 16.0), "A": a,
            "det_leading_t4_coefficient": minor * a, "wall_side": "on_wall"}


def test_valid_obstruct_report_passes():
    assert checks.check_obstruct_report(json.dumps(_obstruct()), 3, 2.0, TARGET, D_FD) == []


def test_canonical_block_has_mu1_four():
    target = [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    rep = _obstruct(k=1, lam=1.0)
    rep.update(Rplus_block=target, minor=1.0, mu1_generic=4.0, mu1=4.0,
               A=2.0 * (2 * D / 16.0), det_leading_t4_coefficient=2.0 * (2 * D / 16.0))
    assert checks.check_obstruct_report(json.dumps(rep), 1, 1.0, target, D_FD) == []


@pytest.mark.parametrize("field", ["minor", "mu1_generic", "mu1", "A",
                                   "det_leading_t4_coefficient", "D"])
def test_each_obstruct_value_is_checked(field):
    rep = _obstruct()
    rep[field] *= 1.001
    assert checks.check_obstruct_report(json.dumps(rep), 3, 2.0, TARGET, D_FD)


@pytest.mark.parametrize("mutate", [
    lambda r: r["Rplus_block"][1].__setitem__(1, 0.7001),
    lambda r: r["lambda"].__setitem__(0, 1e-3),
    lambda r: r.update(wall_side="einstein_side"),
    lambda r: r.update(D=None),
])
def test_obstruct_report_mutations_fail(mutate):
    rep = _obstruct()
    mutate(rep)
    assert checks.check_obstruct_report(json.dumps(rep), 3, 2.0, TARGET, D_FD)


def test_obstruct_report_with_nan_token_fails():
    text = json.dumps(_obstruct()).replace('"on_wall"', '"on_wall", "x": NaN')
    fails = checks.check_obstruct_report(text, 3, 2.0, TARGET, D_FD)
    assert fails and "strict JSON" in fails[0]


def test_d_far_from_the_finite_difference_route_fails():
    fails = checks.check_obstruct_report(json.dumps(_obstruct()), 3, 2.0, TARGET, D * 1.001)
    assert any("finite-difference" in f for f in fails)


def test_d_route_tolerance_is_relative_above_one():
    assert checks.d_route_tolerance(0.5) == 1e-6
    assert checks.d_route_tolerance(-3.0) == pytest.approx(3e-6)


def test_nonfinite_rejection():
    assert checks.check_nonfinite_rejected(2, "schema error: H: non-finite entry") == []
    assert checks.check_nonfinite_rejected(0, "")
    assert checks.check_nonfinite_rejected(2, "error: quadrature sum overflowed")
    assert checks.check_nonfinite_rejected(1, "schema error: H: NaN")
    # H2 is another field
    assert checks.check_nonfinite_rejected(2, "schema error: H2: non-finite entry")


def _flat(inputs):
    return [(k, lam, blk.tolist(), jet.H.tolist(), quartic.H2.tolist())
            for k, lam, blk, jet, quartic in inputs]


def test_obstruct_inputs_depend_on_the_seed_only():
    a = workloads.obstruct_inputs(3)
    assert _flat(a) == _flat(workloads.obstruct_inputs(3))
    assert workloads.obstruct_inputs(4)[0][2].tolist() != a[0][2].tolist()
    assert all(blk[0].tolist() == [0.0, 0.0, 0.0] for _k, _l, blk, _j, _q in a)
    assert {k for k, *_ in a} == {1, 2, 3}
    assert a[-1][2].tolist() == [[0, 0, 0], [0, 1, 0], [0, 0, 1]]
    # small enough for the 1e-6 agreement of the two routes of D
    assert all(workloads.jet_size(jet) <= workloads.MAX_JET_ENTRY for _k, _l, _b, jet, _q in a)


def test_obstruct_operation_fails_on_exit_code_missing_report_or_known_fault():
    wl = workloads.ObstructBatch("unused", {})
    wl.nan_path = "nan.json"
    wl.meta = {"jet.json": (3, 2.0, TARGET, D_FD)}
    report = json.dumps(_obstruct()).encode()
    assert wl.check("jet.json", (0, "", report)) == []
    assert wl.check("jet.json", (1, "boom", report))
    assert wl.check("jet.json", (0, "", None)) == ["no report written"]
    assert wl.check("nan.json", (0, "", report))
    assert wl.check("nan.json", (2, "schema error: H: non-finite entry", None)) == []


def test_verify_operation_fails_on_exit_code():
    rep = _report(k=1, lam=1.0)
    # the verify_all report holds the deformation suite after the other three
    rep["suites"].append({"suite": "deformation", "passed": True, "checks": []})
    wl = workloads.VerifyAll("unused", _table(rep))
    text = json.dumps(rep).encode()
    assert wl.check((1, 1.0), (0, text)) == []
    assert wl.check((1, 1.0), (1, text)) == ["exit code 1 instead of 0"]
