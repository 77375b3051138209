"""Polynomial metric jets: exact polynomial algebra, curvature at the
origin versus the finite-difference route, gauge projection, the
second-derivative determinant invariant via two independent routes, and
the symmetry-group machinery."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ale_lab import connection, fd, gh, jets, obstruction
from ale_lab.errors import AleLabError, FirstObstructionNonzero, SchemaError, SymmetryError


# --- polynomial algebra -------------------------------------------------------

def test_poly_mul_diff_eval():
    rng = np.random.default_rng(0)
    a = jets.poly_zero()
    a[jets._MONO_INDEX[(1, 0, 0, 0)]] = 2.0      # 2 x0
    a[jets._MONO_INDEX[(0, 1, 1, 0)]] = -1.0     # - x1 x2
    b = jets.poly_zero()
    b[jets._MONO_INDEX[(0, 0, 0, 1)]] = 3.0      # 3 x3
    prod = jets.poly_product("...,...->...", a, b)
    for _ in range(4):
        x = rng.normal(size=4)
        va = 2 * x[0] - x[1] * x[2]
        vb = 3 * x[3]
        assert jets.poly_eval(prod, x) == pytest.approx(va * vb, rel=1e-12)
    d0 = jets.poly_diff(prod, 0)
    x = rng.normal(size=4)
    assert jets.poly_eval(d0, x) == pytest.approx(2 * 3 * x[3], rel=1e-12)


def test_poly_diff_commutes():
    rng = np.random.default_rng(1)
    p = rng.normal(size=jets.N_MONO)
    d01 = jets.poly_diff(jets.poly_diff(p, 0), 1)
    d10 = jets.poly_diff(jets.poly_diff(p, 1), 0)
    assert np.allclose(d01, d10)


def _product_by_monomial_loop(subscripts, a, b, deg):
    """Reference product: exponent addition over every pair of monomials."""
    index = {e: i for i, e in enumerate(jets.MONOS)}
    terms = {}
    for i, ei in enumerate(jets.MONOS):
        for j, ej in enumerate(jets.MONOS):
            e = tuple(u + v for u, v in zip(ei, ej))
            if sum(e) <= deg:
                term = np.einsum(subscripts, a[..., i], b[..., j])
                terms[index[e]] = terms.get(index[e], 0.0) + term
    shape = np.einsum(subscripts, a[..., 0], b[..., 0]).shape
    out = np.zeros(shape + (jets.N_MONO,))
    for m, val in terms.items():
        out[..., m] = val
    return out


# every (contraction, degree) the curvature route uses, and the elementwise product
PRODUCT_CASES = [
    ("fc,cab->fab", (4, 4), (4, 4, 4), jets._GAMMA_DEG),
    ("ace,edb->acdb", (4, 4, 4), (4, 4, 4), jets._CURV_DEG),
    ("ae,ebcd->abcd", (4, 4), (4, 4, 4, 4), jets._CURV_DEG),
    ("...,...->...", (3, 1), (2,), jets.MAX_DEG),
]


@pytest.mark.parametrize("subscripts,sa,sb,deg", PRODUCT_CASES)
def test_poly_product_matches_monomial_loop(subscripts, sa, sb, deg):
    rng = np.random.default_rng(deg)
    a = rng.normal(size=sa + (jets.N_MONO,))
    b = rng.normal(size=sb + (jets.N_MONO,))
    got = jets.poly_product(subscripts, a, b, deg)
    want = _product_by_monomial_loop(subscripts, a, b, deg)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.parametrize("subscripts,sa,sb,deg", PRODUCT_CASES)
def test_poly_product_keeps_complex_parts(subscripts, sa, sb, deg):
    # (ar + i ai)(br + i bi) = (ar br - ai bi) + i (ar bi + ai br), each
    # product real, so a complex operand must not lose its imaginary part
    rng = np.random.default_rng(deg + 1)
    ar, ai = rng.normal(size=(2,) + sa + (jets.N_MONO,))
    br, bi = rng.normal(size=(2,) + sb + (jets.N_MONO,))
    real = lambda u, v: jets.poly_product(subscripts, u, v, deg)
    got = jets.poly_product(subscripts, ar + 1j * ai, br + 1j * bi, deg)
    want = (real(ar, br) - real(ai, bi)) + 1j * (real(ar, bi) + real(ai, br))
    assert got.dtype == np.complex128 and real(ar, br).dtype == np.float64
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))
    one = jets.poly_zero()
    one[0] = 1.0
    assert jets.poly_product("...,...->...", 1j * one, 1j * one)[0] == -1.0


@pytest.mark.parametrize("seed", range(2))
def test_curvature_polys_match_fd_near_origin(seed):
    """The Christoffel polynomial (degree 3) and the curvature polynomial
    (degree 2) against finite differences of the metric at small points,
    where the dropped degrees leave errors of order |x|^4 and |x|^3."""
    jet, quartic = jets.random_jet2(seed), jets.random_jet4(seed + 1)
    metric = jets.metric_fn_from_jets(jet, quartic)
    gamma, riem = jets._curvature_polys(jet, quartic)
    x = 0.05 * np.random.default_rng(seed).normal(size=(4, 4))
    fd_gamma = fd.richardson(lambda h: fd.christoffel(metric, x, h), 5e-3)
    fd_riem = fd.richardson(lambda h: fd.riemann_lowered(metric, x, h), 5e-3)
    poly_gamma = np.array([jets.poly_eval(gamma, p) for p in x])
    poly_riem = np.array([jets.poly_eval(riem, p) for p in x])
    assert np.max(np.abs(poly_gamma - fd_gamma)) < 2e-6
    assert np.max(np.abs(poly_riem - fd_riem)) < 3e-5


def test_cached_tables_are_read_only():
    nodes, weights = gh._legendre_rule(8)
    basis, columns = jets._gauge_system()
    amat, sym_basis = jets._block_functionals()
    jets._symmetrize_pairs(np.zeros((4,) * 4), [(0, 1), (2, 3)])
    table = jets._axis_permutations(4, ((0, 1), (2, 3)))
    for arr in (nodes, weights, basis, columns, amat, sym_basis, table):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the mapped rule is the caller's own copy
    mapped, _ = gh.gauss_legendre(0.0, 1.0, 8)
    mapped[:] = 0.0
    assert np.allclose(gh.gauss_legendre(0.0, 1.0, 8)[0], 0.5 * (nodes + 1.0))


# --- jet containers -----------------------------------------------------------

def test_jet2_symmetrization_and_rejection():
    arr = np.zeros((4, 4, 4, 4))
    arr[0, 1, 2, 3] = 1.0
    with pytest.raises(SymmetryError):
        jets.Jet2.from_array(arr)
    sym = 0.25 * (
        arr + arr.transpose(1, 0, 2, 3) + arr.transpose(0, 1, 3, 2) + arr.transpose(1, 0, 3, 2)
    )
    jet = jets.Jet2.from_array(sym)
    assert np.allclose(jet.H, sym)
    with pytest.raises(SchemaError):
        jets.Jet2.from_array(np.zeros((2, 2)))


@pytest.mark.parametrize("ndim, groups", [
    (4, [(0, 1), (2, 3)]), (6, [(0, 1, 2, 3), (4, 5)]), (4, [(1, 2, 3)]), (6, [(1, 2, 3, 4, 5)]),
])
def test_symmetrize_pairs_matches_transpose_loop(ndim, groups):
    # the cached table sums the transposes in the loop's order, from 0.0,
    # so the result is bit-identical, signed zeros included
    arr = np.random.default_rng(ndim).normal(size=(4,) * ndim)
    arr[1] = -0.0
    expected, count = np.zeros_like(arr), 0
    for combo in itertools.product(*(itertools.permutations(g) for g in groups)):
        perm = list(range(ndim))
        for group, permuted in zip(groups, combo):
            for src, dst in zip(group, permuted):
                perm[src] = dst
        expected, count = expected + np.transpose(arr, perm), count + 1
    expected = expected / count
    assert jets._symmetrize_pairs(arr, groups).tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["H", "H2"]), st.sampled_from([np.nan, np.inf, -np.inf]),
       st.integers(0, 4**6 - 1))
def test_non_finite_jet_entry_names_field(field, value, flat):
    arr = (jets.random_jet2(1).H if field == "H" else jets.random_jet4(1).H2).copy()
    idx = np.unravel_index(flat % arr.size, arr.shape)
    arr[idx] = value
    build = jets.Jet2.from_array if field == "H" else jets.Jet4.from_array
    with pytest.raises(AleLabError) as info:
        build(arr)
    assert str(info.value).startswith(f"{field}: non-finite entry at {[int(i) for i in idx]}")


def test_metric_fn_from_jets_quadratic_term():
    jet = jets.random_jet2(3)
    fn = jets.metric_fn_from_jets(jet)
    x = np.array([0.3, -0.2, 0.5, 0.1])
    expected = np.eye(4) + np.einsum("ijkl,i,j->kl", jet.H, x, x)
    assert np.allclose(fn(x), expected)
    assert np.allclose(fn(np.zeros(4)), np.eye(4))


# --- curvature at the origin: dual routes --------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_jet_curvature_matches_fd(seed):
    jet = jets.random_jet2(seed)
    exact = jets.riemann_from_jet2(jet)
    fd_route = fd.riemann_lowered(jets.metric_fn_from_jets(jet), np.zeros(4), h=1e-3)
    assert np.max(np.abs(exact - fd_route)) < 1e-6

    blocks = jets.curvature_from_jet2(jet)
    fd_blocks = connection.curvature_block_of_metric(
        jets.metric_fn_from_jets(jet), np.zeros(4)
    )
    assert np.max(np.abs(blocks.Rplus - fd_blocks.Rplus)) < 1e-6
    assert np.max(np.abs(blocks.Rminus - fd_blocks.Rminus)) < 1e-6


def test_jet_curvature_block_symmetric():
    blocks = jets.curvature_from_jet2(jets.random_jet2(9))
    assert np.allclose(blocks.Rplus, blocks.Rplus.T, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 200), st.floats(-2, 2), st.floats(-2, 2))
def test_jet_curvature_linear_in_jet(seed, s, t):
    j1, j2 = jets.random_jet2(seed), jets.random_jet2(seed + 1)
    combo = jets.Jet2.from_array(s * j1.H + t * j2.H)
    b = jets.curvature_from_jet2(combo).Rplus
    b1 = jets.curvature_from_jet2(j1).Rplus
    b2 = jets.curvature_from_jet2(j2).Rplus
    assert np.allclose(b, s * b1 + t * b2, atol=1e-10)


# --- gauge action ---------------------------------------------------------------

def test_pure_gauge_jet_is_flat():
    rng = np.random.default_rng(4)
    xfield = 0.05 * rng.normal(size=(4, 4, 4, 4))
    jet = jets.Jet2(H=jets.delta_star(xfield))
    blocks = jets.curvature_from_jet2(jet)
    assert np.max(np.abs(blocks.Rplus)) < 1e-12
    assert np.max(np.abs(blocks.Rminus)) < 1e-12


def test_gauge_shift_preserves_curvature():
    rng = np.random.default_rng(5)
    jet = jets.random_jet2(7)
    xfield = 0.05 * rng.normal(size=(4, 4, 4, 4))
    shifted = jets.Jet2.from_array(jet.H + jets.delta_star(xfield))
    b0 = jets.curvature_from_jet2(jet)
    b1 = jets.curvature_from_jet2(shifted)
    assert np.max(np.abs(b0.Rplus - b1.Rplus)) < 1e-10
    assert np.max(np.abs(b0.Rminus - b1.Rminus)) < 1e-10


def test_gauge_project_kills_bianchi_form():
    jet = jets.random_jet2(11)
    proj = jets.gauge_project(jet)
    assert np.max(np.abs(jets.bianchi_form(jet))) > 0.1
    assert np.max(np.abs(jets.bianchi_form(proj.jet))) < 1e-10
    # curvature untouched
    b0 = jets.curvature_from_jet2(jet)
    b1 = jets.curvature_from_jet2(proj.jet)
    assert np.max(np.abs(b0.Rplus - b1.Rplus)) < 1e-10
    # idempotent up to numerical zero
    again = jets.gauge_project(proj.jet).jet
    assert np.max(np.abs(again.H - proj.jet.H)) < 1e-10


# --- seeded generators ----------------------------------------------------------

def _first_row_norm(jet):
    return obstruction.first_row_norm(jets.curvature_from_jet2(jet).Rplus)


def test_jet2_first_row_zero_generator():
    for seed in range(3):
        jet = jets.jet2_first_row_zero(seed)
        assert _first_row_norm(jet) < 1e-10


def test_jet2_with_block_generator():
    target = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.3], [0.0, 0.3, -0.7]])
    jet = jets.jet2_with_block(target, seed=2)
    blk = jets.curvature_from_jet2(jet).Rplus
    assert np.allclose(blk, target, atol=1e-9)


# --- the second-derivative invariant ---------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_d2_invariant_dual_routes(seed):
    jet = jets.jet2_first_row_zero(seed)
    quartic = jets.random_jet4(seed + 40)
    sym = jets.d2_invariant_symbolic(jet, quartic)
    fdv = jets.d2_invariant_fd(jet, quartic)
    assert fdv == pytest.approx(sym, abs=1e-6 * max(1.0, abs(sym)))


def test_d2_requires_degenerate_first_row():
    jet = jets.random_jet2(1)  # generic: first row nonzero
    with pytest.raises(FirstObstructionNonzero):
        jets.d2_invariant_symbolic(jet, jets.random_jet4(2))


def test_d2_and_the_report_share_the_first_row_rule():
    # a first row of 1e-7 in a jet whose largest entry is 18.6 is degenerate
    # by the rule in units of the jet, for the report and the invariant alike
    block = np.array([[0.0, 1e-7, 0.0], [1e-7, 50.0, 0.0], [0.0, 0.0, 1.0]])
    jet = jets.jet2_with_block(block, seed=0)
    quartic = jets.random_jet4(0)
    report = obstruction.compute_report(jet, quartic, k=1)
    assert report.D == pytest.approx(-23.158389, abs=1e-5)
    assert jets.d2_invariant_symbolic(jet, quartic) == report.D


def test_d2_vanishes_for_binary_dihedral_symmetry():
    mats = jets.binary_dihedral_group()
    for seed in range(2):
        jet = jets.Jet2.from_array(jets.average(jets.jet2_first_row_zero(seed).H, mats))
        quartic = jets.Jet4.from_array(jets.average(jets.random_jet4(seed + 10).H2, mats))
        assert _first_row_norm(jet) < 1e-8
        assert abs(jets.d2_invariant_symbolic(jet, quartic)) < 1e-8


def test_d2_gauge_invariance_under_invariant_quintic():
    mats = jets.cyclic_group(2)
    for seed in range(2):
        jet = jets.Jet2.from_array(jets.average(jets.jet2_first_row_zero(seed).H, mats))
        assert _first_row_norm(jet) < 1e-8
        quartic = jets.Jet4.from_array(jets.average(jets.random_jet4(seed + 50).H2, mats))
        x5 = jets.average(jets.random_quintic_field(seed + 200), mats)
        shifted = jets.Jet4.from_array(quartic.H2 + jets.delta_star(x5))
        d0 = jets.d2_invariant_symbolic(jet, quartic)
        d1 = jets.d2_invariant_symbolic(jet, shifted)
        assert abs(d1 - d0) < 1e-6 * max(1.0, abs(d0))


# --- symmetry groups --------------------------------------------------------------

def test_cyclic_group_closure():
    mats = jets.cyclic_group(3)  # the (k+1)-element cyclic group for k = 3
    assert len(mats) == 4
    prods = [a @ b for a in mats for b in mats]
    for p in prods:
        assert any(np.allclose(p, m, atol=1e-12) for m in mats)


def test_binary_dihedral_group_structure():
    mats = jets.binary_dihedral_group()
    assert len(mats) == 8
    for m in mats:
        assert np.allclose(m.T @ m, np.eye(4), atol=1e-12)  # isometries
    prods = [a @ b for a in mats for b in mats]
    for p in prods:
        assert any(np.allclose(p, m, atol=1e-12) for m in mats)


def test_pullback_consistency():
    jet = jets.random_jet2(6)
    Q = jets.cyclic_group(3)[1]
    pulled = jets.pullback_jet2(jet, Q)
    x = np.array([0.2, -0.4, 0.1, 0.3])
    g_pulled = jets.metric_fn_from_jets(pulled)(x)
    g_orig = jets.metric_fn_from_jets(jet)(Q @ x)
    assert np.allclose(g_pulled, Q.T @ g_orig @ Q, atol=1e-12)


def _orthogonal(seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))
    return q


_PULLBACK_ARRAYS = {
    "jet2": lambda seed: jets.random_jet2(seed).H,
    "jet4": lambda seed: jets.random_jet4(seed).H2,
    "quintic": jets.random_quintic_field,
}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(_PULLBACK_ARRAYS)), st.integers(0, 1000), st.integers(0, 1000),
       st.integers(0, 1000))
def test_pullback_composes_and_stacks(kind, seed, seed_1, seed_2):
    # pulling back by Q1 then Q2 is pulling back by Q1 Q2, and a stack pulls
    # back by each of its matrices (both measured below 7e-17)
    arr = _PULLBACK_ARRAYS[kind](seed)
    q1, q2 = _orthogonal(seed_1), _orthogonal(seed_2)
    twice = jets._pullback(jets._pullback(arr, q1), q2)
    assert np.max(np.abs(twice - jets._pullback(arr, q1 @ q2))) < 1e-14
    stacked = jets._pullback(arr, np.stack([q1, q2]))
    for q, pulled in zip((q1, q2), stacked):
        assert np.max(np.abs(pulled - jets._pullback(arr, q))) < 1e-15


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(0, 1000), st.integers(0, 1000))
def test_delta_star_commutes_with_pullback(degree, seed, seed_q):
    # delta*(Q . X) = Q . delta*(X) for orthogonal Q, on cubic and quintic
    # fields (measured up to 6.3e-16 and 4.2e-15 of the largest entry)
    xfield = np.random.default_rng(seed).normal(size=(4,) * (degree + 1))
    q = _orthogonal(seed_q)
    moved = jets.delta_star(jets._pullback(xfield, q))
    expected = jets._pullback(jets.delta_star(xfield), q)
    assert np.max(np.abs(moved - expected)) < 1e-13 * np.max(np.abs(expected))


def test_average_is_idempotent():
    mats = jets.cyclic_group(2)
    jet = jets.Jet2.from_array(jets.average(jets.random_jet2(8).H, mats))
    again = jets.Jet2.from_array(jets.average(jet.H, mats))
    assert np.allclose(jet.H, again.H, atol=1e-14)
