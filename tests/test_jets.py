"""Polynomial metric jets: curvature at the origin versus the
finite-difference route, gauge projection, the second-derivative
determinant invariant via two independent routes, and the symmetry-group
machinery."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ale_lab import connection, fd, gh, jets, obstruction
from ale_lab.errors import AleLabError, SchemaError, SymmetryError


def test_cached_tables_are_read_only():
    nodes, weights = gh._legendre_rule(8)
    basis, columns = jets._gauge_system()
    amat, sym_basis = jets._block_functionals()
    jets._symmetrize_pairs(np.zeros((4,) * 4), [(0, 1), (2, 3)])
    orbits = jets._orbit_table(4, ((0, 1), (2, 3))) + jets._orbit_table(6, jets._JET4_GROUPS)
    for arr in (nodes, weights, basis, columns, amat, sym_basis, *orbits):
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


_SYMMETRY_CASES = pytest.mark.parametrize("ndim, groups", [
    (4, [(0, 1), (2, 3)]), (6, [(0, 1, 2, 3), (4, 5)]), (4, [(1, 2, 3)]), (6, [(1, 2, 3, 4, 5)]),
])


def _transposes(ndim, groups):
    """The axis order of every transpose within the groups."""
    for combo in itertools.product(*(itertools.permutations(g) for g in groups)):
        perm = list(range(ndim))
        for group, permuted in zip(groups, combo):
            for src, dst in zip(group, permuted):
                perm[src] = dst
        yield perm


@_SYMMETRY_CASES
def test_symmetrized_array_is_bitwise_invariant(ndim, groups):
    # every entry of an orbit reads its orbit's one mean, so each transpose
    # within the groups gives the same bits, not the same value to rounding
    sym = jets._symmetrize_pairs(np.random.default_rng(ndim).normal(size=(4,) * ndim), groups)
    for perm in _transposes(ndim, groups):
        assert np.transpose(sym, perm).tobytes() == sym.tobytes()


@_SYMMETRY_CASES
def test_symmetrize_pairs_matches_transpose_loop(ndim, groups):
    # the loop rounds once per transpose and the orbit sum once per orbit
    # entry: they part by a few ulp of max|arr|, growing with the count of
    # transposes (at most 17 ulp over 100 seeds at 120 transposes)
    arr = np.random.default_rng(ndim).normal(size=(4,) * ndim)
    perms = list(_transposes(ndim, groups))
    expected = np.zeros_like(arr)
    for perm in perms:
        expected = expected + np.transpose(arr, perm)
    expected = expected / len(perms)
    bound = max(4, len(perms) // 4) * np.spacing(np.max(np.abs(arr)))
    assert np.max(np.abs(jets._symmetrize_pairs(arr, groups) - expected)) <= bound
    # the orbit sums start from 0.0, so a signed zero reads +0.0
    zeros = jets._symmetrize_pairs(np.full((4,) * ndim, -0.0), groups)
    assert (zeros == 0.0).all() and not np.signbit(zeros).any()


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


# D of criterion 7's draws (jet2_first_row_zero(s), random_jet4(s + 100)),
# s = 0..9, then of jet2_first_row_zero(0) and (1) without a quartic, as the
# truncated polynomial expansion of the curvature computed them
D_PINS = [
    *[(s, s + 100, d) for s, d in enumerate([
        0.5884662403022978, 0.8175170323704914, 1.1766305706450826, 0.7023724591609941,
        -0.8655857934116469, -0.8348666192144475, 0.1714300151860734, 0.6813548955334909,
        1.2211926713434653, -0.16765978685371963])],
    (0, None, -0.06522983139303486),
    (1, None, -0.01061529837301839),
]


@pytest.mark.parametrize("seed,quartic_seed,want", D_PINS)
def test_d2_closed_form_matches_the_polynomial_expansion(seed, quartic_seed, want):
    quartic = None if quartic_seed is None else jets.random_jet4(quartic_seed)
    got = jets.d2_invariant_symbolic(jets.jet2_first_row_zero(seed), quartic)
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("seed", range(3))
def test_d2_tensor_routes_agree_entrywise(seed):
    # the whole signature-split second derivative, not only its contraction
    # with w1, so an error in an entry the contraction misses shows too
    jet, quartic = jets.jet2_first_row_zero(seed), jets.random_jet4(seed + 100)
    exact = jets._d2_tensor_exact(jet, quartic)
    num = jets._d2_tensor_fd(jet, quartic)
    assert np.max(np.abs(exact - num)) <= 1e-6 * max(1.0, float(np.max(np.abs(exact))))


def test_d2_and_the_report_share_the_first_row_rule():
    # a first row of 1e-7 in a jet whose largest entry is 18.6 is degenerate
    # by the rule in units of the jet, so the report gives D, the closed form's
    block = np.array([[0.0, 1e-7, 0.0], [1e-7, 50.0, 0.0], [0.0, 0.0, 1.0]])
    jet = jets.jet2_with_block(block, seed=0)
    quartic = jets.random_jet4(0)
    report = obstruction.compute_report(jet, obstruction.ak_constants(1, 1.0), quartic)
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
