"""Pointwise exterior algebra: component layout, wedge, Hodge star,
duality split, and the almost-complex structures attached to 2-forms."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ale_lab import forms

FLAT = forms.EUCLIDEAN
FLAT_INV = forms.FLAT_INVERSE


def _tensor_to_comps(tensor: np.ndarray, degree: int) -> np.ndarray:
    """Sorted-tuple components (..., n) of (..., 4, ..., 4) arrays."""
    return np.stack([tensor[(Ellipsis,) + t] for t in forms.TUPLES[degree]], axis=-1)


def _rand_comps(seed: int, degree: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=forms.DEGREE_SIZES[degree])


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_comps_tensor_round_trip(degree):
    comps = _rand_comps(degree, degree)
    tensor = forms.comps_to_tensor(comps, degree)
    # fully antisymmetric
    swapped = np.swapaxes(tensor, 0, 1) if degree >= 2 else tensor
    if degree >= 2:
        assert np.allclose(swapped, -tensor)
    assert np.allclose(_tensor_to_comps(tensor, degree), comps)


def test_wedge_basis_products():
    dx = [np.eye(4)[i] for i in range(4)]
    w01 = forms.wedge(dx[0], 1, dx[1], 1)
    expected = np.zeros(6)
    expected[forms.TUPLE_INDEX[2][(0, 1)]] = 1.0
    assert np.allclose(w01, expected)
    # graded commutativity: 1-forms anticommute, 2-forms commute
    assert np.allclose(forms.wedge(dx[1], 1, dx[0], 1), -w01)
    a, b = _rand_comps(1, 2), _rand_comps(2, 2)
    assert np.allclose(forms.wedge(a, 2, b, 2), forms.wedge(b, 2, a, 2))


def test_wedge_associativity():
    dx = [np.eye(4)[i] for i in range(4)]
    ab = forms.wedge(dx[0], 1, dx[1], 1)
    bc = forms.wedge(dx[1], 1, dx[2], 1)
    assert np.allclose(
        forms.wedge(ab, 2, dx[2], 1), forms.wedge(dx[0], 1, bc, 2)
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(-3, 3), st.floats(-3, 3))
def test_wedge_bilinear(seed, s, t):
    a = _rand_comps(seed, 1)
    b = _rand_comps(seed + 1, 2)
    c = _rand_comps(seed + 2, 2)
    lhs = forms.wedge(a, 1, s * b + t * c, 2)
    rhs = s * forms.wedge(a, 1, b, 2) + t * forms.wedge(a, 1, c, 2)
    assert np.allclose(lhs, rhs, atol=1e-12)
    # stacked input: rows of a (3, n) stack, and one form against a stack
    stack_a = np.stack([a, s * a, _rand_comps(seed + 3, 1)])
    stack_b = np.stack([b, c, t * b])
    assert np.allclose(
        forms.wedge(stack_a, 1, stack_b, 2),
        [forms.wedge(x, 1, y, 2) for x, y in zip(stack_a, stack_b)], atol=1e-12)
    assert np.allclose(
        forms.wedge(a, 1, stack_b, 2), [forms.wedge(a, 1, y, 2) for y in stack_b], atol=1e-12)


def test_hodge_star_flat():
    e0 = np.eye(4)[0]
    star = forms.hodge_star(FLAT_INV, e0, 1)
    expected = np.zeros(4)
    expected[forms.TUPLE_INDEX[3][(1, 2, 3)]] = 1.0
    assert np.allclose(star, expected)
    # star^2 = -1 on odd degree, +1 on 2-forms (Riemannian, dim 4)
    assert np.allclose(forms.hodge_star(FLAT_INV, star, 3), -e0)
    two = _rand_comps(5, 2)
    assert np.allclose(
        forms.hodge_star(FLAT_INV, forms.hodge_star(FLAT_INV, two, 2), 2), two
    )


def test_flat_inverse_is_the_identity_pair_bit_for_bit():
    ginv, det = forms.metric_inverse(FLAT)
    flat_ginv, flat_det = FLAT_INV
    assert np.array_equal(flat_ginv, ginv) and flat_ginv.dtype == ginv.dtype
    assert type(flat_det) is np.float64 and flat_det == det
    assert not flat_ginv.flags.writeable


def test_duality_bases_are_star_eigenvectors():
    for i in range(3):
        assert np.allclose(
            forms.hodge_star(FLAT_INV, forms.OMEGA_SD[i], 2), forms.OMEGA_SD[i]
        )
        assert np.allclose(
            forms.hodge_star(FLAT_INV, forms.OMEGA_ASD[i], 2), -forms.OMEGA_ASD[i]
        )
        assert _reference_inner(FLAT, forms.OMEGA_SD[i], forms.OMEGA_SD[i], 2) == pytest.approx(2.0)


def _perm_sign(perm) -> int:
    return round(np.linalg.det(np.eye(len(perm))[list(perm)])) if perm else 1


LEVI_CIVITA = np.zeros((4,) * 4)
for _perm in itertools.permutations(range(4)):
    LEVI_CIVITA[_perm] = _perm_sign(_perm)


def _full_tensor(comps, p):
    out = np.zeros((4,) * p)
    for idx, tup in enumerate(itertools.combinations(range(4), p)):
        for perm in itertools.permutations(range(p)):
            out[tuple(tup[k] for k in perm)] = _perm_sign(perm) * comps[idx]
    return out


def _raise_all(g, tensor):
    ginv = np.linalg.inv(g)
    for axis in range(tensor.ndim):
        tensor = np.moveaxis(np.tensordot(ginv, tensor, axes=([1], [axis])), 0, axis)
    return tensor


def _reference_star(g, comps, p):
    """Raise every index of the full tensor, contract with Levi-Civita."""
    raised = _raise_all(g, _full_tensor(comps, p))
    axes = list(range(p))
    out = np.tensordot(raised, LEVI_CIVITA, axes=(axes, axes))
    out = out * math.sqrt(np.linalg.det(g)) / math.factorial(p)
    return np.array([out[t] for t in itertools.combinations(range(4), 4 - p)])


def _reference_inner(g, a, b, p):
    full_a, raised_b = _full_tensor(a, p), _raise_all(g, _full_tensor(b, p))
    return float(np.sum(full_a * raised_b)) / math.factorial(p)


def _reference_d_table(p):
    """Sign table D[a, I, K]: (d w)_K = sum_{a, I} d_a w_I D[a, I, K], from
    each index a at each position of every sorted (p+1)-tuple K."""
    table = np.zeros((4, forms.DEGREE_SIZES[p], forms.DEGREE_SIZES[min(p + 1, 4)]))
    for out_idx, tup in enumerate(forms.TUPLES.get(p + 1, ())):
        for pos in range(p + 1):
            rest = tup[:pos] + tup[pos + 1:]
            table[tup[pos], forms.TUPLE_INDEX[p][rest], out_idx] = (-1) ** pos
    return table


def _reference_complement(p):
    """For each sorted (4-p)-tuple K: the index of its sorted complement I
    among the p-tuples and the sign of the permutation (I, K)."""
    idx, sign = [], []
    for tup in forms.TUPLES[4 - p]:
        comp = tuple(i for i in range(4) if i not in tup)
        idx.append(forms.TUPLE_INDEX[p][comp])
        sign.append(_perm_sign(comp + tup))
    return np.array(idx), np.array(sign, dtype=float)


@pytest.mark.parametrize("p", range(5))
def test_d_and_complement_tables_equal_the_direct_loops(p):
    # both tables are read off the wedge table; the loops that build them
    # directly give the same values, shapes and dtypes
    pairs = [(forms.D_TABLE[p], _reference_d_table(p)),
             *zip(forms._COMPLEMENT[p], _reference_complement(p))]
    for got, ref in pairs:
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
        assert np.array_equal(got, ref)


def _flat_index(idx) -> int:
    out = 0
    for i in idx:
        out = out * 4 + i
    return out


def _reference_scatter(comps, p):
    """comps_to_tensor through a (flat position, component, sign) table
    built by permuting every sorted p-tuple."""
    entries = [
        (_flat_index(tuple(tup[k] for k in perm)), idx, _perm_sign(perm))
        for idx, tup in enumerate(forms.TUPLES[p])
        for perm in itertools.permutations(range(p))
    ]
    flat, src, sign = (np.array(col) for col in zip(*entries))
    out = np.zeros(comps.shape[:-1] + (4**p,), dtype=comps.dtype)
    out[..., flat] = sign.astype(float) * comps[..., src]
    return out.reshape(comps.shape[:-1] + (4,) * p)


def _reference_compound(matrix, p):
    """compound through row and column indices (I, J, permutation, slot) of
    the Leibniz expansion of every p x p minor, in the order of
    itertools.permutations."""
    perms = list(itertools.permutations(range(p)))
    n = forms.DEGREE_SIZES[p]
    rows = np.empty((n, n, len(perms), p), dtype=int)
    cols = np.empty_like(rows)
    for i, tup_i in enumerate(forms.TUPLES[p]):
        for j, tup_j in enumerate(forms.TUPLES[p]):
            for s, perm in enumerate(perms):
                rows[i, j, s] = tup_i
                cols[i, j, s] = [tup_j[k] for k in perm]
    signs = np.array([_perm_sign(perm) for perm in perms], dtype=float)
    return (matrix[..., rows, cols].prod(axis=-1) * signs).sum(axis=-1)


@pytest.mark.parametrize("p", range(5))
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_scatter_and_minors_equal_the_permutation_loops(p, kind):
    # both tables are read off the wedge table; the permutation loops that
    # build them directly give the same bits, term order included
    rng = np.random.default_rng(17 + p)
    matrix, comps = rng.normal(size=(5, 3, 4, 4)), rng.normal(size=(5, 3, forms.DEGREE_SIZES[p]))
    if kind == "complex":
        matrix = matrix + 1j * rng.normal(size=matrix.shape)
        comps = comps + 1j * rng.normal(size=comps.shape)
    for got, ref in ((forms.comps_to_tensor(comps, p), _reference_scatter(comps, p)),
                     (forms.compound(matrix, p), _reference_compound(matrix, p))):
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
        assert np.array_equal(got, ref)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_star_and_inner_on_curved_metrics(seed, degree):
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(4, 4))
    g = root @ root.T + 0.5 * np.eye(4)
    a, b = rng.normal(size=(2, forms.DEGREE_SIZES[degree]))
    inverse = forms.metric_inverse(g)
    star_b = forms.hodge_star(inverse, b, degree)
    ref = _reference_star(g, b, degree)
    assert np.allclose(star_b, ref, rtol=1e-9, atol=1e-9 * np.max(np.abs(ref)))
    inner = float(a @ forms.compound(inverse[0], degree) @ b)
    assert inner == pytest.approx(_reference_inner(g, a, b, degree), rel=1e-9, abs=1e-12)
    # ** = (-1)^{p(4-p)} in Riemannian signature
    sign = (-1) ** (degree * (4 - degree))
    assert np.allclose(forms.hodge_star(inverse, star_b, 4 - degree), sign * b,
                       rtol=1e-9, atol=1e-9 * np.max(np.abs(b)))
    # a ^ *b = <a, b> vol_g on dx^0123
    top = forms.wedge(a, degree, star_b, 4 - degree)
    vol = math.sqrt(np.linalg.det(g))
    assert top[0] == pytest.approx(inner * vol, rel=1e-9, abs=1e-12 * vol)


def test_split_sd_reconstructs_and_projects():
    comps = _rand_comps(9, 2)
    plus, minus = forms.split_sd(FLAT_INV, comps)
    assert np.allclose(plus + minus, comps)
    assert np.allclose(forms.hodge_star(FLAT_INV, plus, 2), plus, atol=1e-12)
    assert np.allclose(forms.hodge_star(FLAT_INV, minus, 2), -minus, atol=1e-12)
    # orthogonal decomposition of the norm
    total = _reference_inner(FLAT, comps, comps, 2)
    assert total == pytest.approx(
        _reference_inner(FLAT, plus, plus, 2) + _reference_inner(FLAT, minus, minus, 2)
    )


def test_J_quaternion_relations():
    J = [forms.J_with(FLAT_INV, forms.OMEGA_SD[i]) for i in range(3)]
    for i in range(3):
        assert np.allclose(J[i] @ J[i], -np.eye(4))
    assert np.allclose(J[0] @ J[1], J[2])
    assert np.allclose(J[1] @ J[2], J[0])
    assert np.allclose(J[0] @ J[1], -J[1] @ J[0])


def test_J_form_round_trip():
    comps = forms.OMEGA_SD[1]
    J = forms.J_with(FLAT_INV, comps)
    # W(X, Y) = g(JX, Y) recovers the form's components
    assert np.allclose(_tensor_to_comps(-FLAT @ J, 2), comps)


def test_apply_J_covector_is_pullback():
    J = forms.J_with(FLAT_INV, forms.OMEGA_SD[0])
    beta = _rand_comps(3, 1)
    v = _rand_comps(4, 1)
    # (J beta)(v) = -beta(J v)
    assert forms.apply_J_covector(J, beta) @ v == pytest.approx(-(beta @ (J @ v)))
    # stacks of matrices and covectors broadcast row by row
    jstack = forms.J_with(FLAT_INV, forms.OMEGA_SD)
    assert np.allclose(jstack, [forms.J_with(FLAT_INV, w) for w in forms.OMEGA_SD])
    betas = np.stack([beta, v, beta - v])
    assert np.allclose(forms.apply_J_covector(jstack, betas),
                       [forms.apply_J_covector(m, b) for m, b in zip(jstack, betas)])
    assert np.allclose(forms.apply_J_covector(J, betas),
                       [forms.apply_J_covector(J, b) for b in betas])


def test_metric_from_triple_flat():
    g = forms.metric_from_triple(*forms.OMEGA_SD)
    assert np.allclose(g, np.eye(4), atol=1e-12)


def test_metric_from_triple_scales():
    # conformal scaling: a triple scaled by c^2 comes from the metric c^2 g
    c2 = 2.5
    g = forms.metric_from_triple(*(c2 * np.asarray(forms.OMEGA_SD)))
    assert np.allclose(g, c2 * np.eye(4), atol=1e-10)


def test_metric_from_triple_rejects_incompatible():
    with pytest.raises(forms.FrameNotOrthonormal):
        forms.metric_from_triple(
            forms.OMEGA_SD[0], forms.OMEGA_SD[1], 3.0 * forms.OMEGA_SD[2]
        )
