import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from elmkit.numerics import (
    NumericalError,
    Rng,
    _solve_spd,
    orthonormal_random,
    pseudo_inverse,
    ridge_solve,
    unit_row,
)


def ridge_gradient(h, t, c, b):
    """Oracle: gradient of ||hb - t||^2 + (1/c)||b||^2 at b."""
    g = 2.0 * h.T @ (h @ b - t)
    if not math.isinf(c):
        g = g + (2.0 / c) * b
    return g


def test_ridge_identity_halves_target():
    h = np.eye(2)
    t = np.array([[1.0], [2.0]])
    b = ridge_solve(h, t, 1.0)
    np.testing.assert_allclose(b, [[0.5], [1.0]], rtol=0, atol=1e-14)


def test_ridge_identity_infinite_c_interpolates():
    h = np.eye(2)
    t = np.array([[1.0], [2.0]])
    b = ridge_solve(h, t, math.inf)
    np.testing.assert_allclose(b, t, rtol=0, atol=1e-12)


def test_ridge_gradient_is_zero_at_solution():
    gen = Rng(42).generator()
    h = gen.standard_normal((6, 3))
    t = gen.standard_normal((6, 2))
    b = ridge_solve(h, t, 10.0)
    g = ridge_gradient(h, t, 10.0, b)
    assert np.abs(g).max() < 1e-8


@pytest.mark.parametrize("seed", range(8))
def test_primal_and_dual_forms_agree(seed):
    gen = Rng(seed).generator()
    rows, cols = 7, 5
    h = gen.standard_normal((rows, cols))
    t = gen.standard_normal((rows, 3))
    b_primal = ridge_solve(h, t, 50.0)  # cols <= rows path
    # force the dual path by solving the transposed-problem identity:
    # b = h'(I/c + hh')^{-1} t computed directly
    ridge = 1.0 / 50.0
    b_dual = h.T @ np.linalg.solve(h @ h.T + ridge * np.eye(rows), t)
    np.testing.assert_allclose(b_primal, b_dual, rtol=1e-8, atol=1e-10)


def test_wide_system_uses_dual_and_matches_gradient():
    gen = Rng(3).generator()
    h = gen.standard_normal((4, 9))
    t = gen.standard_normal((4, 2))
    b = ridge_solve(h, t, 25.0)
    assert b.shape == (9, 2)
    assert np.abs(ridge_gradient(h, t, 25.0, b)).max() < 1e-8


def test_ridge_rejects_mismatched_rows():
    with pytest.raises(ValueError, match="row mismatch"):
        ridge_solve(np.eye(3), np.ones((2, 1)), 1.0)


def test_ridge_rejects_nonpositive_c():
    with pytest.raises(ValueError, match="positive"):
        ridge_solve(np.eye(2), np.ones((2, 1)), 0.0)


def test_singular_system_with_infinite_c_raises():
    h = np.ones((3, 2))  # rank 1
    with pytest.raises(NumericalError, match="rank deficient"):
        ridge_solve(h, np.ones((3, 1)), math.inf)


def test_singular_system_with_finite_c_solves():
    h = np.ones((3, 2))
    b = ridge_solve(h, np.ones((3, 1)), 100.0)
    assert np.all(np.isfinite(b))


def copy_based_spd_solve(gram, rhs, c):
    """Reference: factor a fresh copy of gram + (1/c + jitter) I for each rung
    of the jitter ladder until one succeeds; returns (solution, jitter)."""
    n = gram.shape[0]
    trace = np.trace(gram)
    base = 1e-10 * (trace / n if trace > 0 else 1.0)
    for jitter in (0.0, base, 2.0 * base, 4.0 * base):
        a = gram.copy()
        a.flat[:: n + 1] += 1.0 / c + jitter
        try:
            cf = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            continue
        return scipy.linalg.cho_solve(cf, rhs, check_finite=False), jitter
    raise AssertionError("reference solve failed on every rung")


@pytest.mark.parametrize(
    "n, rank, c",
    [(50, 3, 1e4), (400, 20, 1e8), (300, 300, 1.0), (50, 3, 1e30), (400, 20, 1e30), (300, 300, 1e30)],
)
def test_in_place_spd_solve_is_bitwise_the_copy_based_one(n, rank, c):
    gen = Rng(n + rank).generator()
    h = gen.standard_normal((n, rank))
    gram = h @ h.T
    assert np.array_equal(gram, gram.T)
    rhs = gen.standard_normal((n, 3))
    expected, jitter = copy_based_spd_solve(gram, rhs, c)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _solve_spd(lambda g: np.copyto(g, gram), rhs, c)
    assert got.tobytes() == expected.tobytes()
    # a retry rebuilt the consumed matrix: the ladder's rung that succeeded is
    # the jitter the warning names, and the rank-deficient c = 1e30 cases need one
    assert (jitter > 0.0) == (c == 1e30 and rank < n)
    assert [str(w.message) for w in caught] == (
        [f"Cholesky succeeded only after adding jitter {jitter:.3e} to the diagonal"] if jitter else []
    )


def upper_builder(gram, calls):
    """Builder writing gram's diagonal and upper triangle into a C-ordered
    buffer and NaN into the strict lower triangle, which the solve never reads."""
    n = gram.shape[0]
    lower = np.tril_indices(n, -1)

    def build(g):
        calls.append(n)
        np.copyto(g, gram)
        g[lower] = np.nan

    return build


@pytest.mark.parametrize("n, rank, c", [(50, 3, 1e4), (300, 300, 1.0), (50, 3, 1e30), (400, 20, 1e30)])
def test_spd_solve_never_reads_the_strict_lower_triangle(n, rank, c):
    gen = Rng(n + rank).generator()
    h = gen.standard_normal((n, rank))
    gram = h @ h.T
    rhs = gen.standard_normal((n, 3))
    expected, _ = copy_based_spd_solve(gram, rhs, c)
    buf = np.empty((n, n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = _solve_spd(upper_builder(gram, []), rhs, c, out=buf)
    assert got.tobytes() == expected.tobytes()
    # the factor was written into the caller's buffer, and the NaN triangle survived it
    assert np.isnan(buf[np.tril_indices(n, -1)]).all()


@pytest.mark.parametrize("n, rank", [(50, 3), (400, 20)])
def test_rank_deficient_solve_builds_once_per_rung(n, rank):
    gen = Rng(n + rank).generator()
    h = gen.standard_normal((n, rank))
    gram = h @ h.T
    rhs = gen.standard_normal((n, 3))
    _, jitter = copy_based_spd_solve(gram, rhs, 1e30)
    base = 1e-10 * (np.trace(gram) / n)
    rung = [0.0, base, 2.0 * base, 4.0 * base].index(jitter)
    assert rung > 0
    calls = []
    with pytest.warns(RuntimeWarning, match="jitter"):
        _solve_spd(upper_builder(gram, calls), rhs, 1e30)
    assert len(calls) == rung + 1


def test_jittered_solve_warns():
    h = np.ones((3, 2))  # rank 1: the 1e-30 ridge alone leaves it singular
    with pytest.warns(RuntimeWarning, match="jitter"):
        b = ridge_solve(h, np.ones((3, 1)), 1e30)
    assert np.all(np.isfinite(b))


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.01, max_value=1e6),
)
def test_ridge_gradient_property(seed, rows, cols, c):
    gen = Rng(seed).generator()
    h = gen.standard_normal((rows, cols))
    t = gen.standard_normal((rows, 2))
    b = ridge_solve(h, t, c)
    tol = 1e-8 * (1.0 + np.linalg.norm(t))
    assert np.abs(ridge_gradient(h, t, c, b)).max() < tol


def test_pinv_of_diagonal():
    np.testing.assert_allclose(
        pseudo_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-12
    )


def test_pinv_of_orthonormal_columns_is_transpose():
    q = orthonormal_random(3, 2, Rng(5))
    np.testing.assert_allclose(pseudo_inverse(q), q.T, atol=1e-10)


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4)])
def test_pinv_penrose_conditions(shape):
    gen = Rng(11).generator()
    h = gen.standard_normal(shape)
    hp = pseudo_inverse(h)
    scale = np.linalg.norm(h)
    assert np.linalg.norm(h @ hp @ h - h) < 1e-8 * scale
    assert np.linalg.norm(hp @ h @ hp - hp) < 1e-8 * np.linalg.norm(hp)
    np.testing.assert_allclose(h @ hp, (h @ hp).T, atol=1e-8)
    np.testing.assert_allclose(hp @ h, (hp @ h).T, atol=1e-8)


def test_pinv_of_singular_matrix_is_finite_and_bounded():
    h = np.ones((3, 3))
    hp = pseudo_inverse(h)
    assert np.all(np.isfinite(hp))
    # pinv(ones) = ones/9; the SVD inverse is exact to rounding, well inside rtol
    np.testing.assert_allclose(hp, np.full((3, 3), 1.0 / 9.0), rtol=1e-2)


@pytest.mark.parametrize("rows,cols", [(3, 3), (5, 2), (16, 16), (40, 7)])
def test_orthonormal_columns(rows, cols):
    a = orthonormal_random(rows, cols, Rng(9))
    gram = a.T @ a
    assert np.abs(gram - np.eye(cols)).max() < 1e-10


def test_orthonormal_rectangular_is_not_row_orthonormal():
    a = orthonormal_random(5, 2, Rng(9))
    assert np.abs(a @ a.T - np.eye(5)).max() > 0.1


def test_orthonormal_wide_is_the_tall_draw_transposed():
    a = orthonormal_random(2, 5, Rng(0))
    assert a.tobytes() == orthonormal_random(5, 2, Rng(0)).T.tobytes()
    assert np.abs(a @ a.T - np.eye(2)).max() < 1e-10


def test_same_seed_bit_identical():
    a = orthonormal_random(6, 4, Rng(123))
    b = orthonormal_random(6, 4, Rng(123))
    assert a.tobytes() == b.tobytes()


def test_split_streams_differ_and_are_stable():
    r = Rng(7)
    a = r.split(0).generator().standard_normal(4)
    b = r.split(1).generator().standard_normal(4)
    a2 = r.split(0).generator().standard_normal(4)
    assert a.tobytes() == a2.tobytes()
    assert a.tobytes() != b.tobytes()


def test_nested_splits_do_not_collide():
    r = Rng(1)
    seen = set()
    for i in range(4):
        for j in range(4):
            seen.add(r.split(i).split(j).stream)
    assert len(seen) == 16


def test_unit_row_has_unit_norm():
    v = unit_row(10, Rng(2))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
