import itertools
from fractions import Fraction

import numpy as np
import pytest

from hitchinflow import homogeneous, linalg
from hitchinflow.verify import verify_identities

from oracles import (
    as_exact,
    bareiss_det,
    congruence_signature,
    fraction_nullspace,
    gauss_jordan_inverse,
    lapack_minors,
)


def _integer_matrix(rng, n):
    return as_exact(rng.integers(-9, 10, size=(n, n)))


def _fraction_matrix(rng, n):
    nums, dens = rng.integers(-9, 10, n * n), rng.choice([1, 3, 7], n * n)
    return np.array(
        [Fraction(int(p), int(q)) for p, q in zip(nums, dens)], dtype=object
    ).reshape(n, n)


@pytest.mark.parametrize(
    "n,k", [(6, k) for k in range(7)] + [(7, 3), (7, 4), (8, 4)]
)
def test_exact_minors_match_per_minor_oracle(rng, n, k):
    # mixed denominators exercise the common-denominator scaling; a zero
    # row and the zero matrix give zero minors, still as Fractions
    mats = [_integer_matrix(rng, n), _fraction_matrix(rng, n), _fraction_matrix(rng, n)]
    mats[2][1] = Fraction(0)
    mats.append(as_exact(np.zeros((n, n), dtype=int)))
    tups = list(itertools.combinations(range(n), k))
    for m in mats:
        want = np.array(
            [[bareiss_det(m[np.ix_(I, J)]) if k else 1 for J in tups] for I in tups], dtype=object
        )
        got = linalg.minors(m, k)
        assert got.shape == (len(tups), len(tups))
        assert np.all(got == want)
        assert all(type(x) is Fraction for x in got.flat)


@pytest.mark.parametrize("n", range(1, 9))
def test_minors_on_rows_are_those_rows_of_the_compound(rng, n):
    # the row list expands only the suffixes its rows read: every k, k = 0,
    # 1 and n too, on no rows, on all, and on rows out of order with repeats
    for _ in range(2):
        m, _ = linalg.scale_to_int(_fraction_matrix(rng, n))
        for k in range(n + 1):
            full, size = linalg.laplace_minors(m, k), len(linalg.increasing_tuples(n, k))
            picks = [rng.choice(size, size=min(size, 5), replace=False), rng.integers(0, size, 7)]
            for rows in ([], list(range(size)), *picks, np.flatnonzero(rng.random(size) < 0.2)):
                got = linalg.laplace_minors(m, k, rows)
                assert got.shape == (len(rows), size)
                assert np.all(got == full[list(rows)])


@pytest.mark.parametrize("n,k", [(6, 2), (6, 3), (7, 3), (8, 4)])
def test_float_minors_are_the_blockwise_lapack_determinants(rng, n, k):
    # the oracle's batched compound is the blockwise LAPACK determinants bit
    # for bit; float linalg.minors takes the exact branch's Laplace expansion
    # and agrees with it to 1e-13 of the largest minor
    m = rng.normal(size=(n, n))
    tups = list(itertools.combinations(range(n), k))
    want = np.array([[np.linalg.det(m[np.ix_(I, J)]) for J in tups] for I in tups])
    assert np.array_equal(lapack_minors(m, k), want)
    got = linalg.minors(m, k)
    assert got.dtype == float and np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_exact_det_pivots_and_detects_singularity():
    # a zero (1,1) entry sends the oracle down its row-swap branch
    m = as_exact([[0, 2, 1, 3], [1, 5, -2, 0], [4, -1, 3, 2], [2, 2, 2, 7]])
    assert linalg.det(m) == bareiss_det(m) != 0
    singular = m.copy()
    singular[3] = singular[0] + 2 * singular[1]
    assert linalg.det(singular) == bareiss_det(singular) == 0


@pytest.mark.parametrize("root", [3**40, 10**17 + 3, 10**35])
@pytest.mark.parametrize("n", [3, 9])
def test_exact_nth_root_of_large_powers(root, n):
    # roots past 2**53 and powers past the float range are found in ints
    r = Fraction(root, 7)
    assert linalg.exact_nth_root(r**n, n) == r
    assert linalg.exact_nth_root(-(r**n), n) == -r
    for not_a_power in (r**n + 1, Fraction(root**n, 2)):
        with pytest.raises(ValueError, match="no exact rational"):
            linalg.exact_nth_root(not_a_power, n)


def test_float_signature_counts_and_threshold(rng):
    for _ in range(20):
        a = rng.normal(size=(6, 6))
        eigs = np.linalg.eigvalsh(a + a.T)
        assert linalg.signature(a + a.T) == (int(np.sum(eigs > 0)), int(np.sum(eigs < 0)))
    # degenerate when some |eig| <= tol * max(max |eig|, 1) or is nan (a
    # nan entry), so p + q is always the dimension
    assert linalg.signature(np.diag([2.0, -1.0, 2.0001e-10])) == (2, 1)
    for g in (np.diag([2.0, -1.0, 2e-10]), np.diag([0.5, -0.5, 1e-10]), np.diag([1.0, np.nan]),
              np.array([[1.0, np.nan], [np.nan, 1.0]])):
        with pytest.raises(ValueError, match="degenerate"):
            linalg.signature(g)


def test_exact_inverse_is_the_gauss_jordan_oracle(rng, monkeypatch):
    # the adjugate from the (n-1)-minors over the determinant, on the
    # metrics the identity suite inverts and on random rational matrices
    seen, inverse = [], linalg.inverse
    monkeypatch.setattr(linalg, "inverse", lambda a: seen.append(a) or inverse(a))
    verify_identities()
    exact = [a for a in seen if linalg.is_exact(a)]
    assert exact
    randoms = [_fraction_matrix(rng, n) for n in range(1, 8) for _ in range(6)]
    for a in exact + randoms:
        got = inverse(a)
        assert np.all(got == gauss_jordan_inverse(a))
        assert all(type(x) is Fraction for x in got.flat)


def test_exact_inverse_of_a_singular_matrix_raises(rng):
    a = _fraction_matrix(rng, 5)
    a[3] = a[1] * Fraction(2, 3)
    with pytest.raises(np.linalg.LinAlgError):
        linalg.inverse(a)


def _symmetric_fraction_matrix(rng, n, zero_diagonal=False):
    a = _fraction_matrix(rng, n)
    s = a + a.T
    if zero_diagonal:
        s[np.diag_indices(n)] = Fraction(0)
    return s


def test_exact_signature_is_the_congruence_oracle(rng, monkeypatch):
    # Descartes' rule on the int characteristic polynomial against the
    # Fraction congruence: random symmetric matrices (a third with a zero
    # diagonal, which the congruence meets with its pivot-pair search),
    # degenerate ones, and the matrices a verify pass classifies
    seen, signature = [], linalg.signature
    monkeypatch.setattr(linalg, "signature", lambda g: seen.append(g) or signature(g))
    verify_identities()
    classified = [g for g in seen if linalg.is_exact(g)]
    assert len(classified) == 9
    randoms = [
        _symmetric_fraction_matrix(rng, n, zero_diagonal=i % 3 == 0)
        for n in range(1, 9) for i in range(12)
    ]
    checked = 0
    for g in classified + randoms:
        try:
            want = congruence_signature(g)
        except ValueError:
            with pytest.raises(ValueError, match="degenerate"):
                signature(g)
            continue
        assert signature(g) == want
        checked += 1
    assert checked >= len(classified) + 80
    degenerate = [as_exact(np.zeros((3, 3), dtype=int))]
    for n in (2, 5, 8):
        g = _symmetric_fraction_matrix(rng, n)
        g[-1], g[:, -1] = g[0] * 3, g[:, 0] * 3  # the last row and column are 3x the first
        g[-1, -1] = g[0, 0] * 9
        degenerate.append(g)
    g = _symmetric_fraction_matrix(rng, 6, zero_diagonal=True)
    g[2], g[:, 2] = Fraction(0), Fraction(0)
    degenerate.append(g)
    for g in degenerate:
        for sig in (signature, congruence_signature):
            with pytest.raises(ValueError, match="degenerate"):
                sig(g)


def _rational_matrix(rng, rows, cols, rank=None):
    a = np.array(
        [Fraction(int(p), int(q)) for p, q in zip(rng.integers(-9, 10, rows * cols),
                                                  rng.choice([1, 2, 3, 7], rows * cols))],
        dtype=object,
    ).reshape(rows, cols)
    if rank is not None:  # rows beyond the rank are combinations of the first ones
        for i in range(rank, rows):
            a[i] = a[i % rank] * Fraction(int(rng.integers(-3, 4)), 5) + a[(i + 1) % rank]
    return a


def test_rational_nullspace_is_the_fraction_oracle(rng):
    # Gauss-Jordan on primitive int rows gives the Fractions of the old
    # Fraction elimination: the reduced echelon form is unique
    mats = [as_exact(np.zeros((3, 5), dtype=int))]
    for rows, cols in ((2, 6), (3, 8), (7, 4), (9, 3), (5, 5)):
        mats.append(_rational_matrix(rng, rows, cols))
        mats.append(_rational_matrix(rng, rows, cols, rank=min(rows, cols) - 1))
    for name in ("n11", "flag", "abelian7", "flat7"):
        sp = homogeneous.space(name)
        for k in range(sp.mdim + 1):
            hs = [sp.h_action_matrix(p, k, exact=True) for p in range(len(sp.split.h))]
            mats.append(np.array(hs).reshape(-1, len(linalg.increasing_tuples(sp.mdim, k))))
    for a in mats:
        got, want = linalg.rational_nullspace(a), fraction_nullspace(a)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert all(type(x) is Fraction for x in g)
            assert list(g) == list(w)
            assert not (a @ g).any()


def test_exact_linalg_does_no_fraction_arithmetic(rng, monkeypatch):
    # the int rule: Fractions are read (numerator, denominator), compared
    # and built, never added, multiplied or divided
    def refuse(*args):
        raise AssertionError("Fraction arithmetic in linalg")

    g = _symmetric_fraction_matrix(rng, 6, zero_diagonal=True)
    a, nullable = _fraction_matrix(rng, 5), _rational_matrix(rng, 4, 7, rank=3)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__"):
        monkeypatch.setattr(Fraction, name, refuse)
    assert linalg.signature(g)
    assert linalg.inverse(a).shape == (5, 5)
    assert len(linalg.rational_nullspace(nullable)) == 4
    assert linalg.det(a) == linalg.minors(a, 5)[0, 0]
    assert linalg.minors(a, 3).shape == (10, 10)
    m, den = linalg.scale_to_int(a)
    assert all(type(x) is int for x in m.flat) and np.all(linalg.divide_ints(m, den) == a)
    assert np.all(linalg.laplace_minors(m, 3, [7, 0, 7]) == linalg.laplace_minors(m, 3)[[7, 0, 7]])
    assert linalg.sqrt_scalar(Fraction(49, 4)) == Fraction(7, 2)
    assert linalg.nth_root_signed(Fraction(-8, 27), 3) == Fraction(-2, 3)
