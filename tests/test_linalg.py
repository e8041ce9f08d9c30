import itertools
from fractions import Fraction

import numpy as np
import pytest

from hitchinflow import linalg
from hitchinflow.verify import verify_identities

from oracles import bareiss_det, gauss_jordan_inverse


def _integer_matrix(rng, n):
    return linalg.as_exact(rng.integers(-9, 10, size=(n, n)))


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
    mats.append(linalg.as_exact(np.zeros((n, n), dtype=int)))
    tups = list(itertools.combinations(range(n), k))
    for m in mats:
        want = np.array(
            [[bareiss_det(m[np.ix_(I, J)]) if k else 1 for J in tups] for I in tups], dtype=object
        )
        got = linalg.minors(m, k)
        assert got.shape == (len(tups), len(tups))
        assert np.all(got == want)
        assert all(type(x) is Fraction for x in got.flat)


@pytest.mark.parametrize("n,k", [(6, 2), (6, 3), (7, 3), (8, 4)])
def test_float_minors_are_the_blockwise_lapack_determinants(rng, n, k):
    m = rng.normal(size=(n, n))
    tups = list(itertools.combinations(range(n), k))
    want = np.array([[np.linalg.det(m[np.ix_(I, J)]) for J in tups] for I in tups])
    assert np.array_equal(linalg.minors(m, k), want)


def test_exact_det_pivots_and_detects_singularity():
    # a zero (1,1) entry sends the oracle down its row-swap branch
    m = linalg.as_exact([[0, 2, 1, 3], [1, 5, -2, 0], [4, -1, 3, 2], [2, 2, 2, 7]])
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
