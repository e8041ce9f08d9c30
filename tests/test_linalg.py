import itertools

import numpy as np
import pytest

from hitchinflow import linalg

from oracles import bareiss_det


def _integer_matrix(rng, n):
    return linalg.as_exact(rng.integers(-9, 10, size=(n, n)))


@pytest.mark.parametrize(
    "n,k", [(6, k) for k in range(7)] + [(7, 3), (7, 4), (8, 4)]
)
def test_exact_minors_match_per_minor_oracle(rng, n, k):
    m = _integer_matrix(rng, n)
    tups = list(itertools.combinations(range(n), k))
    want = np.array(
        [[bareiss_det(m[np.ix_(I, J)]) if k else 1 for J in tups] for I in tups], dtype=object
    )
    got = linalg.minors(m, k)
    assert got.shape == (len(tups), len(tups))
    assert np.all(got == want)


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
