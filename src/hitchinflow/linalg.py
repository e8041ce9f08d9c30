"""Small dense linear algebra helpers that work in two scalar modes.

Float mode uses numpy directly.  Exact mode operates on object arrays of
``fractions.Fraction`` so that the model identities can be verified without
rounding; only the operations actually needed by the exact identity suite
(inverse, minors, determinant, signature, nullspace, square roots)
are implemented.  ``minors``, the k-th compound matrix, computes every
minor and exact determinant in the package: batched LAPACK determinants
for floats, for Fractions a Laplace expansion that reuses the smaller
minors, in Python ints over one common denominator, divided once.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def increasing_tuples(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing k-tuples from {0, ..., n-1}, lexicographic."""
    return tuple(itertools.combinations(range(n), k))


def is_exact(a: np.ndarray) -> bool:
    return a.dtype == object


def as_exact(a) -> np.ndarray:
    """Convert an array-like of ints/Fractions to an exact object array."""
    arr = np.array(a, dtype=object)
    flat = arr.reshape(-1)
    for i, x in enumerate(flat):
        flat[i] = Fraction(x)
    return flat.reshape(arr.shape)


def _int_root(a: int, n: int) -> int:
    """Floor of the n-th root of an int a >= 0: Newton's method in ints
    from the power of two above the root, until it no longer falls."""
    x = 1 << -(-a.bit_length() // n)
    while a and (y := ((n - 1) * x + a // x ** (n - 1)) // n) < x:
        x = y
    return x if a else 0


def exact_nth_root(x: Fraction, n: int) -> Fraction:
    """Exact signed n-th root (n odd allows negative x)."""
    if x < 0:
        if n % 2 == 0:
            raise ValueError("even root of negative value")
        return -exact_nth_root(-x, n)
    num, den = x.numerator, x.denominator
    rn, rd = _int_root(num, n), _int_root(den, n)
    if rn**n != num or rd**n != den:
        raise ValueError(f"{x} has no exact rational {n}-th root")
    return Fraction(rn, rd)


def sqrt_scalar(x):
    """Square root, exact for Fractions (ValueError when it is not
    rational), floating otherwise."""
    if isinstance(x, Fraction):
        return exact_nth_root(x, 2)
    return math.sqrt(x)


def nth_root_signed(x, n: int):
    """Signed n-th root, exact for Fractions, floating otherwise."""
    if isinstance(x, Fraction):
        return exact_nth_root(x, n)
    return math.copysign(abs(x) ** (1.0 / n), x) if x else 0.0


def _gauss_jordan(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Exact Gauss-Jordan solve of a x = rhs for Fraction matrices."""
    n = a.shape[0]
    m = np.concatenate([a.astype(object), rhs.astype(object)], axis=1)
    col = rhs.shape[1]
    for i in range(n):
        piv = None
        for r in range(i, n):
            if m[r, i] != 0:
                piv = r
                break
        if piv is None:
            raise np.linalg.LinAlgError("singular exact matrix")
        if piv != i:
            m[[i, piv]] = m[[piv, i]]
        m[i] = m[i] / m[i, i]
        for r in range(n):
            if r != i and m[r, i] != 0:
                m[r] = m[r] - m[r, i] * m[i]
    return m[:, n : n + col]


def inverse(a: np.ndarray) -> np.ndarray:
    if is_exact(a):
        return _gauss_jordan(a, np.eye(a.shape[0], dtype=object) + Fraction(0))
    return np.linalg.inv(a)


def det(a: np.ndarray):
    """Determinant; the top compound matrix in exact mode."""
    if not is_exact(a):
        return float(np.linalg.det(a))
    return minors(a, a.shape[0])[0, 0]


@lru_cache(maxsize=None)
def _laplace_tables(n: int, k: int, j: int):
    """Tables that build the j-minors on the rows that are j-suffixes of
    k-tuples from the (j-1)-minors: row (r0,) + rest -> r0 and the position
    of rest; column J -> J[p] and the position of J without J[p]."""
    rows = [t for t in increasing_tuples(n, j) if t[0] >= k - j]
    below = [t for t in increasing_tuples(n, j - 1) if t[0] >= k - j + 1]
    below_pos = {t: i for i, t in enumerate(below)}
    col_pos = {t: i for i, t in enumerate(increasing_tuples(n, j - 1))}
    cols = increasing_tuples(n, j)
    first = np.array([r[0] for r in rows])
    rest = np.array([below_pos[r[1:]] for r in rows])
    drop = np.array([[col_pos[c[:p] + c[p + 1 :]] for p in range(j)] for c in cols])
    return first, rest, np.array(cols), drop


@lru_cache(maxsize=None)
def _submatrix_index(n: int, k: int) -> np.ndarray:
    """Flat indices into an n x n matrix of its k x k submatrices over
    increasing k-tuples: entry [i, j, a, b] is row I_i[a], column J_j[b]."""
    idx = np.array(increasing_tuples(n, k))
    flat = idx[:, None, :, None] * n + idx[None, :, None, :]
    flat.setflags(write=False)
    return flat


def scale_to_int(m) -> tuple[np.ndarray, int]:
    """(d m, d) for an array of ints/Fractions and the lcm d of its
    denominators, d m as an object array of Python ints."""
    m = as_exact(m)
    den = math.lcm(*(x.denominator for x in m.flat))
    return np.frompyfunc(lambda x: x.numerator * (den // x.denominator), 1, 1)(m), den


def minors(m: np.ndarray, k: int) -> np.ndarray:
    """k-th compound matrix of a square m: C[i, j] = det m[I_i, J_j] over
    the increasing k-tuples I_i, J_j in lexicographic order.

    Float input takes batched LAPACK determinants.  Exact (object) input
    is scaled to ints by the lcm d of its denominators and expanded along
    first rows, each level of minors built from the one below, so one
    n x n determinant costs n * 2**(n-1) int products; every minor is then
    one Fraction(minor, d**k).
    """
    if k == 0:
        return np.full((1, 1), Fraction(1) if is_exact(m) else 1.0)
    n = m.shape[0]
    if not is_exact(m):
        return np.linalg.det(np.take(m, _submatrix_index(n, k)))
    m, den = scale_to_int(m)
    level = m[k - 1 :]
    for j in range(2, k + 1):
        first, rest, col, drop = _laplace_tables(n, k, j)
        prod = m[first[:, None, None], col] * level[rest[:, None, None], drop]
        level = prod[..., ::2].sum(axis=-1) - prod[..., 1::2].sum(axis=-1)
    return np.frompyfunc(lambda x: Fraction(x, den**k), 1, 1)(level)


def signature(g: np.ndarray, tol: float = 1e-10) -> tuple[int, int]:
    """Signature (p, q) of a symmetric matrix; exact via congruence in
    Fraction mode, eigenvalue counting otherwise.

    Raises ValueError if the matrix is degenerate at the given tolerance.
    """
    n = g.shape[0]
    if is_exact(g):
        m = g.astype(object).copy()
        p = q = 0
        idx = list(range(n))
        for _ in range(n):
            k = next((i for i in idx if m[i, i] != 0), None)
            if k is None:
                # symmetric with zero diagonal: find off-diagonal pivot
                pair = next(
                    ((i, j) for i in idx for j in idx if i < j and m[i, j] != 0),
                    None,
                )
                if pair is None:
                    raise ValueError("degenerate exact bilinear form")
                i, j = pair
                m[i] = m[i] + m[j]
                m[:, i] = m[:, i] + m[:, j]
                k = i
            d = m[k, k]
            if d > 0:
                p += 1
            else:
                q += 1
            idx.remove(k)
            for i in idx:
                c = m[i, k] / d
                if c != 0:
                    m[i] = m[i] - c * m[k]
                    m[:, i] = m[:, i] - c * m[:, k]
        return p, q
    eigs = np.linalg.eigvalsh(np.asarray(g, dtype=float)).tolist()
    cut = tol * max(max(map(abs, eigs)), 1.0)
    if any(abs(e) <= cut for e in eigs):
        raise ValueError("degenerate bilinear form")
    return sum(e > 0 for e in eigs), sum(e < 0 for e in eigs)


def rational_nullspace(a: np.ndarray) -> list[np.ndarray]:
    """Deterministic exact nullspace basis of a Fraction matrix.

    Returns vectors in reduced echelon convention: each has a leading 1 in
    a distinct free column, ordered by column index.
    """
    m = as_exact(a).copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i, c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = m[r] / m[r, c]
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = m[i] - m[i, c] * m[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for c in free:
        v = np.zeros(cols, dtype=object) + Fraction(0)
        v[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i, c]
        basis.append(v)
    return basis


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring Taylor series."""
    a = np.asarray(a, dtype=float)
    norm = np.max(np.abs(a)) if a.size else 0.0
    s = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
    x = a / (2**s)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 25):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out
