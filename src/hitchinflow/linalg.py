"""Small dense linear algebra helpers that work in two scalar modes.

Float mode uses numpy directly.  Exact mode takes object arrays of
``fractions.Fraction``, for the model identity suite, and follows one rule:
scale the nonzero entries to Python ints by the lcm of their denominators
(``scale_to_int``), compute in ints, build one Fraction per output entry
(``divide_ints``); a float operand makes a float product (``exact_product``).
``minors``, the k-th compound matrix, computes every exact determinant in
the package by a Laplace expansion in ints that reuses the smaller minors,
on the rows a caller reads (floats take the same expansion).  The exact
inverse is the int adjugate over the int determinant, the exact signature
Descartes' rule on the int characteristic polynomial, and the exact
nullspace the unique reduced echelon form, from Gauss-Jordan on primitive
int rows.
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


def _int_root(a: int, n: int) -> int:
    """Floor of the n-th root of an int a >= 0: Newton's method in ints
    from the power of two above the root, until it no longer falls."""
    x = 1 << -(-a.bit_length() // n)
    while a and (y := ((n - 1) * x + a // x ** (n - 1)) // n) < x:
        x = y
    return x if a else 0


def exact_nth_root(x: Fraction, n: int) -> Fraction:
    """Exact signed n-th root (n odd allows negative x), in ints."""
    if x < 0 and n % 2 == 0:
        raise ValueError("even root of negative value")
    num, den = abs(x.numerator), x.denominator
    rn, rd = _int_root(num, n), _int_root(den, n)
    if rn**n != num or rd**n != den:
        raise ValueError(f"{x} has no exact rational {n}-th root")
    return Fraction(-rn if x < 0 else rn, rd)


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


def inverse(a: np.ndarray) -> np.ndarray:
    """Inverse; in exact mode, for a = m / den with m in ints, den times the
    int adjugate of m over its int determinant, both read off
    ``laplace_minors(m, n - 1)``: its entry [n-1-i, n-1-j] is the minor
    without row i and column j."""
    if not is_exact(a):
        return np.linalg.inv(a)
    n = a.shape[0]
    m, den = scale_to_int(a)
    adj = laplace_minors(m, n - 1)[::-1, ::-1].T * (-1) ** np.add.outer(range(n), range(n))
    d = m[0] @ adj[:, 0]
    if d == 0:
        raise np.linalg.LinAlgError("singular exact matrix")
    return divide_ints(adj * den, d)


def det(a: np.ndarray):
    """Determinant; the top compound matrix in exact mode."""
    if not is_exact(a):
        return float(np.linalg.det(a))
    return minors(a, a.shape[0])[0, 0]


@lru_cache(maxsize=256)  # bounded: row lists follow the nonzero patterns of forms
def _laplace_tables(n: int, k: int, rows: tuple[int, ...] | None):
    """Per level j the rows of the j-minors that the k-minors on the given
    rows (positions among the k-tuples, all if None) read, the j-suffixes of
    those k-tuples: at j = 1 rows of m; above, row (r0,) + rest -> r0 and
    the position of rest on the level below, and column J -> J[p] and the
    position of J without J[p]."""
    tuples = increasing_tuples(n, k)
    want = tuples if rows is None else [tuples[r] for r in rows]
    levels = [sorted({t[k - j :] for t in want}) for j in range(1, k)] + [want]
    tables = [np.array([r[0] for r in levels[0]], dtype=int)]
    for j, (below, level) in enumerate(zip(levels, levels[1:]), 2):
        pos = {t: i for i, t in enumerate(below)}
        col_pos = {t: i for i, t in enumerate(increasing_tuples(n, j - 1))}
        cols = increasing_tuples(n, j)
        first, rest = [r[0] for r in level], [pos[r[1:]] for r in level]
        drop = [[col_pos[c[:p] + c[p + 1 :]] for p in range(j)] for c in cols]
        tables.append(tuple(np.array(x, dtype=int) for x in (first, rest, cols, drop)))
    return tables


def scale_to_int(m) -> tuple[np.ndarray, int]:
    """(d m, d) for an array of ints/Fractions and the lcm d of its
    denominators, d m as an object array of Python ints.  Only nonzero
    entries are read, through their numerator and denominator; a float
    entry is taken exactly, as its Fraction."""
    m, out = np.asarray(m, dtype=object), np.zeros(np.shape(m), dtype=object)
    nz = np.flatnonzero(m)
    vals = [x if type(x) in (int, Fraction) else Fraction(x) for x in m.flat[nz]]
    den = math.lcm(*(x.denominator for x in vals))
    out.flat[nz] = [x.numerator * (den // x.denominator) for x in vals]
    return out, den


def divide_ints(a, den: int):
    """a / den for an object array (or a scalar) of Python ints: one
    Fraction per entry, every zero the one shared Fraction(0)."""
    zero = Fraction(0)
    return np.frompyfunc(lambda x: Fraction(x, den) if x else zero, 1, 1)(a)


def exact_product(f, *operands):
    """f(*operands) for an f linear in each operand: a float product when an
    operand is a float, else f of the operands scaled to Python ints,
    divided once by the product of the scales."""
    if any(np.asarray(x).dtype.kind == "f" for x in operands):
        return f(*operands)
    scaled = [scale_to_int(x) for x in operands]
    return divide_ints(f(*(m for m, _ in scaled)), math.prod(d for _, d in scaled))


def laplace_minors(m: np.ndarray, k: int, rows=None) -> np.ndarray:
    """``minors`` of a square array of floats or of Python ints (object),
    each level expanded along first rows from the one below: n * 2**(n-1)
    products for one n x n determinant, exact in ints.  Given rows
    (positions among the k-tuples), only those rows of the compound
    matrix, in that order: each level expands only the suffixes they read."""
    if k == 0:
        return np.ones((1 if rows is None else len(rows), 1), dtype=m.dtype)
    first, *levels = _laplace_tables(m.shape[0], k, None if rows is None else tuple(map(int, rows)))
    level = m[first]
    for first, rest, col, drop in levels:
        prod = m[first[:, None, None], col] * level[rest[:, None, None], drop]
        level = prod[..., ::2].sum(axis=-1) - prod[..., 1::2].sum(axis=-1)
    return level


def minors(m: np.ndarray, k: int) -> np.ndarray:
    """k-th compound matrix of a square m: C[i, j] = det m[I_i, J_j] over
    the increasing k-tuples I_i, J_j in lexicographic order, from
    ``laplace_minors``; exact (object) input is scaled to ints by the lcm d
    of its denominators first, and its int minors are divided by d**k."""
    if not is_exact(m):
        return laplace_minors(m, k)
    m, den = scale_to_int(m)
    return divide_ints(laplace_minors(m, k), den**k)


def signature(g: np.ndarray) -> tuple[int, int]:
    """Signature (p, q) of a symmetric matrix by eigenvalue counting, or
    exactly by Descartes' rule: p is the number of sign changes of the
    coefficients c_0 = 1, ..., c_n of det(x - m) for the int-scaled m (a
    positive scale keeps the signature), exact since every root is real.
    Faddeev-LeVerrier gives them in ints: M_1 = 1, c_k = -tr(m M_k) / k,
    M_{k+1} = m M_k + c_k.

    Raises ValueError if the matrix is degenerate: exactly (c_n = 0), or in
    floats with an eigenvalue at or below 1e-10 max(max|eigenvalue|, 1) or
    nan, so p + q is always the dimension.
    """
    n = g.shape[0]
    if is_exact(g):
        m, _ = scale_to_int(g)
        eye = np.identity(n, dtype=int).astype(object)
        c, mk = [1], eye
        for k in range(1, n + 1):
            amk = m @ mk
            c.append(-np.trace(amk) // k)
            mk = amk + c[-1] * eye
        if c[-1] == 0:
            raise ValueError("degenerate exact bilinear form")
        signs = [x > 0 for x in c if x]
        p = sum(a != b for a, b in zip(signs, signs[1:]))
        return p, n - p
    eigs = np.linalg.eigvalsh(np.asarray(g, dtype=float)).tolist()
    cut = 1e-10 * max(max(map(abs, eigs)), 1.0)
    p, q = len([e for e in eigs if e > cut]), len([e for e in eigs if e < -cut])
    if p + q < n:  # nan too
        raise ValueError("degenerate bilinear form")
    return p, q


def rational_nullspace(a: np.ndarray) -> list[np.ndarray]:
    """Deterministic exact nullspace basis of a Fraction matrix.

    Returns vectors in reduced echelon convention: each has a leading 1 in
    a distinct free column, ordered by column index.  Gauss-Jordan runs on
    the int-scaled matrix with each row divided by its gcd, so row i ends
    as a multiple of row i of the reduced echelon form, which is unique.
    """
    m, _ = scale_to_int(a)
    rows, cols = m.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if m[i, c]), None)
        if piv is None:
            continue
        m[[r, piv]] = m[[piv, r]]
        for i in range(rows):
            if i != r and m[i, c]:
                row = m[i] * m[r, c] - m[r] * m[i, c]
                m[i] = row // (math.gcd(*row) or 1)  # a zero row stays
        pivots.append(c)
    basis = []
    for c in (c for c in range(cols) if c not in pivots):
        v = np.full(cols, Fraction(0), dtype=object)
        v[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = Fraction(-m[i, c], m[i, pc])
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
