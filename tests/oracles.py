"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's coefficient-convolution code
paths: forms are treated as multilinear maps and products are expanded
over shuffles, so a bug in the dense tables cannot hide in the tests
that use them.  The finite-difference Jacobians are the exception: they
differentiate the library's own map phi -> *phi, which keeps them
independent of the closed-form derivative they are compared with.
``bareiss_det`` is the elimination the exact determinant used before
``linalg.minors`` took its place.
"""

import itertools
from fractions import Fraction

import numpy as np

from hitchinflow.g2spin7 import seven_structure


def perm_sign(perm) -> int:
    perm = list(perm)
    inv = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return (-1) ** inv


def bareiss_det(a) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = np.array([[Fraction(x) for x in row] for row in a], dtype=object)
    n = m.shape[0]
    sign = Fraction(1)
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k, k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r, k] != 0), None)
            if piv is None:
                return Fraction(0)
            m[[k, piv]] = m[[piv, k]]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i, j] = (m[i, j] * m[k, k] - m[i, k] * m[k, j]) / prev
        prev = m[k, k]
    return sign * m[n - 1, n - 1]


def wedge_eval(a, b, vectors) -> float:
    """(a ^ b)(v_1..v_{p+q}) via the shuffle expansion of the
    determinant convention."""
    p, q = a.degree, b.degree
    total = 0.0
    for perm in itertools.permutations(range(p + q)):
        if list(perm[:p]) != sorted(perm[:p]) or list(perm[p:]) != sorted(perm[p:]):
            continue
        total += (
            perm_sign(perm)
            * float(a(*[vectors[i] for i in perm[:p]]))
            * float(b(*[vectors[i] for i in perm[p:]]))
        )
    return total


def interior_eval(v, a, vectors) -> float:
    """(v . a)(w_1..w_{k-1}) = a(v, w_1, ..)."""
    return float(a(v, *vectors))


def pullback_eval(mat, a, vectors) -> float:
    """(A* a)(v_1..v_k) = a(A v_1, .., A v_k)."""
    return float(a(*[np.asarray(mat, dtype=float) @ np.asarray(v, dtype=float) for v in vectors]))


def basis_vectors(dim: int):
    return [np.eye(dim)[i] for i in range(dim)]


def fd_jacobian(fn, x, h: float) -> np.ndarray:
    """Central-difference Jacobian of a vector map, column by column."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(len(x)):
        step = np.zeros(len(x))
        step[j] = h
        cols.append((np.asarray(fn(x + step)) - np.asarray(fn(x - step))) / (2 * h))
    return np.stack(cols, axis=1)


def fd_star_jacobian(problem, x, h: float) -> np.ndarray:
    """Central-difference Jacobian of the invariant star-coefficient map
    x -> pinv4 @ coeffs(*phi(x)) of a generic-flow problem: 2 n calls to
    seven_structure, independent of the closed-form derivative."""
    _, _, pinv4 = problem.basis(4)

    def star(y):
        s = seven_structure(problem.phi(y))
        assert s.ok, "finite-difference step left the stable orbit"
        return pinv4 @ s.star_phi.coeffs

    return fd_jacobian(star, x, h)


def fd_generic_rhs(state, h: float) -> np.ndarray:
    """Generic-flow velocity solving J xdot = coeffs(d phi) with the
    finite-difference star-Jacobian in place of the closed form."""
    problem = state.problem
    _, _, pinv4 = problem.basis(4)
    jac = fd_star_jacobian(problem, state.x, h)
    return np.linalg.solve(jac, pinv4 @ problem.space.d(state.phi_form()).coeffs)


def relative_gap(a, b) -> float:
    """max |a - b| / max |b| (sup norms)."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b)))
