"""Chevalley-Eilenberg calculus on reductive homogeneous spaces.

Everything is reduced to finite-dimensional linear algebra on the
m-part of a reductive split g = h (+) m: invariant forms are elements
of Lambda^k m* killed by the algebraic h-action, the exterior
derivative uses m-projected brackets,

    (d a)(X_0..X_k) = sum_{i<j} (-1)^{i+j} a([X_i,X_j]_m, X_0..^i..^j..X_k),

and Lie derivatives along m-directions use Cartan's formula in this
complex.  Forms on m are plain KForms whose axis p corresponds to the
basis vector with index split.m[p] of the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import NotClosed
from .forms import (
    KForm,
    increasing_tuples,
    interior,
    interior_tensor,
    sort_sign,
    tuple_position,
    wedge,
)

__all__ = [
    "LieAlgebraPresentation",
    "ReductiveSplit",
    "HomogeneousSpace",
    "InvariantForm",
    "structure_constants",
    "invariant_basis",
    "ce_differential",
    "lie_derivative",
    "pi_project",
    "space",
    "su3_basis",
]


@dataclass(frozen=True)
class LieAlgebraPresentation:
    """Structure constants [e_i, e_j] = sum_k c[k, i, j] e_k."""

    n: int
    c: np.ndarray
    matrices: tuple | None = None

    def __post_init__(self):
        if self.c.shape != (self.n, self.n, self.n):
            raise ValueError("structure constant tensor has wrong shape")
        anti = self.c + np.transpose(self.c, (0, 2, 1))
        if float(np.max(np.abs(anti.astype(float)))) > 1e-12:
            raise ValueError("structure constants are not antisymmetric")
        jac = self.jacobi_residual()
        if jac > 1e-12:
            raise ValueError(f"Jacobi identity fails, residual {jac}")
        self.c.setflags(write=False)

    @property
    def exact(self) -> bool:
        return self.c.dtype == object

    def jacobi_residual(self) -> float:
        c = self.c.astype(float)
        # sum_m c[m,i,j] c[l,m,k] + cyclic(i,j,k)
        t1 = np.einsum("mij,lmk->lijk", c, c)
        res = t1 + np.einsum("mjk,lmi->lijk", c, c) + np.einsum("mki,lmj->lijk", c, c)
        return float(np.max(np.abs(res)))


@dataclass(frozen=True)
class ReductiveSplit:
    """Index sets of the isotropy subalgebra h and its complement m."""

    h: tuple[int, ...]
    m: tuple[int, ...]


def check_reductive(p: LieAlgebraPresentation, s: ReductiveSplit, tol: float = 1e-12) -> bool:
    """[h, m] subset of m: no h-components in mixed brackets."""
    c = p.c.astype(float)
    for x in s.h:
        for y in s.m:
            for k in s.h:
                if abs(c[k, x, y]) > tol:
                    return False
    return True


def structure_constants(matrices, rationalize: bool = True) -> LieAlgebraPresentation:
    """Recover structure constants from a list of defining matrices.

    The commutator of each pair is solved against the span of the basis;
    raises NotClosed when a commutator leaves the span (residual above
    1e-10 relative).  With rationalize=True, constants that are close to
    small rationals are snapped and returned exactly.
    """
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    n = len(mats)
    basis = np.stack([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats], axis=1)
    if np.linalg.matrix_rank(basis, tol=1e-10) < n:
        raise ValueError("matrices are linearly dependent")
    scale = max(np.max(np.abs(basis)), 1e-30)
    c = np.zeros((n, n, n))
    for i in range(n):
        for j in range(i + 1, n):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            rhs = np.concatenate([comm.real.ravel(), comm.imag.ravel()])
            coef, *_ = np.linalg.lstsq(basis, rhs, rcond=None)
            resid = np.max(np.abs(basis @ coef - rhs))
            if resid > 1e-10 * max(scale, np.max(np.abs(rhs)), 1.0):
                raise NotClosed(f"commutator [e_{i+1}, e_{j+1}] leaves the span")
            c[:, i, j] = coef
            c[:, j, i] = -coef
    if rationalize:
        cr = np.empty((n, n, n), dtype=object)
        flat_in, flat_out = c.ravel(), cr.ravel()
        for idx, v in enumerate(flat_in):
            fr = Fraction(v).limit_denominator(64)
            if abs(float(fr) - v) > 1e-9:
                return LieAlgebraPresentation(n, c, tuple(mats))
            flat_out[idx] = fr
        return LieAlgebraPresentation(n, cr, tuple(mats))
    return LieAlgebraPresentation(n, c, tuple(mats))


@dataclass(frozen=True)
class HomogeneousSpace:
    """A named reductive pair with cached invariant-calculus operators."""

    name: str
    algebra: LieAlgebraPresentation
    split: ReductiveSplit
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if not check_reductive(self.algebra, self.split):
            raise ValueError(f"split of '{self.name}' is not reductive")

    @property
    def mdim(self) -> int:
        return len(self.split.m)

    # -- projected bracket tensor on m --------------------------------
    def _bracket_m(self, exact: bool) -> np.ndarray:
        key = ("bm", exact)
        if key not in self._cache:
            m = self.split.m
            c = self.algebra.c if (exact and self.algebra.exact) else self.algebra.c.astype(float)
            bm = c[np.ix_(m, m, m)]
            self._cache[key] = bm
        return self._cache[key]

    def d_matrix(self, k: int, exact: bool = False) -> np.ndarray:
        """Matrix of the CE differential Lambda^k m* -> Lambda^{k+1} m*."""
        key = ("d", k, exact)
        if key not in self._cache:
            nm = self.mdim
            bm = self._bracket_m(exact)
            tin = increasing_tuples(nm, k)
            tout = increasing_tuples(nm, k + 1)
            D = np.zeros((len(tout), len(tin)), dtype=object if exact else float)
            if exact:
                D = D + Fraction(0)
            for o, T in enumerate(tout):
                for a in range(k + 1):
                    for b in range(a + 1, k + 1):
                        rest = tuple(T[p] for p in range(k + 1) if p not in (a, b))
                        sgn_ab = (-1) ** (a + b)
                        for l in range(nm):
                            cab = bm[l, T[a], T[b]]
                            if cab == 0 or l in rest:
                                continue
                            s, srt = sort_sign((l,) + rest)
                            D[o, tuple_position(nm, srt)] += sgn_ab * cab * s
            D.setflags(write=False)
            self._cache[key] = D
        return self._cache[key]

    def h_action_matrix(self, hpos: int, k: int, exact: bool = False) -> np.ndarray:
        """Coadjoint action of the hpos-th h-generator on Lambda^k m*."""
        key = ("h", hpos, k, exact)
        if key not in self._cache:
            nm = self.mdim
            hidx = self.split.h[hpos]
            c = self.algebra.c if (exact and self.algebra.exact) else self.algebra.c.astype(float)
            # ad[l, j] = component along m[l] of [h, m[j]]
            ad = c[np.ix_(self.split.m, [hidx], self.split.m)][:, 0, :]
            self._cache[key] = _coadjoint_matrix(ad, nm, k, exact)
        return self._cache[key]

    def lie_matrix(self, mpos: int, k: int) -> np.ndarray:
        """Algebraic Lie derivative along the mpos-th m-generator, as a
        matrix on Lambda^k m* (Cartan formula in the CE complex)."""
        key = ("lie", mpos, k)
        if key not in self._cache:
            iota = lambda j: interior_tensor(self.mdim, j)[mpos]
            term1 = iota(k + 1) @ self.d_matrix(k) if k < self.mdim else 0.0
            term2 = self.d_matrix(k - 1) @ iota(k) if k > 0 else 0.0
            self._cache[key] = term1 + term2
        return self._cache[key]

    def d(self, form: KForm) -> KForm:
        D = self.d_matrix(form.degree, exact=form.exact and self.algebra.exact)
        return KForm(form.dim, form.degree + 1, D @ form.coeffs)

    def invariant_projector_nullspace(self, k: int) -> list[np.ndarray]:
        key = ("inv", k)
        if key not in self._cache:
            if not self.split.h:
                nm = self.mdim
                dim = len(increasing_tuples(nm, k))
                basis = [linalg.as_exact(np.eye(dim, dtype=int)[i]) for i in range(dim)]
                self._cache[key] = basis
            else:
                mats = [
                    self.h_action_matrix(p, k, exact=self.algebra.exact)
                    for p in range(len(self.split.h))
                ]
                stacked = np.concatenate(mats, axis=0)
                self._cache[key] = linalg.rational_nullspace(stacked)
        return self._cache[key]


def _coadjoint_matrix(ad: np.ndarray, nm: int, k: int, exact: bool) -> np.ndarray:
    """Matrix of alpha -> -sum_positions alpha(..., ad(Y_pos), ...)."""
    tups = increasing_tuples(nm, k)
    L = np.zeros((len(tups), len(tups)), dtype=object if exact else float)
    if exact:
        L = L + Fraction(0)
    for row, T in enumerate(tups):
        for pos in range(k):
            for l in range(nm):
                a = ad[l, T[pos]]
                if a == 0:
                    continue
                replaced = T[:pos] + (l,) + T[pos + 1 :]
                s, srt = sort_sign(replaced)
                if s == 0:
                    continue
                L[row, tuple_position(nm, srt)] += -a * s
    return L


@dataclass(frozen=True)
class InvariantForm:
    """A form on m tagged with its homogeneous space.

    Invariance under the algebraic h-action is verified at construction
    (residual below 1e-12 relative).
    """

    form: KForm
    space: HomogeneousSpace

    def __post_init__(self):
        if self.form.dim != self.space.mdim:
            raise ValueError("form dimension does not match dim(m)")
        res = invariance_residual(self.form, self.space)
        if res > 1e-12 * max(self.form.max_abs(), 1e-30):
            raise ValueError(f"form is not h-invariant, residual {res}")

    @property
    def degree(self) -> int:
        return self.form.degree


def invariance_residual(form: KForm, sp: HomogeneousSpace) -> float:
    res = 0.0
    for p in range(len(sp.split.h)):
        L = sp.h_action_matrix(p, form.degree, exact=False)
        res = max(res, float(np.max(np.abs(L @ np.asarray(form.coeffs, dtype=float)))))
    return res


def invariant_basis(p: LieAlgebraPresentation, s: ReductiveSplit, k: int) -> list[InvariantForm]:
    """Basis of h-invariant k-forms on m, deterministically ordered.

    Computed as the exact rational nullspace of the stacked h-actions;
    the reduced-echelon convention makes the ordering reproducible.
    """
    sp = _as_space(p, s)
    vecs = sp.invariant_projector_nullspace(k)
    out = []
    for v in vecs:
        coeffs = np.array([float(x) for x in v])
        out.append(InvariantForm(KForm(sp.mdim, k, coeffs), sp))
    return out


@lru_cache(maxsize=None)
def _space_cache(name: str) -> HomogeneousSpace:
    return _build_space(name)


def _as_space(p: LieAlgebraPresentation, s: ReductiveSplit) -> HomogeneousSpace:
    # reuse registered spaces when the presentation came from the registry
    for name in _REGISTRY:
        sp = space(name)
        if sp.algebra is p and sp.split == s:
            return sp
    return HomogeneousSpace("adhoc", p, s)


def ce_differential(alpha: InvariantForm) -> InvariantForm:
    """Chevalley-Eilenberg differential of an invariant form."""
    return InvariantForm(alpha.space.d(alpha.form), alpha.space)


def lie_derivative(x, alpha: InvariantForm) -> InvariantForm:
    """Lie derivative along an m-vector via Cartan's formula.

    x may be an index into the m-basis or a component vector on m.
    """
    sp = alpha.space
    nm = sp.mdim
    if np.isscalar(x):
        vec = np.zeros(nm)
        vec[int(x)] = 1.0
    else:
        vec = np.asarray(x, dtype=float)
    f = alpha.form.to_float()
    term1 = interior(vec, sp.d(f))
    if f.degree >= 1:
        term2 = sp.d(interior(vec, f))
        out = term1 + term2
    else:
        out = term1
    return InvariantForm(out, sp)


def pi_project(alpha: InvariantForm | KForm, e_phi_index: int) -> InvariantForm | KForm:
    """Projection pi(a) = a - e^phi ^ (e_phi . a) onto forms annihilating
    the e_phi direction (an index into the m-basis)."""
    form = alpha.form if isinstance(alpha, InvariantForm) else alpha
    if form.degree == 0:
        return alpha
    nm = form.dim
    v = np.zeros(nm, dtype=object if form.exact else float)
    v[e_phi_index] = Fraction(1) if form.exact else 1.0
    ephi = KForm.basis(nm, [e_phi_index], exact=form.exact)
    out = form - wedge(ephi, interior(v, form))
    if isinstance(alpha, InvariantForm):
        return InvariantForm(out, alpha.space)
    return out


# -- registry -----------------------------------------------------------
def su3_basis() -> list[np.ndarray]:
    """The standard su(3) basis in the defining representation."""

    def E(i, j):
        m = np.zeros((3, 3), dtype=complex)
        m[i - 1, j - 1] = 1.0
        return m

    return [
        E(1, 2) - E(2, 1),
        1j * E(1, 2) + 1j * E(2, 1),
        E(1, 3) - E(3, 1),
        1j * E(1, 3) + 1j * E(3, 1),
        E(2, 3) - E(3, 2),
        1j * E(2, 3) + 1j * E(3, 2),
        0.5j * E(1, 1) - 0.5j * E(2, 2),
        1j * E(1, 1) + 1j * E(2, 2) - 2j * E(3, 3),
    ]


def _zero_presentation(n: int) -> LieAlgebraPresentation:
    c = np.empty((n, n, n), dtype=object)
    c[...] = Fraction(0)
    return LieAlgebraPresentation(n, c)


def _flat7_presentation() -> LieAlgebraPresentation:
    """R^6 x| u(1): e7 rotates the (e1, e2) plane, [e7,e1] = -e2."""
    c = np.empty((7, 7, 7), dtype=object)
    c[...] = Fraction(0)
    c[1, 6, 0] = Fraction(-1)
    c[1, 0, 6] = Fraction(1)
    c[0, 6, 1] = Fraction(1)
    c[0, 1, 6] = Fraction(-1)
    return LieAlgebraPresentation(7, c)


def _build_space(name: str) -> HomogeneousSpace:
    if name == "n11":
        p = structure_constants(su3_basis())
        return HomogeneousSpace("n11", p, ReductiveSplit(h=(7,), m=tuple(range(7))))
    if name == "flag":
        p = structure_constants(su3_basis())
        return HomogeneousSpace("flag", p, ReductiveSplit(h=(6, 7), m=tuple(range(6))))
    if name == "abelian7":
        return HomogeneousSpace(
            "abelian7", _zero_presentation(7), ReductiveSplit(h=(), m=tuple(range(7)))
        )
    if name == "flat7":
        return HomogeneousSpace(
            "flat7", _flat7_presentation(), ReductiveSplit(h=(), m=tuple(range(7)))
        )
    raise KeyError(f"unknown space '{name}'; registered: {sorted(_REGISTRY)}")


_REGISTRY = ("n11", "flag", "abelian7", "flat7")


def space(name: str) -> HomogeneousSpace:
    """Look up a registered homogeneous space by name."""
    return _space_cache(name)
