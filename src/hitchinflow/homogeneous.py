"""Chevalley-Eilenberg calculus on reductive homogeneous spaces.

Everything is reduced to finite-dimensional linear algebra on the
m-part of a reductive split g = h (+) m: invariant forms are elements
of Lambda^k m* killed by the algebraic h-action, the exterior
derivative uses m-projected brackets,

    (d a)(X_0..X_k) = sum_{i<j} (-1)^{i+j} a([X_i,X_j]_m, X_0..^i..^j..X_k),

and Lie derivatives along m-directions use Cartan's formula in this
complex.  Both d and the h-action are derivations of Lambda m*, fixed by
their values on 1-forms, d e^l = -sum_{i<j} c^l_ij e^ij and
h . e^l = -sum_j c^l_hj e^j; ``forms.derivation_matrix`` turns those
into their matrices on k-forms from the product tables, so every sign
comes from ``forms``.  Forms on m are plain KForms whose axis p
corresponds to the basis vector with index split.m[p] of the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from . import linalg
from .errors import NotClosed
from .forms import KForm, derivation_matrix, interior, interior_tensor, wedge

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

    c: np.ndarray

    def __post_init__(self):
        if self.c.ndim != 3 or len(set(self.c.shape)) > 1:
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


def check_reductive(p: LieAlgebraPresentation, s: ReductiveSplit) -> bool:
    """[h, m] subset of m: no h-components in mixed brackets (to 1e-12)."""
    return not s.h or float(np.max(np.abs(p.c.astype(float)[np.ix_(s.h, s.h, s.m)]))) <= 1e-12


def structure_constants(matrices) -> LieAlgebraPresentation:
    """Recover structure constants from a list of defining matrices.

    The commutator of each pair is solved against the span of the basis;
    raises NotClosed when a commutator leaves the span (residual above
    1e-10 relative).  When every constant is within 1e-9 of a rational
    with denominator at most 64, they are snapped and returned exactly.
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
    snapped = [Fraction(v).limit_denominator(64) for v in c.flat]
    if any(abs(float(fr) - v) > 1e-9 for fr, v in zip(snapped, c.flat)):
        return LieAlgebraPresentation(c)
    return LieAlgebraPresentation(np.array(snapped, dtype=object).reshape(n, n, n))


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

    def memo(self, key, build):
        """The value cached under key, built by build() on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _constants(self, exact: bool) -> np.ndarray:
        return self.algebra.c if (exact and self.algebra.exact) else self.algebra.c.astype(float)

    def d_matrix(self, k: int, exact: bool = False) -> np.ndarray:
        """Matrix of the CE differential Lambda^k m* -> Lambda^{k+1} m*,
        the derivation with d e^l = -sum_{i<j} c^l_ij e^ij on m."""

        def build():
            m, (i, j) = self.split.m, np.triu_indices(self.mdim, 1)
            return derivation_matrix(-self._constants(exact)[np.ix_(m, m, m)][:, i, j].T, 2, k)
        return self.memo(("d", k, exact), build)

    def h_action_matrix(self, hpos: int, k: int, exact: bool = False) -> np.ndarray:
        """Coadjoint action of the hpos-th h-generator on Lambda^k m*, the
        derivation with h . e^l = -sum_j c^l_hj e^j, i.e. -ad(h)^T on m*."""

        def build():
            m = self.split.m
            ad = self._constants(exact)[np.ix_(m, [self.split.h[hpos]], m)][:, 0, :]
            return derivation_matrix(-ad.T, 1, k)
        return self.memo(("h", hpos, k, exact), build)

    def lie_matrix(self, mpos: int, k: int) -> np.ndarray:
        """Algebraic Lie derivative along the mpos-th m-generator, as a
        matrix on Lambda^k m* (Cartan formula in the CE complex)."""

        def build():
            iota = lambda j: interior_tensor(self.mdim, j)[mpos]
            term1 = iota(k + 1) @ self.d_matrix(k) if k < self.mdim else 0.0
            term2 = self.d_matrix(k - 1) @ iota(k) if k > 0 else 0.0
            return term1 + term2
        return self.memo(("lie", mpos, k), build)

    def d(self, form: KForm) -> KForm:
        D = self.d_matrix(form.degree, exact=form.exact and self.algebra.exact)
        return KForm(form.dim, form.degree + 1, D @ form.coeffs)

    def invariant_projector_nullspace(self, k: int) -> list[np.ndarray]:
        """Exact nullspace of the stacked h-actions on Lambda^k m* (every
        k-form when h = 0); raises ValueError when h acts by float constants,
        which an exact nullspace would read as rationals."""
        if self.split.h and not self.algebra.exact:
            raise ValueError(f"'{self.name}': invariant forms need exact structure constants")

        def build():
            mats = [self.h_action_matrix(p, k, exact=True) for p in range(len(self.split.h))]
            return linalg.rational_nullspace(np.array(mats).reshape(-1, comb(self.mdim, k)))
        return self.memo(("inv", k), build)


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
        if not res <= 1e-12 * max(self.form.max_abs(), 1e-30):  # or nan
            raise ValueError(f"form is not h-invariant, residual {res}")

    @property
    def degree(self) -> int:
        return self.form.degree


def invariance_residual(form: KForm, sp: HomogeneousSpace) -> float:
    coeffs = np.asarray(form.coeffs, dtype=float)
    return max((float(np.max(np.abs(sp.h_action_matrix(p, form.degree) @ coeffs)))
                for p in range(len(sp.split.h))), default=0.0)


def invariant_basis(sp: HomogeneousSpace, k: int) -> list[InvariantForm]:
    """Basis of h-invariant k-forms on m, deterministically ordered.

    Computed as the exact rational nullspace of the stacked h-actions;
    the reduced-echelon convention makes the ordering reproducible.
    """
    return [
        InvariantForm(KForm(sp.mdim, k, np.array([float(x) for x in v])), sp)
        for v in sp.invariant_projector_nullspace(k)
    ]


def ce_differential(alpha: InvariantForm) -> InvariantForm:
    """Chevalley-Eilenberg differential of an invariant form."""
    return InvariantForm(alpha.space.d(alpha.form), alpha.space)


def lie_derivative(mpos: int, alpha: InvariantForm) -> InvariantForm:
    """Lie derivative along the mpos-th m-generator: ``lie_matrix`` on the
    float coefficients."""
    sp, k = alpha.space, alpha.degree
    L = sp.lie_matrix(mpos, k)
    return InvariantForm(KForm(sp.mdim, k, L @ alpha.form.to_float().coeffs), sp)


def pi_project(form: KForm, e_phi_index: int) -> KForm:
    """Projection pi(a) = a - e^phi ^ (e_phi . a) onto forms annihilating
    the e_phi direction (an index into the m-basis)."""
    if form.degree == 0:
        return form
    ephi = KForm.basis(form.dim, [e_phi_index], exact=form.exact)
    return form - wedge(ephi, interior(ephi.coeffs, form))


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
    return LieAlgebraPresentation(np.full((n, n, n), Fraction(0), dtype=object))


def _flat7_presentation() -> LieAlgebraPresentation:
    """R^6 x| u(1): e7 rotates the (e1, e2) plane, [e7,e1] = -e2."""
    c = np.full((7, 7, 7), Fraction(0), dtype=object)
    c[1, 6, 0] = Fraction(-1)
    c[1, 0, 6] = Fraction(1)
    c[0, 6, 1] = Fraction(1)
    c[0, 1, 6] = Fraction(-1)
    return LieAlgebraPresentation(c)


@lru_cache(maxsize=None)
def space(name: str) -> HomogeneousSpace:
    """Look up a registered homogeneous space by name: n11, flag,
    abelian7 or flat7."""
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
    raise KeyError(f"unknown space '{name}'; registered: ['abelian7', 'flag', 'flat7', 'n11']")
