"""Dense exterior algebra over R^n for n <= 8.

A k-form stores one coefficient per strictly increasing index tuple, in
lexicographic order; every sign in the package flows from sorting index
tuples and counting transpositions, and those product tables live here
alone: ``wedge`` and ``interior`` scatter through cached sign/index
tables, and ``wedge_tensor`` and ``interior_tensor`` hold the same tables
as integer tensors for the coefficient kernels of ``stable`` and
``g2spin7``, which multiply with them through ``contract``.
``derivation_matrix`` builds from them the matrix on k-forms of any
derivation given on 1-forms, D a = sum_l D(e^l) ^ (e_l . a): the CE
differential and the isotropy action of ``homogeneous``.

Coefficients are float64 by default; an exact mode (object arrays of
``fractions.Fraction``) is available for the model identity suite.  Both
modes share one code path: pullbacks and the Gram matrices behind the
pairing and the Hodge star are products with ``linalg.minors``, and
``contract`` with the product tables, each of which picks its kernel
from the dtype.  Exact products skip the zero coefficients of a form.

Vectors are plain 1-d numpy arrays and linear maps are (n, n) matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, prod

import numpy as np

from . import linalg
from .linalg import increasing_tuples
from .errors import DegenerateMetric, DegreeOverflow, DimensionMismatch

__all__ = [
    "KForm",
    "SymBilinear",
    "increasing_tuples",
    "tuple_position",
    "wedge",
    "interior",
    "pullback",
    "hodge",
    "volume_form",
    "embed",
    "restrict",
    "sort_sign",
    "hodge_matrices",
    "wedge_tensor",
    "interior_tensor",
    "contract",
    "derivation_matrix",
]


@lru_cache(maxsize=None)
def _tuple_index(n: int, k: int) -> dict[tuple[int, ...], int]:
    return {t: i for i, t in enumerate(increasing_tuples(n, k))}


def tuple_position(n: int, indices: tuple[int, ...]) -> int:
    return _tuple_index(n, len(indices))[indices]


def sort_sign(indices) -> tuple[int, tuple[int, ...]]:
    """Sign of sorting an arbitrary index sequence; 0 on repeats."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return 0, ()
    inv = sum(1 for i in range(len(idx)) for j in range(i + 1, len(idx)) if idx[i] > idx[j])
    return (-1) ** inv, tuple(sorted(idx))


@dataclass(frozen=True)
class KForm:
    """Alternating k-form with dense coefficients over increasing tuples."""

    dim: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not (1 <= self.dim <= 8):
            raise DimensionMismatch(f"dimension {self.dim} out of range 1..8")
        if not (0 <= self.degree <= self.dim):
            raise DegreeOverflow(f"degree {self.degree} invalid in dimension {self.dim}")
        want = len(increasing_tuples(self.dim, self.degree))
        if self.coeffs.shape != (want,):
            raise ValueError(f"expected {want} coefficients, got {self.coeffs.shape}")
        self.coeffs.setflags(write=False)

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(dim: int, degree: int, exact: bool = False) -> "KForm":
        n = len(increasing_tuples(dim, degree))
        if exact:
            return KForm(dim, degree, np.array([Fraction(0)] * n, dtype=object))
        return KForm(dim, degree, np.zeros(n))

    @staticmethod
    def from_terms(dim: int, degree: int, terms: dict, exact: bool = False) -> "KForm":
        """Build from {index_tuple: coefficient}; tuples are 0-based and
        may be unsorted (signs handled)."""
        out = KForm.zero(dim, degree, exact=exact)
        coeffs = out.coeffs.copy()
        for raw, val in terms.items():
            sign, srt = sort_sign(tuple(raw))
            if sign == 0:
                continue
            v = Fraction(val) if exact else float(val)
            coeffs[tuple_position(dim, srt)] += sign * v
        return KForm(dim, degree, coeffs)

    @staticmethod
    def basis(dim: int, indices, exact: bool = False) -> "KForm":
        return KForm.from_terms(dim, len(tuple(indices)), {tuple(indices): 1}, exact=exact)

    # -- basic queries ------------------------------------------------
    @property
    def exact(self) -> bool:
        return self.coeffs.dtype == object

    def term(self, indices) -> float | Fraction:
        sign, srt = sort_sign(tuple(indices))
        if sign == 0:
            return Fraction(0) if self.exact else 0.0
        return sign * self.coeffs[tuple_position(self.dim, srt)]

    def tuples(self):
        return increasing_tuples(self.dim, self.degree)

    def max_abs(self) -> float:
        if len(self.coeffs) == 0:
            return 0.0
        return float(max(abs(c) for c in self.coeffs))

    def to_float(self) -> "KForm":
        return KForm(self.dim, self.degree, np.asarray(self.coeffs, dtype=float))

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.max_abs() <= tol

    def __call__(self, *vectors) -> float | Fraction:
        """Evaluate on vectors (multilinear, antisymmetric)."""
        if len(vectors) != self.degree:
            raise ValueError(f"need {self.degree} vectors")
        if self.degree == 0:
            return self.coeffs[0]
        v = np.array(vectors)
        total = Fraction(0) if self.exact else 0.0
        for pos, idx in enumerate(self.tuples()):
            c = self.coeffs[pos]
            if c == 0:
                continue
            sub = v[:, list(idx)]
            total += c * (linalg.det(sub.astype(object)) if self.exact else linalg.det(sub))
        return total

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "KForm") -> "KForm":
        self._check_like(other)
        return KForm(self.dim, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other: "KForm") -> "KForm":
        self._check_like(other)
        return KForm(self.dim, self.degree, self.coeffs - other.coeffs)

    def __neg__(self) -> "KForm":
        return KForm(self.dim, self.degree, -self.coeffs)

    def __mul__(self, scalar) -> "KForm":
        if self.exact:
            scalar = Fraction(scalar)
        return KForm(self.dim, self.degree, self.coeffs * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "KForm":
        if self.exact:
            return self * (Fraction(1) / Fraction(scalar))
        return self * (1.0 / scalar)

    def _check_like(self, other: "KForm"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")
        if self.degree != other.degree:
            raise ValueError(f"degree {self.degree} vs {other.degree}")

    def __repr__(self):
        terms = []
        for pos, idx in enumerate(self.tuples()):
            c = self.coeffs[pos]
            if c != 0:
                label = "e" + "".join(str(i + 1) for i in idx) if idx else "1"
                terms.append(f"{c}*{label}")
        body = " + ".join(terms) if terms else "0"
        return f"KForm({self.dim}, {self.degree}: {body})"


@dataclass(frozen=True)
class SymBilinear:
    """Symmetric bilinear form; carrier of the associated metrics."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if m.dtype != object:
            scale = max(float(np.max(np.abs(m))), 1e-300)
            if float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
                raise ValueError("matrix is not symmetric to tolerance")
        else:
            if np.any(m != m.T):
                raise ValueError("exact matrix is not symmetric")
        m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def exact(self) -> bool:
        return self.matrix.dtype == object

    def signature(self) -> tuple[int, int]:
        return linalg.signature(self.matrix)

    def is_nondegenerate(self, tol: float = 1e-10) -> bool:
        try:
            p, q = linalg.signature(self.matrix, tol=tol)
        except ValueError:
            return False
        return p + q == self.dim

    def inverse(self) -> np.ndarray:
        return linalg.inverse(self.matrix)


def volume_form(dim: int, coeff=1, exact: bool = False) -> KForm:
    """Top-degree form coeff * e^{1...n}."""
    out = KForm.zero(dim, dim, exact=exact)
    c = out.coeffs.copy()
    c[0] = Fraction(coeff) if exact else float(coeff)
    return KForm(dim, dim, c)


# -- wedge ------------------------------------------------------------
@lru_cache(maxsize=None)
def _wedge_table(n: int, p: int, q: int):
    """Index/sign table for the wedge of a p-form and q-form in dim n."""
    ptups = increasing_tuples(n, p)
    qtups = increasing_tuples(n, q)
    out_index = _tuple_index(n, p + q)
    ai, bi, oi, sg = [], [], [], []
    for i, a in enumerate(ptups):
        for j, b in enumerate(qtups):
            sign, merged = sort_sign(a + b)
            if sign == 0:
                continue
            ai.append(i)
            bi.append(j)
            oi.append(out_index[merged])
            sg.append(sign)
    return (np.array(ai), np.array(bi), np.array(oi), np.array(sg))


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product a ^ b."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dim {a.dim} vs {b.dim}")
    if a.degree + b.degree > a.dim:
        raise DegreeOverflow(
            f"degree {a.degree}+{b.degree} exceeds dimension {a.dim}"
        )
    exact = a.exact or b.exact
    out = KForm.zero(a.dim, a.degree + b.degree, exact=exact)
    coeffs = out.coeffs.copy()
    ai, bi, oi, sg = _wedge_table(a.dim, a.degree, b.degree)
    if len(ai):
        vals = sg * a.coeffs[ai] * b.coeffs[bi]
        np.add.at(coeffs, oi, vals)
    return KForm(a.dim, a.degree + b.degree, coeffs)


# -- interior product -------------------------------------------------
@lru_cache(maxsize=None)
def _interior_table(n: int, k: int):
    """(input_pos, vector_component, output_pos, sign) quadruples."""
    out_index = _tuple_index(n, k - 1)
    rows = []
    for i, t in enumerate(increasing_tuples(n, k)):
        for p, comp in enumerate(t):
            rest = t[:p] + t[p + 1 :]
            rows.append((i, comp, out_index[rest], (-1) ** p))
    ii, vc, oi, sg = zip(*rows)
    return np.array(ii), np.array(vc), np.array(oi), np.array(sg)


def interior(v, a: KForm) -> KForm:
    """Interior product v . a, i.e. (v . a)(w1,...) = a(v, w1, ...)."""
    v = np.asarray(v)
    if v.shape != (a.dim,):
        raise DimensionMismatch(f"vector of length {v.shape} vs dim {a.dim}")
    if a.degree < 1:
        raise DegreeOverflow("interior product needs degree >= 1")
    out = KForm.zero(a.dim, a.degree - 1, exact=a.exact or v.dtype == object)
    coeffs = out.coeffs.copy()
    ii, vc, oi, sg = _interior_table(a.dim, a.degree)
    np.add.at(coeffs, oi, sg * a.coeffs[ii] * v[vc])
    return KForm(a.dim, a.degree - 1, coeffs)


# -- product tables ----------------------------------------------------
@lru_cache(maxsize=None)
def wedge_tensor(n: int, p: int, q: int) -> np.ndarray:
    """Integer tensor W of the wedge on R^n, (a ^ b)[o] = sum W[o, i, j]
    a[i] b[j] for a p-form a and a q-form b, stored as float64 so that
    float products need no cast.  ``contract(W, b)`` is the matrix of
    a -> a ^ b; ``wedge_tensor(n, p, n - p)[0]`` the top-degree pairing."""
    ai, bi, oi, sg = _wedge_table(n, p, q)
    W = np.zeros((comb(n, p + q), comb(n, p), comb(n, q)))
    W[oi, ai, bi] = sg
    W.setflags(write=False)
    return W


@lru_cache(maxsize=None)
def interior_tensor(n: int, k: int) -> np.ndarray:
    """Integer tensor I of the interior product on k-forms on R^n, stored
    like ``wedge_tensor``: (v . a)[o] = sum I[c, o, i] v[c] a[i], so
    ``I[c]`` is the matrix of a -> e_c . a."""
    ii, vc, oi, sg = _interior_table(n, k)
    I = np.zeros((n, comb(n, k - 1), comb(n, k)))
    I[vc, oi, ii] = sg
    I.setflags(write=False)
    return I


def derivation_matrix(images: np.ndarray, p: int, k: int) -> np.ndarray:
    """Matrix on k-forms on R^n of the derivation D (of either parity) with
    D(e^l) the p-form ``images[:, l]``: D a = sum_l D(e^l) ^ (e_l . a),
    one basis 1-form l at a time.  Fraction images are scaled to ints by
    the lcm d of their denominators, take the same float64 product (exact:
    an entry sums at most n of them) and are divided by d once."""
    n = images.shape[1]
    exact = images.dtype == object
    if exact:
        images, den = linalg.scale_to_int(images)
        images = images.astype(float)
        if n * float(np.max(np.abs(images), initial=0)) >= 2**53:
            raise ValueError("exact derivation images exceed the float64 integer range")
    out = np.zeros((comb(n, k + p - 1), comb(n, k)))
    if 0 < k <= n + 1 - p:
        W, I = wedge_tensor(n, p, k - 1), interior_tensor(n, k)
        for l in range(n):
            if images[:, l].any():
                out += np.tensordot(images[:, l], W, (0, 1)) @ I[l]
    if exact:
        out = np.frompyfunc(lambda x: Fraction(int(x), den), 1, 1)(out)
    out.setflags(write=False)
    return out


def contract(table: np.ndarray, *vectors: np.ndarray):
    """Contract the last axes of a table from ``wedge_tensor`` or
    ``interior_tensor`` (or built from them) with the vectors, the last
    vector with the last axis: ``contract(W, a, b)`` is a ^ b for
    ``W = wedge_tensor(n, p, q)``.  Float vectors take ``table @ v`` or,
    for several, one ``np.einsum``; exact (object) vectors a scatter over
    the nonzero entries, as ``wedge`` does, so no Fraction meets a zero."""
    if len(vectors) == 1 and vectors[0].dtype != object:
        return table @ vectors[0]
    if all(v.dtype != object for v in vectors):
        operands = [x for i, v in enumerate(vectors) for x in (v, [i])]
        return np.einsum(table, [..., *range(len(vectors))], *operands, [...])
    lead = table.shape[: table.ndim - len(vectors)]
    flat = table.reshape((prod(lead),) + table.shape[len(lead) :])
    nz = np.nonzero(flat)
    vals = flat[nz].astype(int).astype(object)
    for v, idx in zip(vectors, nz[1:]):
        vals = vals * v[idx]
    out = np.full(len(flat), Fraction(0), dtype=object)
    np.add.at(out, nz[0], vals)
    return out.reshape(lead)[()]


# -- pullback ---------------------------------------------------------
def pullback(mat: np.ndarray, a: KForm) -> KForm:
    """Pullback (A* a)(v1,...,vk) = a(A v1, ..., A vk)."""
    mat = np.asarray(mat)
    if mat.shape != (a.dim, a.dim):
        raise DimensionMismatch(f"matrix {mat.shape} vs dim {a.dim}")
    if a.exact:
        coeffs = _gram_dot(linalg.minors(linalg.as_exact(mat), a.degree).T, a.coeffs)
        return KForm(a.dim, a.degree, coeffs)
    return KForm(a.dim, a.degree, a.coeffs @ linalg.minors(mat, a.degree))


# -- metric pairing and Hodge star ------------------------------------
def _pairing_matrix(g: SymBilinear, k: int) -> np.ndarray:
    """Gram matrix of the induced metric on k-forms: the k-th compound
    matrix of the inverse metric."""
    return linalg.minors(g.inverse(), k)


def _gram_dot(gram: np.ndarray, v: np.ndarray):
    """gram @ v; exact forms are mostly zero and each Fraction product runs
    a gcd, so in exact mode only the nonzero entries of v are multiplied."""
    if gram.dtype != object and v.dtype != object:
        return gram @ v
    nz = np.flatnonzero(v != 0)
    if len(nz) == 0:
        return np.full(gram.shape[:-1], Fraction(0), dtype=object)[()]
    return gram[..., nz] @ v[nz]


def form_pairing(g: SymBilinear, a: KForm, b: KForm):
    """Induced inner product <a, b>_g on k-forms."""
    a._check_like(b)
    gram = _pairing_matrix(g, a.degree)
    if a.exact or b.exact or linalg.is_exact(gram):
        return _gram_dot(_gram_dot(gram, b.coeffs), a.coeffs)
    return a.coeffs @ gram @ b.coeffs


def hodge(g: SymBilinear, vol: KForm, a: KForm) -> KForm:
    """Hodge star defined by  b ^ star(a) = <b, a>_g vol  for all b."""
    if vol.degree != vol.dim or vol.dim != a.dim or g.dim != a.dim:
        raise DimensionMismatch("volume/metric/form dimensions disagree")
    if vol.is_zero():
        raise DegenerateMetric("volume form vanishes")
    if not g.is_nondegenerate():
        raise DegenerateMetric("metric is degenerate")
    paired = _gram_dot(_pairing_matrix(g, a.degree), a.coeffs)  # <e^J, a> per increasing J
    # e^J ^ star(a) = <e^J, a> vol: read through the top-degree pairing
    top = wedge_tensor(a.dim, a.degree, a.dim - a.degree)[0]
    return KForm(a.dim, a.dim - a.degree, contract(top.T, paired) * vol.coeffs[0])


def hodge_matrices(g: SymBilinear, vol: KForm, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix of <,>_g on k-forms and the matrix of the Hodge star
    on k-forms: ``star @ a.coeffs`` equals ``hodge(g, vol, a).coeffs`` up
    to rounding.  Float metrics only; they and the volume are not re-validated."""
    gram = _pairing_matrix(g, k)
    top = wedge_tensor(g.dim, k, g.dim - k)[0]
    return gram, top.T @ gram * vol.coeffs[0]


# -- index embeddings --------------------------------------------------
def embed(a: KForm, dim: int, index_map=None) -> KForm:
    """Embed into a larger space; index_map[i] = new index of old axis i."""
    if index_map is None:
        index_map = list(range(a.dim))
    out = KForm.zero(dim, a.degree, exact=a.exact)
    coeffs = out.coeffs.copy()
    for pos, t in enumerate(a.tuples()):
        c = a.coeffs[pos]
        if c == 0:
            continue
        new = tuple(index_map[i] for i in t)
        sign, srt = sort_sign(new)
        coeffs[tuple_position(dim, srt)] += sign * c
    return KForm(dim, a.degree, coeffs)


def restrict(a: KForm, indices) -> KForm:
    """Restrict to the subspace spanned by the given axes.

    Coefficients involving other axes are dropped (the pullback under the
    inclusion).
    """
    idx = list(indices)
    back = {old: new for new, old in enumerate(idx)}
    out = KForm.zero(len(idx), a.degree, exact=a.exact)
    coeffs = out.coeffs.copy()
    for pos, t in enumerate(a.tuples()):
        c = a.coeffs[pos]
        if c == 0 or not all(i in back for i in t):
            continue
        coeffs[tuple_position(len(idx), tuple(back[i] for i in t))] += c
    return KForm(len(idx), a.degree, coeffs)
