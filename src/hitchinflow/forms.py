"""Dense exterior algebra over R^n for n <= 8.

A k-form stores one coefficient per strictly increasing index tuple, in
lexicographic order.  Every product sign in the package comes from the
tables here: ``wedge_tensor`` and ``interior_tensor`` are integer tensors
built from the parities of index bitmasks, and ``contract`` is the one
product with them, for ``wedge`` and ``interior`` as for the coefficient
kernels of ``stable`` and ``g2spin7``.
``derivation_matrix`` builds from them the matrix on k-forms of any
derivation given on 1-forms, D a = sum_l D(e^l) ^ (e_l . a): the CE
differential and the isotropy action of ``homogeneous``.

Coefficients are float64 by default; an exact mode (object arrays of
``fractions.Fraction``) is available for the model identity suite.
A float pullback contracts the form's antisymmetric tensor with the matrix
one axis at a time; the pairing and the Hodge star pull back by g^-1, whose
compound matrix is the Gram.
A product or sum is exact only when no operand is a float (``KForm * scalar``
too).  Exact products run in Python ints over one common denominator, read
only a form's nonzero coefficients and build one Fraction per output entry.

Vectors are plain 1-d numpy arrays and linear maps are (n, n) matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
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
    "wedge_tensor",
    "interior_tensor",
    "contract",
    "derivation_matrix",
]


def tuple_position(n: int, indices: tuple[int, ...]) -> int:
    """Position of an increasing tuple among those of its length on R^n."""
    return int(_positions(n)[sum(1 << i for i in indices)])


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
        """The largest |coefficient| as a float; nan when any is nan."""
        return float(np.max(np.abs(np.asarray(self.coeffs, dtype=float))))

    def to_float(self) -> "KForm":
        return KForm(self.dim, self.degree, np.asarray(self.coeffs, dtype=float))

    def is_zero(self) -> bool:
        """Every coefficient is exactly 0 (False when any is nan)."""
        return not self.coeffs.any()

    def __call__(self, *vectors) -> float | Fraction:
        """Evaluate on vectors (multilinear, antisymmetric)."""
        if len(vectors) != self.degree:
            raise ValueError(f"need {self.degree} vectors")
        if self.degree == 0:
            return self.coeffs[0]
        exact = self.exact and all(np.asarray(x).dtype.kind != "f" for x in vectors)  # as products
        v, total = np.array(vectors, dtype=object if exact else float), Fraction(0) if exact else 0.0
        for c, idx in zip(self.coeffs if exact else self.to_float().coeffs, self.tuples()):
            if c != 0:
                total += c * linalg.det(v[:, list(idx)])
        return total

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "KForm") -> "KForm":
        return KForm(self.dim, self.degree, np.add(*self._operands(other)))

    def __sub__(self, other: "KForm") -> "KForm":
        return KForm(self.dim, self.degree, np.subtract(*self._operands(other)))

    def __neg__(self) -> "KForm":
        return KForm(self.dim, self.degree, -self.coeffs)

    def __mul__(self, scalar) -> "KForm":
        scalar = scalar.item() if isinstance(scalar, np.generic) else scalar  # numpy ints wrap
        if self.exact and np.asarray(scalar).dtype.kind != "f":
            return KForm(self.dim, self.degree, self.coeffs * Fraction(scalar))
        return KForm(self.dim, self.degree, np.asarray(self.coeffs, dtype=float) * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "KForm":
        scalar = scalar.item() if isinstance(scalar, np.generic) else scalar
        exact = self.exact and np.asarray(scalar).dtype.kind != "f"
        return self * (1 / Fraction(scalar) if exact else 1.0 / scalar)

    def _check_like(self, other: "KForm"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")
        if self.degree != other.degree:
            raise ValueError(f"degree {self.degree} vs {other.degree}")

    def _operands(self, other: "KForm"):
        """Both forms' coefficients, as floats unless both are exact."""
        self._check_like(other)
        dtype = object if self.exact and other.exact else float
        return self.coeffs.astype(dtype, copy=False), other.coeffs.astype(dtype, copy=False)

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
            if not scale < np.inf:  # nan too
                raise ValueError("matrix has a non-finite entry")
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

    @cached_property
    def _signature(self) -> tuple[int, int] | ValueError:  # computed once
        try:
            return linalg.signature(self.matrix)
        except ValueError as exc:
            return exc

    def signature(self) -> tuple[int, int]:
        if isinstance(self._signature, ValueError):
            raise ValueError(*self._signature.args)
        return self._signature

    def is_nondegenerate(self) -> bool:
        return not isinstance(self._signature, ValueError)

    @cached_property
    def _inverse(self) -> np.ndarray:  # computed once, read-only
        inv = linalg.inverse(self.matrix)
        inv.setflags(write=False)
        return inv

    def inverse(self) -> np.ndarray:
        return self._inverse


def volume_form(dim: int, coeff=1, exact: bool = False) -> KForm:
    """Top-degree form coeff * e^{1...n}."""
    out = KForm.zero(dim, dim, exact=exact)
    c = out.coeffs.copy()
    c[0] = Fraction(coeff) if exact else float(coeff)
    return KForm(dim, dim, c)


# -- product tables ----------------------------------------------------
# bits set in each byte: numpy 1.24 has no np.bitwise_count, and n <= 8
_POPCOUNT = np.array([bin(x).count("1") for x in range(256)])


@lru_cache(maxsize=None)
def _masks(n: int, k: int) -> np.ndarray:
    """Bitmask of each increasing k-tuple on R^n, in lexicographic order."""
    return (1 << np.array(increasing_tuples(n, k), dtype=int).reshape(comb(n, k), k)).sum(axis=1)


@lru_cache(maxsize=None)
def _positions(n: int) -> np.ndarray:
    """Position of each increasing tuple on R^n among those of its degree,
    indexed by the tuple's bitmask."""
    pos = np.zeros(2**n, dtype=int)
    for k in range(n + 1):
        pos[_masks(n, k)] = np.arange(comb(n, k))
    return pos


@lru_cache(maxsize=None)
def wedge_tensor(n: int, p: int, q: int) -> np.ndarray:
    """Integer tensor W of the wedge on R^n, (a ^ b)[o] = sum W[o, i, j]
    a[i] b[j] for a p-form a and a q-form b, stored as float64 so that
    float products need no cast.  ``contract(W, b)`` is the matrix of
    a -> a ^ b; ``wedge_tensor(n, p, n - p)[0]`` the top-degree pairing.
    e^I ^ e^J has the sign of the parity of the pairs i in I, j in J with
    i > j, counted on bitmasks."""
    a, b = _masks(n, p)[:, None], _masks(n, q)
    crossings = sum(_POPCOUNT[a >> (j + 1)] * (b >> j & 1) for j in range(n))
    i, j = np.nonzero((a & b) == 0)
    W = np.zeros((comb(n, p + q), comb(n, p), comb(n, q)))
    W[_positions(n)[(a | b)[i, j]], i, j] = 1 - 2 * (crossings[i, j] & 1)
    W.setflags(write=False)
    return W


@lru_cache(maxsize=None)
def interior_tensor(n: int, k: int) -> np.ndarray:
    """Integer tensor I of the interior product on k-forms on R^n, stored
    like ``wedge_tensor``: (v . a)[o] = sum I[c, o, i] v[c] a[i], so
    ``I[c]`` is the matrix of a -> e_c . a.  e_c . e^I has the sign of
    the parity of the indices of I below c."""
    m = _masks(n, k)
    c, i = np.nonzero(m >> np.arange(n)[:, None] & 1)
    I = np.zeros((n, comb(n, k - 1), comb(n, k)))
    I[c, _positions(n)[m[i] ^ (1 << c)], i] = 1 - 2 * (_POPCOUNT[m[i] & ((1 << c) - 1)] & 1)
    I.setflags(write=False)
    return I


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product a ^ b."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dim {a.dim} vs {b.dim}")
    if a.degree + b.degree > a.dim:
        raise DegreeOverflow(
            f"degree {a.degree}+{b.degree} exceeds dimension {a.dim}"
        )
    W = wedge_tensor(a.dim, a.degree, b.degree)
    return KForm(a.dim, a.degree + b.degree, contract(W, a.coeffs, b.coeffs))


def interior(v, a: KForm) -> KForm:
    """Interior product v . a, i.e. (v . a)(w1,...) = a(v, w1, ...)."""
    v = np.asarray(v)
    if v.shape != (a.dim,):
        raise DimensionMismatch(f"vector of length {v.shape} vs dim {a.dim}")
    if a.degree < 1:
        raise DegreeOverflow("interior product needs degree >= 1")
    I = interior_tensor(a.dim, a.degree).transpose(1, 0, 2)
    return KForm(a.dim, a.degree - 1, contract(I, v, a.coeffs))


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
    for several, one ``np.einsum``, and so does a product with any float
    vector; exact (object) vectors a scatter of Python int products over
    the nonzero entries, divided once (the rule of ``linalg.exact_product``)."""
    if len(vectors) == 1 and vectors[0].dtype != object:
        return table @ vectors[0]
    exact = [v.dtype == object for v in vectors]
    if not all(exact):
        vectors = [v.astype(float) if e else v for v, e in zip(vectors, exact)]
        operands = [x for i, v in enumerate(vectors) for x in (v, [i])]
        return np.einsum(table, [..., *range(len(vectors))], *operands, [...])
    scaled = [linalg.scale_to_int(v) for v in vectors]
    lead = table.shape[: table.ndim - len(vectors)]
    nzs = [np.flatnonzero(v) for v, _ in scaled]
    sub = table.reshape(-1, *table.shape[len(lead) :])[np.ix_(np.arange(prod(lead)), *nzs)]
    hit = np.nonzero(sub)  # the table entries that meet nonzero vector entries
    vals = sub[hit].astype(int).astype(object)
    for (v, _), nz, idx in zip(scaled, nzs, hit[1:]):
        vals = vals * v[nz[idx]]
    out = np.zeros(len(sub), dtype=object)
    np.add.at(out, hit[0], vals)
    return linalg.divide_ints(out.reshape(lead)[()], prod(d for _, d in scaled))


# -- pullback ---------------------------------------------------------
@lru_cache(maxsize=None)
def _antisymmetrizer(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The signed scatter of a k-form on R^n into its antisymmetric n^k
    tensor: the flat entry of each ordering of every increasing k-tuple, the
    identity first (the first C(n, k) are the tuples), and each sign."""
    tuples = np.array(increasing_tuples(n, k), dtype=int).reshape(comb(n, k), k)
    orders = list(itertools.permutations(range(k)))
    flat = np.concatenate([tuples[:, p] @ n ** np.arange(k - 1, -1, -1) for p in orders])
    signs = np.array([[sort_sign(p)[0]] for p in orders], dtype=float)
    for x in (flat, signs):
        x.setflags(write=False)
    return flat, signs


def pullback(mat: np.ndarray, a: KForm):
    """Pullback (A* a)(v1,...,vk) = a(A v1, ..., A vk), a @ minors(A, k); a
    float matrix or form makes a float product.  Exact ones compute the int
    minors only at a's nonzero coefficients; floats contract a's antisymmetric
    tensor with A one axis at a time (k products of an n^(k-1) x n block), and
    a float stack (..., n, n), k >= 1, gives each matrix's coefficient row."""
    mat, n, k = np.asarray(mat), a.dim, a.degree
    exact = a.exact and mat.dtype.kind != "f"
    if mat.shape[-2:] != (n, n) or exact and mat.ndim != 2:
        raise DimensionMismatch(f"matrix {mat.shape} vs dim {n}")
    if exact:
        (m, den), (v, dv) = linalg.scale_to_int(mat), linalg.scale_to_int(a.coeffs)
        nz = np.flatnonzero(v)
        return KForm(n, k, linalg.divide_ints(v[nz] @ linalg.laplace_minors(m, k, nz), den**k * dv))
    flat, signs = _antisymmetrizer(n, k)
    t = np.zeros(n**k)
    t[flat] = (signs * np.asarray(a.coeffs, dtype=float)).ravel()
    stack, mat_t, idx = mat.shape[:-2], mat.astype(float).swapaxes(-1, -2), flat[: len(a.coeffs)]
    for i in range(k):  # contract the last axis and move the new one first
        t = mat_t @ t.reshape((*stack, -1, n) if i else (-1, n)).swapaxes(-1, -2)
    return t.reshape(*stack, -1)[..., idx] if stack else KForm(n, k, t.ravel()[idx])


# -- metric pairing and Hodge star ------------------------------------
def _gram_dot(g: SymBilinear, a: KForm, exact: bool) -> np.ndarray:
    """The Gram minors(g^-1, k) times a: the pullback by g^-1, as the Gram is
    symmetric, of g's entries as floats unless exact."""
    inv = g.inverse() if exact else linalg.inverse(np.asarray(g.matrix, dtype=float))
    return pullback(inv, a).coeffs


def form_pairing(g: SymBilinear, a: KForm, b: KForm):
    """Induced inner product <a, b>_g on k-forms; as in ``contract``, a
    float operand makes a float product."""
    a._check_like(b)
    exact = g.exact and a.exact and b.exact
    a_gram = _gram_dot(g, a, exact)
    return linalg.exact_product(np.dot, a_gram, b.coeffs) if exact else a_gram @ b.to_float().coeffs


def hodge(g: SymBilinear, vol: KForm, a: KForm) -> KForm:
    """Hodge star defined by  b ^ star(a) = <b, a>_g vol  for all b; as in
    ``contract``, a float operand makes a float product."""
    if vol.degree != vol.dim or vol.dim != a.dim or g.dim != a.dim:
        raise DimensionMismatch("volume/metric/form dimensions disagree")
    if vol.is_zero():
        raise DegenerateMetric("volume form vanishes")
    if not g.is_nondegenerate():
        raise DegenerateMetric("metric is degenerate")
    exact = g.exact and a.exact and vol.exact
    paired = _gram_dot(g, a, exact)  # <e^J, a> per increasing J
    # e^J ^ star(a) = <e^J, a> vol: read through the top-degree pairing;
    # exact, vol's coefficient is one more vector of the int scatter
    top = wedge_tensor(a.dim, a.degree, a.dim - a.degree)[0]
    if exact:
        return KForm(a.dim, a.dim - a.degree, contract(top.T[:, :, None], paired, vol.coeffs))
    return KForm(a.dim, a.dim - a.degree, contract(top.T, paired) * float(vol.coeffs[0]))


# -- index embeddings --------------------------------------------------
@lru_cache(maxsize=None)
def _index_map(n: int, k: int, dim: int, axes: tuple) -> np.ndarray:
    """Rows src, dst, sign: coefficient src of a k-form on R^n moves to dst
    on R^dim with the sign of sorting when old axis i becomes axes[i];
    terms with an axis that maps to None drop."""
    moved = []
    for pos, t in enumerate(increasing_tuples(n, k)):
        if all(axes[i] is not None for i in t):
            sign, srt = sort_sign(axes[i] for i in t)
            moved.append((pos, tuple_position(dim, srt), sign))
    table = np.array(moved, dtype=int).reshape(-1, 3).T
    table.setflags(write=False)
    return table


def _reindex(a: KForm, dim: int, new_axis: dict) -> KForm:
    """The form on R^dim with each e^I of a moved to e^{new_axis[I]}, the
    sign of sorting included; terms with an axis not in new_axis drop.
    Floats read 0.0 + sign * a[src] at dst, so a zero lands as +0.0."""
    src, dst, sign = _index_map(a.dim, a.degree, dim, tuple(new_axis.get(i) for i in range(a.dim)))

    def move(c):  # np.add.at sums terms that a non-injective map sends to one dst
        out = np.zeros(comb(dim, a.degree), dtype=c.dtype)
        np.add.at(out, dst, sign * c[src])
        return out

    return KForm(dim, a.degree, linalg.exact_product(move, a.coeffs))


def embed(a: KForm, dim: int, index_map=None) -> KForm:
    """Embed into a larger space; index_map[i] = new index of old axis i."""
    return _reindex(a, dim, dict(enumerate(range(a.dim) if index_map is None else index_map)))


def restrict(a: KForm, indices) -> KForm:
    """Restrict to the subspace spanned by the given axes, new axis j
    being old axis indices[j]: coefficients involving other axes are
    dropped (the pullback under the inclusion)."""
    idx = list(indices)
    return _reindex(a, len(idx), {old: new for new, old in enumerate(idx)})
