"""Stable-form machinery on 6-dimensional spaces.

A stable 3-form rho determines an endomorphism K via

    K(v) . e^{1..6} = (v . rho) ^ rho

under the isomorphism Lambda^5 V* ~ V (x) Lambda^6 V*, always against
the one reference volume e^{1..6} (Hitchin, arXiv:math/0010054).  Its
normalized version J = K / sqrt(|lambda|), lambda = tr(K^2)/6, squares
to -Id on the complex-type orbit (lambda < 0) and +Id on the
para-complex orbit (lambda > 0).  Together with a compatible 2-form
omega this produces the associated metric g(v, w) solving
omega(v, w) = g(v, J w).

Sign conventions: K (hence J) is fixed by the reference volume, so an
orientation-reversing change of frame flips J.  Operations on *pairs*
(omega, rho) resolve the resulting Z_2 ambiguity through the
normalization, picking the J with J*rho ^ rho a positive multiple of
(2/3) omega^3; this is the choice under which the standard model values
hold on both orientation components of the orbit, with metric signature
in {(6,0), (2,4), (3,3)}.

One core serves floats and Fractions alike, on integer tables built from
the ``forms`` product tensors: K is quadratic in rho, and
``pair_normalization`` is the one Z_2 sign rule, with J*rho = (sign lambda
/ (2 sqrt|lambda|)) P grad lambda (P the pairing of 3-forms; no minors).
``classify_coeffs`` is the one structure rule, which ``classify_pair`` and
the flow's step check run; ``wedge_solution`` the one closed-form inverse
of alpha -> alpha ^ omega.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import DegenerateOmega, UnstableForm
from .forms import KForm, SymBilinear, contract, interior_tensor, wedge, wedge_tensor

__all__ = [
    "StructureClass", "SixStructureClass", "k_endomorphism", "lambda_invariant", "assoc_J",
    "assoc_metric", "pair_structure", "pair_coeffs", "pair_normalization", "classify_pair",
    "classify_coeffs", "signature_class", "theta_deform", "iota", "solve_wedge_omega",
    "solve_wedge_coeffs", "wedge_solution", "model_pair", "omega_cube", "k_table", "dual_table",
    "iota_table",
]

def model_pair(name: str, exact: bool = False) -> tuple[KForm, KForm]:
    """Model (omega, rho) pairs: 'su3', 'su12', or 'sl3r'."""
    a, b = {"su3": (1, -1), "su12": (-1, -1), "sl3r": (1, 1)}[name]  # KeyError for others
    return (KForm.from_terms(6, 2, {(0, 1): a, (2, 3): a, (4, 5): 1}, exact=exact),
            KForm.from_terms(6, 3, {(0, 2, 4): 1, (0, 3, 5): b, (1, 2, 5): b, (1, 3, 4): b},
                             exact=exact))


class StructureClass(Enum):
    SU3 = "SU3"
    SU12 = "SU12"
    SL3R = "SL3R"
    NOT_A_STRUCTURE = "NotAStructure"


@dataclass(frozen=True)
class SixStructureClass:
    tag: StructureClass
    diagnostics: str | None = None
    lambda_value: float | Fraction | None = None
    signature: tuple[int, int] | None = None
    metric: SymBilinear | None = None
    J: np.ndarray | None = None
    jrho: KForm | None = None  # J*rho

    @property
    def ok(self) -> bool:
        return self.tag is not StructureClass.NOT_A_STRUCTURE


@functools.lru_cache(maxsize=None)
def k_table() -> np.ndarray:
    """Integer tensor T with K[i, j] = sum_ab T[i, j, a, b] rho_a rho_b for
    the reference volume e^{1..6}: the 5-form (e_j . rho) ^ rho, read as a
    vector through e_i . vol."""
    vol = interior_tensor(6, 6)[:, :, 0]
    T = np.einsum("io,oxb,jxa->ijab", vol, wedge_tensor(6, 2, 3), interior_tensor(6, 3))
    T.setflags(write=False)
    return T


@functools.lru_cache(maxsize=None)
def dual_table() -> np.ndarray:
    """Integer tensor D with P grad lambda = (contract(D, K.ravel()) @ rho) / 3:
    grad lambda = (1/3) sum_ij K_ji (T + T^t)[i, j] rho for T = k_table(),
    and the signed permutation P = wedge_tensor(6, 3, 3)[0] folded in."""
    T = k_table()
    D = np.einsum("xc,ijcb->xbji", wedge_tensor(6, 3, 3)[0], T + T.transpose(0, 1, 3, 2))
    D = D.reshape(20, 20, 36)
    D.setflags(write=False)
    return D


def _k_matrix(rho: np.ndarray) -> np.ndarray:
    """K from the coefficients of a 3-form on R^6."""
    return contract(k_table(), rho, rho)


def k_endomorphism(rho: KForm) -> np.ndarray:
    """Matrix of K with K(v) (x) e^{1..6} = (v . rho) ^ rho."""
    if rho.dim != 6 or rho.degree != 3:
        raise ValueError("expected a 3-form on a 6-dimensional space")
    return _k_matrix(rho.coeffs)


def _lambda(K: np.ndarray):  # an exact K in ints (linalg.exact_product)
    return linalg.exact_product(lambda a, b: np.trace(a @ b), K, K) / 6


def _max_abs(x: np.ndarray) -> float:
    """max|x| of a nonempty coefficient array as a float: an exact one from
    its largest and smallest entry, which builds no Fraction."""
    if x.dtype == object:
        return max(float(max(x.flat)), -float(min(x.flat)))
    return float(np.abs(x).max())


def _root(lam, size: float):
    """sqrt|lambda| for the lambda of a 3-form rho with max|rho| = size.
    Raises UnstableForm when |lambda| is at or below 1e-12 max|rho|^4
    (OverflowError, before lambda overflows too, when that bound does) or
    is not finite; an exact lambda needs a rational sqrt|lambda|."""
    floor = 1e-12 * max(size, 1e-30) ** 4
    if not abs(lam) < math.inf:
        raise UnstableForm(f"lambda = {lam} is not finite")
    if abs(lam) <= floor:
        raise UnstableForm("lambda ~ 0: form is not stable")
    return linalg.sqrt_scalar(abs(lam))


def _omega_bivector(omega):
    """B = Q(omega, omega), the pair-ordered bivector of omega^2/2 for a
    2-form's coefficients: B[p] = e^p ^ omega^2/2 on e^{1..6}, omega^3 =
    2 <B, omega>, and Q(B, B) = (omega^3 / 6) omega."""
    return contract(wedge_tensor(6, 2, 4)[0], contract(wedge_tensor(6, 2, 2), omega, omega)) / 2


def omega_cube(omega: np.ndarray, B=None):
    """omega^3 on e^{1..6} for a 2-form's coefficients and its bivector B if given."""
    return 2 * (_omega_bivector(omega) if B is None else B).dot(omega)


def _metric_matrix(omega: np.ndarray, J: np.ndarray, sign: int) -> np.ndarray:
    # omega(v, w) = g(v, J w)  =>  G = Omega J^{-1}, with J^{-1} = sign J,
    # symmetrized; exact, in ints over one denominator
    Omega = contract(interior_tensor(6, 2), omega)
    if Omega.dtype == J.dtype == object:
        (o, do), (j, dj) = linalg.scale_to_int(Omega), linalg.scale_to_int(J)
        G = o @ j * sign
        return linalg.divide_ints(G + G.T, 2 * do * dj)
    G = Omega @ (J * sign)
    return (G + G.T) / 2


@functools.lru_cache(maxsize=None)
def _pairing_sign() -> np.ndarray:
    """P = wedge_tensor(6, 3, 3)[0] pairs e^I with its complement, the index
    in reverse lexicographic order: (a P)[j] = sign[j] a[19 - j]."""
    return wedge_tensor(6, 3, 3)[0][::-1].diagonal().copy()


def _jrho_wedge_rho(jrho: np.ndarray, rho: np.ndarray):
    """J*rho ^ rho on e^{1..6}: exact in one int scatter and one Fraction,
    floats by ``np.vdot``, which warns of no overflow (callers refuse inf)."""
    if jrho.dtype == rho.dtype == object:
        return contract(wedge_tensor(6, 3, 3)[0], jrho, rho)
    return float(np.vdot(jrho[::-1] * _pairing_sign(), rho))


def _degenerate(om3, size: float) -> bool:
    """omega^3 = 0 to 1e-12 relative, for omega^3 and max|omega|: a floor
    of its own, as omega^3 is a product of only three skew eigenvalues, it
    guards the wedge solve's division by omega^3, and degenerate runs meet
    their singular end at it."""
    scale = max(size, 1e-30)
    return abs(om3) / scale / scale / scale <= 1e-12  # no power to overflow


_SIX_CLASS = {(6, 0): StructureClass.SU3, (2, 4): StructureClass.SU12, (3, 3): StructureClass.SL3R}


def signature_class(signature: tuple[int, int], sign: int) -> StructureClass:
    """The class of a pair from the signature of its metric and the sign
    of lambda: SU3 at (6,0) and SU12 at (2,4) with lambda < 0, SL3R at
    (3,3) with lambda > 0, and NOT_A_STRUCTURE otherwise."""
    tag = _SIX_CLASS.get(signature, StructureClass.NOT_A_STRUCTURE)
    return tag if (tag is StructureClass.SL3R) == (sign > 0) else StructureClass.NOT_A_STRUCTURE


def classify_coeffs(omega: np.ndarray, rho: np.ndarray, J, sign: int, jrho, om3=None, G=None,
                    size=None):
    """The six-dimensional structure rule on the coefficients (floats or
    Fractions) of a 2-form and a 3-form on R^6, given J, the sign of lambda
    (0 when rho is not stable) and J*rho, both None when irrational (an
    exact K with no rational sqrt|lambda|), and omega^3, the metric G
    with omega(v, w) = g(v, J w) and max|omega| if the caller has them
    (given G, J is not read).  In this order: omega^3 finite and != 0
    (1e-12 relative), rho stable, omega ^ rho = 0 and J*rho ^ rho = (2/3)
    omega^3 (1e-10 relative), then ``signature_class`` of G.  Returns (tag, reason,
    signature, G): reason None for a structure, signature and G None when
    not computed."""
    fail = StructureClass.NOT_A_STRUCTURE
    om3 = omega_cube(omega) if om3 is None else om3
    if not abs(om3) < math.inf:
        return fail, "omega^3 is out of float range", None, None
    if _degenerate(om3, size := _max_abs(omega) if size is None else size):
        return fail, "omega is degenerate (omega^3 = 0)", None, None
    if not sign:
        return fail, "rho is not stable (lambda = 0)", None, None
    scale = max(size, 1e-30) * max(_max_abs(rho), 1e-30)
    W = wedge_tensor(6, 2, 3)  # exact: one int scatter; floats: two products
    if omega.dtype == rho.dtype == object:
        om_rho = contract(W, omega, rho)
    else:
        om_rho = W.reshape(90, 20).dot(rho).reshape(6, 15).dot(omega)
    if _max_abs(om_rho) > 1e-10 * scale:
        return fail, "omega ^ rho != 0", None, None
    # an irrational J*rho has J*rho ^ rho = q / |lambda|^(3/2), q rational,
    # which is never the rational (2/3) omega^3
    num = None if jrho is None else _jrho_wedge_rho(jrho, rho)
    # a float times a Fraction is the same float but costs about 7 us
    two_thirds = Fraction(2, 3) if isinstance(om3, Fraction) else 2.0 / 3.0
    if num is None or abs(num - om3 * two_thirds) > 1e-10 * max(abs(num), abs(om3), 1e-30):
        return fail, "normalization J*rho ^ rho != (2/3) omega^3", None, None
    G = _metric_matrix(omega, J, sign) if G is None else G
    try:
        sig = linalg.signature(G)
    except ValueError:
        return fail, "associated metric is degenerate", None, None
    tag = signature_class(sig, sign)
    return tag, (f"unexpected signature {sig}" if tag is fail else None), sig, G


def lambda_invariant(rho: KForm) -> float | Fraction:
    """Quartic orbit invariant lambda = tr(K^2)/6 against e^{1..6}.

    Negative on the complex-type orbit, positive on the para-complex
    orbit, zero exactly on unstable forms.
    """
    return _lambda(k_endomorphism(rho))


def assoc_J(rho: KForm) -> np.ndarray:
    """Normalized endomorphism J = K/sqrt(|lambda|).

    J^2 = -Id on the complex orbit, +Id on the para-complex orbit, and
    assoc_J(A* rho) = sign(det A) A^{-1} J A for A in GL(6).
    """
    K = k_endomorphism(rho)
    return K / _root(_lambda(K), _max_abs(rho.coeffs))


def pair_structure(omega: KForm, rho: KForm):
    """(J, g, sign, J*rho) of a pair: J with the Z_2 sign ambiguity
    resolved by the normalization, so that J*rho ^ rho is a positive
    multiple of (2/3) omega^3; g the metric with omega(v,w) = g(v, Jw);
    sign the sign of lambda (J^2 = sign Id); and J*rho, the pullback the
    sign test needs.  On valid pairs this J is the unique choice whose
    metric signature lies in {(6,0), (2,4), (3,3)}."""
    J, sign, jrho, _ = pair_coeffs(omega.coeffs, rho.coeffs)
    return J, SymBilinear(_metric_matrix(omega.coeffs, J, sign)), sign, KForm(6, 3, jrho)


def pair_coeffs(omega: np.ndarray, rho: np.ndarray, om3=None, K=None):
    """pair_structure on the coefficients (floats or Fractions) of a 2-form
    and a 3-form on R^6: (J, sign, J*rho, nu) of ``pair_normalization`` on
    the gradient of lambda from K (``dual_table``), J = K / root, given
    omega^3 and rho's K if the caller has them.  Raises UnstableForm as
    assoc_J does."""
    om3 = omega_cube(omega) if om3 is None else om3
    K = _k_matrix(rho) if K is None else K
    with np.errstate(over="ignore", invalid="ignore"):  # pair_normalization refuses inf and nan
        D = dual_table()  # 3 P grad lambda = D K rho; exact: one int scatter
        grad = contract(D, rho, K.ravel()) if rho.dtype == object else contract(D, K.ravel()) @ rho
    lam, root, jrho, nu = pair_normalization(grad, rho, om3)
    return K / root, (-1 if lam < 0 else 1), jrho, nu


def pair_normalization(grad, rho, om3, size=None):
    """The normalization of a pair from grad = 3 P grad lambda of its
    3-form rho (floats or Fractions), omega^3 and max|rho| if the caller
    has it: (lambda, root, J*rho, nu).  lambda = grad . P rho / 12 (Euler)
    is closer than the cancelling tr(K^2)/6.  root = +-sqrt|lambda| with
    the sign of omega^3, so that J = K / root and J*rho = grad / (6
    sign(lambda) root) make J*rho ^ rho = 2 root a positive multiple of
    omega^3; that value is read off, not wedged.  nu = (J*rho ^ rho) /
    ((2/3) omega^3): 1 on a normalized pair, nan when omega^3 = 0.  Raises
    UnstableForm as assoc_J does."""
    lam = _jrho_wedge_rho(grad, rho) / 12  # _root refuses inf and nan
    root = _root(lam, _max_abs(rho) if size is None else size)
    root = -root if om3 < 0 else root
    jrho = grad / ((6 if lam > 0 else -6) * root)
    nu = 2 * root / ((2.0 / 3.0) * om3) if om3 != 0 else math.nan
    return lam, root, jrho, nu


def assoc_metric(omega: KForm, rho: KForm) -> SymBilinear:
    """Metric associated to a pair of stable forms via omega(v,w) = g(v, Jw)."""
    return pair_structure(omega, rho)[1]


def classify_pair(omega: KForm, rho: KForm) -> SixStructureClass:
    """Structure classification of a (2-form, 3-form) pair: one K, J and
    J*rho from ``pair_coeffs`` unless omega is degenerate, then the checks
    of ``classify_coeffs``; failures in the returned value, lambda = tr(K^2)/6."""
    om, r = omega.coeffs, rho.coeffs
    K, om3 = k_endomorphism(rho), omega_cube(om)
    lam, J, jrho = _lambda(K), None, None
    sign = -1 if lam < 0 else 1
    if not _degenerate(om3, _max_abs(om)):  # an exact J may need a root that a failing pair lacks
        try:
            J, _, jrho, _ = pair_coeffs(om, r, om3, K)
        except UnstableForm:
            sign = 0
        except ValueError:  # exact K, sqrt|lambda| irrational: J stays None
            pass
        except OverflowError:  # max|rho|^4, the bound on lambda
            return SixStructureClass(StructureClass.NOT_A_STRUCTURE, "rho is out of float range", lam)
    tag, why, sig, G = classify_coeffs(om, r, J, sign, jrho, om3)
    if why is not None:
        return SixStructureClass(tag, diagnostics=why, lambda_value=lam, signature=sig)
    metric, jrho = SymBilinear(G), KForm(6, 3, jrho)
    return SixStructureClass(tag, lambda_value=lam, signature=sig, metric=metric, J=J, jrho=jrho)


def theta_deform(omega: KForm, rho: KForm, theta: float) -> tuple[KForm, KForm]:
    """One-parameter family of structures with the same omega and metric.

    Complex orbit: rho^theta = cos(theta) rho + sin(theta) J*rho.
    Para-complex orbit: rho^theta = cosh(theta) rho - sinh(theta) J*rho.
    """
    cls = classify_pair(omega, rho)
    if not cls.ok:
        raise UnstableForm(f"not a structure: {cls.diagnostics}")
    rho_f, jrho_f = rho.to_float(), cls.jrho.to_float()
    if cls.lambda_value < 0:
        new = float(np.cos(theta)) * rho_f + float(np.sin(theta)) * jrho_f
    else:
        new = float(np.cosh(theta)) * rho_f - float(np.sinh(theta)) * jrho_f
    return omega.to_float(), new


# -- the quadratic 4-form inverse ---------------------------------------
def solve_wedge_omega(omega: KForm, tau: KForm) -> KForm:
    """Unique alpha with alpha ^ omega = tau, for nondegenerate omega:
    exact when both forms are, else in floats (``solve_wedge_coeffs``)."""
    if omega.dim != 6 or omega.degree != 2 or tau.degree != 4:
        raise ValueError("expected a 2-form and a 4-form on R^6")
    if not (omega.exact and tau.exact):  # as KForm arithmetic: floats unless both are exact
        omega, tau = omega.to_float(), tau.to_float()
    return KForm(6, 2, solve_wedge_coeffs(omega.coeffs, tau.coeffs))


@functools.lru_cache(maxsize=None)
def iota_table() -> np.ndarray:
    """L with iota_B tau = contract(L, B).reshape(15, 15) @ tau for a
    bivector B: the wedge transposed, L[q, r, p] = wedge_tensor(6, 2, 2)[r, p, q]."""
    L = np.ascontiguousarray(wedge_tensor(6, 2, 2).transpose(2, 0, 1)).reshape(225, 15)
    L.setflags(write=False)
    return L


def solve_wedge_coeffs(omega: np.ndarray, tau: np.ndarray, B=None) -> np.ndarray:
    """solve_wedge_omega on coefficients, floats or Fractions, given omega's
    bivector B (``_omega_bivector``) if the caller has it: by the Lefschetz
    decomposition, alpha = (6 iota_B tau - 3 <tau ^ omega> omega) / omega^3
    (``wedge_solution``)."""
    B = _omega_bivector(omega) if B is None else B
    iota_tau = contract(iota_table(), B).reshape(15, 15).dot(tau)
    tau_omega = contract(wedge_tensor(6, 4, 2)[0], omega).dot(tau)
    return wedge_solution(omega_cube(omega, B), _max_abs(omega), iota_tau, tau_omega, omega)


def wedge_solution(om3, size: float, iota_tau, tau_omega, image) -> np.ndarray:
    """L alpha for alpha ^ omega = tau and a linear map L, from omega^3,
    max|omega|, L iota_B tau, <tau ^ omega> and L omega: (6 L iota_B tau - 3
    <tau ^ omega> L omega) / omega^3.  Raises DegenerateOmega when omega^3 =
    0 (to 1e-12 relative)."""
    if _degenerate(om3, size):
        raise DegenerateOmega("omega^3 = 0")
    return iota_tau * (6 / om3) - image * (3 * tau_omega / om3)


def iota(sigma: KForm) -> KForm:
    """Inverse of omega -> omega^2/2 on nondegenerate 2-forms.

    sigma = omega^2/2 has omega's bivector B, and Q(B, B) is a multiple of
    omega (``_omega_bivector``), scaled to its half-square.  Of the two
    solutions +-omega, returns the one whose first nonzero canonical
    coefficient is positive.  Raises UnstableForm if max|sigma|^3 is not
    finite or sigma is no half-square (|omega^2/2 - sigma| > 1e-12
    max(max|sigma|, 1)), the one test of degeneracy.
    """
    if sigma.dim != 6 or sigma.degree != 4:
        raise ValueError("expected a 4-form on R^6")
    sigma = sigma.to_float()
    scale = max(sigma.max_abs(), 1e-30)
    if not scale * scale * scale < math.inf:  # nan too
        raise UnstableForm("4-form is not a nondegenerate half-square within float range")
    B = contract(wedge_tensor(6, 2, 4)[0], sigma.coeffs) / scale  # sigma's bivector, scale-free
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan fails the residual
        cand = KForm(6, 2, _omega_bivector(B))
        sq = wedge(cand, cand) * 0.5
        ratio = (sq.coeffs @ sigma.coeffs) / max(sq.coeffs @ sq.coeffs, 1e-300)
        if ratio <= 0:
            raise UnstableForm("4-form is not in the half-square orbit")
        omega = cand * float(np.sqrt(ratio))
        if not (wedge(omega, omega) * 0.5 - sigma).max_abs() <= 1e-12 * max(sigma.max_abs(), 1.0):
            raise UnstableForm("4-form is not a half-square")
    lead = next((c for c in omega.coeffs if abs(c) > 1e-12 * omega.max_abs()), 1.0)
    return -omega if lead < 0 else omega
