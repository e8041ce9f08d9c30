"""Hitchin flow integration in invariant coefficient space.

Two flows are implemented on a registered homogeneous space:

* the generic cocalibrated flow  d/dt *phi_t = d phi_t  for an invariant
  G2/G2* structure, advanced by the closed-form inverse of the derivative
  D(*) psi = *((4/3) pi_1 + pi_7 - pi_27) psi of the Hitchin map
  phi -> *phi (Hitchin, "Stable forms and special metrics",
  arXiv:math/0107101; Bryant, "Some remarks on G2-structures",
  arXiv:math/0305124): phi_dot = ((7/4) pi_1 + 2 pi_7 - 1) *d phi;

* the degenerate line-bundle flow for split data phi = f omega ^ e^phi
  + rho on the distribution Ann(e^phi), with the two equations

      (dw/dt) ^ omega = pi(d rho) + f omega ^ d e^phi
      d/dt (f J*rho)  = L_{e_phi} rho - pi(df) ^ omega - f pi(d omega)

  (df = 0 in the invariant setting).  The integrator advances the pair
  (omega, S) with S = f J*rho, which evolves by the second equation as a
  whole; the split of S into f and s = J*rho is re-derived at every
  evaluation from the structure normalization J*r ^ r = (2/3) omega^3
  applied to r = -J_S* S.  This keeps |s|_g constant by construction of
  the geometry rather than by fiat, and makes first-order seeding of the
  singular startup second-order accurate in the state variables.

  The rhs and step check work on the packed invariant coefficients, with
  every map a table built once per frame (``_Operators``): the gradient
  of lambda and the check's metric cubic ones, the 2-form velocity a
  product with omega's bivector; the rhs and step check of one state
  share its split, the last one made (``_last``).

``hitchinflow.ode``'s rk4 and Dormand-Prince rk45 advance both flows;
every trajectory keeps its stats, what the integrator did.  Each sample
comes with what its step check found, and one stacked pass after the
step loop builds the samples and monitors (``_Flow``).

The system is singular at f = 0; trajectories start from a small-time
Taylor seed at t = epsilon and a Richardson check over epsilon vs
epsilon/2 guards the seeding error.
"""

from __future__ import annotations

import math
import numbers
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import linalg, ode, stable
from .errors import NotProportional, PreconditionFailed, ProjectionFailure, UnstableForm
from .forms import (KForm, embed, increasing_tuples, interior, interior_tensor, pullback, restrict,
                    wedge, wedge_tensor)
from .g2spin7 import SevenStructure, bundle_Phi, seven_structure, solve_dstar
from .homogeneous import HomogeneousSpace, invariant_basis, pi_project, space

__all__ = [
    "FlowConfig", "Basis", "DegenerateProblem", "GenericProblem", "DegenerateFlowState",
    "GenericFlowState", "Trajectory", "SmoothnessResult", "n11_problem", "flat7_problem",
    "smoothness_check", "startup_seed", "mirror_seed", "generic_rhs", "cocal_residual",
    "integrate", "torsion_residual", "deform_state", "generic_problem", "generic_state_from_split",
    "richardson_deviation",
]

# Work caps, checked before a run starts (times on 2 x86 cores, numpy 2.4).
# A degenerate sample holds about 1.8 kB, and its step check's finding
# 1 kB more until the run ends; the stacked pass, _PASS_ROWS samples at a
# time, 5.5 kB each while it runs: 10^5 samples are 300 MB and 1.5 s.
_MAX_SAMPLES, _PASS_ROWS = 10**5, 4096
# A degenerate rk4 step (4 rhs and a step check) takes about 0.19 ms:
# 10^6 steps are about 3 minutes.
_MAX_RK4_STEPS = 10**6


# ----------------------------------------------------------------------
# problems
# ----------------------------------------------------------------------
class Basis(NamedTuple):
    """Invariant forms of one degree, the matrix with their coefficients
    as columns and its pseudo-inverse."""

    forms: list
    mat: np.ndarray
    pinv: np.ndarray

    def coords(self, target: np.ndarray, what: str) -> np.ndarray:
        """Coordinates of a coefficient vector in this basis; raises
        ProjectionFailure when it leaves the span."""
        coeffs = self.pinv @ target
        _check_leak(np.abs(self.mat @ coeffs - target).max(), np.abs(target).max(), what)
        return coeffs


def _cached_basis(problem, degree: int, fiber: int | None = None) -> Basis:
    """The invariant basis of a degree on the problem's space, without the
    forms that have a term along the fiber axis when one is given, built
    once per problem."""
    if (degree, fiber) not in problem._cache:
        forms = [
            b.form
            for b in invariant_basis(problem.space, degree)
            if fiber is None
            or all(fiber not in t or c == 0 for t, c in zip(b.form.tuples(), b.form.coeffs))
        ]
        mat = np.stack([f.coeffs for f in forms], axis=1)
        problem._cache[degree, fiber] = Basis(forms, mat, np.linalg.pinv(mat))
    return problem._cache[degree, fiber]


@dataclass(frozen=True)
class DegenerateProblem:
    """Invariant line-bundle flow data on a homogeneous space.

    The fiber direction is e_phi = e_phi_scale * (m-basis vector at
    e_phi_index); its dual satisfies e^phi(e_phi) = 1.  omega0/rho0 are
    invariant horizontal forms on m giving the structure on the zero
    section.
    """

    space: HomogeneousSpace
    e_phi_index: int
    e_phi_scale: float
    omega0: KForm
    rho0: KForm
    _cache: dict = field(default_factory=dict, compare=False, repr=False)  # bases, tables, checks

    def __post_init__(self):
        nm = self.space.mdim
        if self.omega0.dim != nm or self.rho0.dim != nm:
            raise ValueError("omega0/rho0 must live on m")
        ev = np.zeros(nm)
        ev[self.e_phi_index] = 1.0
        for frm in (self.omega0, self.rho0):
            if not interior(ev, frm).max_abs() <= 1e-12 * max(frm.max_abs(), 1e-30):  # or nan
                raise ValueError("omega0/rho0 must annihilate the fiber direction")

    # -- frame helpers --------------------------------------------------
    @property
    def mdim(self) -> int:
        return self.space.mdim

    @property
    def dist_axes(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.mdim) if i != self.e_phi_index)

    def e_phi_form(self) -> KForm:
        # dual normalized so that e^phi(e_phi) = 1
        return KForm.basis(self.mdim, [self.e_phi_index]) * (1.0 / self.e_phi_scale)

    def w_basis(self) -> Basis:
        return _cached_basis(self, 2, self.e_phi_index)

    def s_basis(self) -> Basis:
        return _cached_basis(self, 3, self.e_phi_index)

    def basis_labels(self, degree: int) -> list[str]:
        """Each basis form labeled by its first tuple with a nonzero term."""
        lead = lambda f: next(t for t, c in zip(f.tuples(), f.coeffs) if abs(c) > 1e-12)
        forms = _cached_basis(self, degree, self.e_phi_index).forms
        return ["e" + "".join(str(i + 1) for i in lead(f)) for f in forms]

    def de_phi(self) -> KForm:
        return self.space.d(self.e_phi_form())

    def pi(self, form: KForm) -> KForm:
        return pi_project(form, self.e_phi_index)

    def to_dist(self, form: KForm) -> KForm:
        return restrict(form, self.dist_axes)

    def from_dist(self, form: KForm) -> KForm:
        return embed(form, self.mdim, list(self.dist_axes))

    def operators(self) -> "_Operators":
        """The flow's tables, built once per frame and cached by the space."""
        if (ops := self._cache.get("operators")) is None:
            key = ("frame", self.e_phi_index, self.e_phi_scale)
            ops = self._cache["operators"] = self.space.memo(key, lambda: _Operators.build(self))
        return ops

    def pack(self, w_coeffs: np.ndarray, S_coeffs: np.ndarray) -> np.ndarray:
        return np.concatenate([w_coeffs, S_coeffs])


def _matrix_of(fn: Callable[[KForm], KForm], forms) -> np.ndarray:
    """Matrix of a linear map of forms: column i is fn(forms[i]).coeffs."""
    return np.stack([fn(x).coeffs for x in forms], axis=1)


@dataclass(frozen=True)
class _Operators:
    """The degenerate flow's maps on one frame, as tables on coefficient
    vectors: y = (w, S) packed, omega6, rho6 and tau on the distribution.  A
    velocity v on m stands as V v = (pinv v, (mat pinv - 1) v, v): packed
    coordinates, the leak out of the invariant span, and v to scale its
    bound."""

    # y -> (omega6, S6, the c with c . tau = <tau ^ omega6>, V omega6, the
    # f-parts of tau = to_dist(pi(d rho7 + f omega7 ^ de^phi)) and of the S
    # velocity)
    lin: np.ndarray
    bivector: np.ndarray  # w -> omega6's bivector B (stable.omega_cube), quadratic, as grad
    iota: np.ndarray  # B -> the matrix of tau -> V iota_B tau (stable.solve_wedge_coeffs)
    grad: np.ndarray  # S -> 3 P grad lambda(S6), cubic: one product with S per degree
    metric: np.ndarray  # (S, S, w) -> root sign G for the metric G, cubic as grad
    rho: np.ndarray  # rho6 -> the rho-parts of tau and of the S velocity
    segments: np.ndarray  # where the parts of (w velocity, tau, S velocity) start
    packed: np.ndarray  # the packed coordinates in that vector
    phi: np.ndarray  # (f w, rho6) -> phi = f omega7 ^ e^phi + from_dist(rho6)
    star: np.ndarray  # (w (x) w, S) -> *phi = omega7^2/2 + e^phi ^ S7

    @staticmethod
    def build(problem: "DegenerateProblem") -> "_Operators":
        """The tables of the problem's frame; reads nothing of omega0, rho0."""
        wb, sb, sp = problem.w_basis(), problem.s_basis(), problem.space
        nw, ns = len(wb.forms), len(sb.forms)
        units = lambda k: [KForm(6, k, e) for e in np.eye(len(increasing_tuples(6, k)))]
        pi6 = lambda form: problem.to_dist(problem.pi(form))
        velocity = lambda b, v: np.vstack([b.pinv @ v, (b.mat @ b.pinv - np.eye(len(v))) @ v, v])
        omega6, s6, from_dist3 = (_matrix_of(problem.to_dist, wb.forms),
                                  _matrix_of(problem.to_dist, sb.forms),
                                  _matrix_of(problem.from_dist, units(3)))
        d_rho = _matrix_of(lambda r: pi6(sp.d(problem.from_dist(r))), units(3))
        w_de_phi = _matrix_of(lambda om: pi6(wedge(om, problem.de_phi())), wb.forms)
        lie_rho = problem.e_phi_scale * sp.lie_matrix(problem.e_phi_index, 3) @ from_dist3
        pi_d_w = _matrix_of(lambda om: problem.pi(sp.d(om)), wb.forms)
        e_phi, wedge7 = problem.e_phi_form(), wedge_tensor(problem.mdim, 2, 2)
        V = velocity(wb, _matrix_of(problem.from_dist, units(2)))
        on_w = np.vstack([wedge_tensor(6, 4, 2)[0] @ omega6, V @ omega6, w_de_phi,
                          velocity(sb, -pi_d_w)])
        bivector = 0.5 * np.einsum("pr,rij,ia,jb->abp", wedge_tensor(6, 2, 4)[0],
                                   wedge_tensor(6, 2, 2), omega6, omega6, optimize=True)
        iota = np.einsum("mq,qrp->pmr", V, stable.iota_table().reshape(15, 15, 15))
        # K[k] = S k8[k] S and 3 P grad lambda = D K S6 (stable.dual_table) with S6 = s6 S,
        # stored with S's axes first and read by one product with S each
        kt = stable.k_table().reshape(36, 20, 20)
        k8 = np.einsum("kab,ai,bj->kij", kt, s6, s6, optimize=True)
        grad = np.einsum("xbk,bl,kij->jilx", stable.dual_table(), s6, k8, optimize=True)
        # root sign G = (Omega6 K(S6) + its transpose) / 2, Omega6 = interior_tensor(6, 2) omega6
        omega_k = np.einsum("ikp,pc,kjab->abcij", interior_tensor(6, 2), omega6,
                            k8.reshape(6, 6, ns, ns), optimize=True)
        w_sizes, s_sizes = (nw, len(wb.mat), len(wb.mat)), (15, ns, len(sb.mat), len(sb.mat))
        half_squares = 0.5 * np.einsum("oij,ia,jb->oab", wedge7, wb.mat, wb.mat)
        return _Operators(
            lin=np.vstack([np.hstack([omega6, np.zeros((15, ns))]),
                           np.hstack([np.zeros((20, nw)), s6]),
                           np.hstack([on_w, np.zeros((len(on_w), ns))])]),
            bivector=np.ascontiguousarray(bivector).reshape(nw, -1),
            iota=np.ascontiguousarray(iota).reshape(15, -1),
            grad=np.ascontiguousarray(grad).reshape(ns, -1),
            metric=((omega_k + omega_k.swapaxes(3, 4)) / 2).reshape(ns, -1),
            rho=np.vstack([d_rho, velocity(sb, lie_rho)]),
            segments=np.cumsum([0, *w_sizes, *s_sizes[:-1]]),
            packed=np.r_[0:nw, sum(w_sizes) + 15 + np.arange(ns)],
            phi=np.hstack([_matrix_of(lambda om: wedge(om, e_phi), wb.forms), from_dist3]),
            star=np.hstack([half_squares.reshape(len(wedge7), -1),
                            _matrix_of(lambda x: wedge(e_phi, x), sb.forms)]),
        )


@dataclass(frozen=True)
class GenericProblem:
    """Invariant generic-flow data: coefficients run over the invariant
    3-form basis of the space."""

    space: HomogeneousSpace
    _cache: dict = field(default_factory=dict, compare=False, repr=False)  # the bases

    def basis(self, degree: int) -> Basis:
        return _cached_basis(self, degree)

    def phi(self, x: np.ndarray) -> KForm:
        return KForm(self.space.mdim, 3, self.basis(3).mat @ x)


def generic_problem(space_name: str) -> GenericProblem:
    return GenericProblem(space(space_name))


# ----------------------------------------------------------------------
# states and trajectories
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DegenerateFlowState:
    """Split-coordinate state: fiber length f, omega and s = J*rho
    coefficients in the problem's invariant horizontal bases."""

    t: float
    f: float
    w: np.ndarray
    s: np.ndarray
    problem: DegenerateProblem

    def omega_form(self, on_distribution: bool = True) -> KForm:
        f7 = KForm(self.problem.mdim, 2, self.problem.w_basis().mat @ self.w)
        return self.problem.to_dist(f7) if on_distribution else f7

    def s_form(self, on_distribution: bool = True) -> KForm:
        f7 = KForm(self.problem.mdim, 3, self.problem.s_basis().mat @ self.s)
        return self.problem.to_dist(f7) if on_distribution else f7

    def rho_form(self) -> KForm:
        """rho = -J*s on the distribution."""
        return -1.0 * stable.pair_structure(self.omega_form(), self.s_form())[3]

    def phi_form(self) -> KForm:
        """phi = f omega ^ e^phi + rho on the 7-dimensional space."""
        om7 = self.omega_form(on_distribution=False)
        rho7 = self.problem.from_dist(self.rho_form())
        return self.f * wedge(om7, self.problem.e_phi_form()) + rho7


@dataclass(frozen=True)
class GenericFlowState:
    t: float
    x: np.ndarray
    problem: GenericProblem

    def phi_form(self) -> KForm:
        return self.problem.phi(self.x)


_INTEGRATORS = {"rk4": "rk4", "rk4-fixed": "rk4", "rk45": "rk45", "rk45-adaptive": "rk45"}


def _is_finite_real(x) -> bool:
    # bool is an Integral, but a JSON true is no number
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


@dataclass(frozen=True)
class FlowConfig:
    """Integration parameters, validated at construction (raises
    PreconditionFailed).  Samples are recorded every sample_dt.  'rk4-fixed'
    (alias 'rk4') takes fixed steps of about `step` that divide each sample
    interval; 'rk45-adaptive' ('rk45') takes steps to the error tolerance
    tol that ignore the sample grid, and interpolates the samples inside."""

    space: str = "n11"
    t_end: float = 0.5
    integrator: str = "rk45-adaptive"
    step: float = 1e-3
    tol: float = 1e-9
    startup_epsilon: float = 1e-4
    sample_dt: float = 0.01

    def __post_init__(self):
        def refuse(name, want):
            val = getattr(self, name)
            raise PreconditionFailed("flow_config", f"{name} = {val!r} is not {want}")

        if not isinstance(self.integrator, str) or self.integrator.lower() not in _INTEGRATORS:
            refuse("integrator", f"one of {tuple(_INTEGRATORS)}")
        for name in ("step", "tol", "sample_dt", "startup_epsilon"):
            if not _is_finite_real(getattr(self, name)) or getattr(self, name) <= 0:
                refuse(name, "a finite number > 0")
        if not _is_finite_real(self.t_end):
            refuse("t_end", "a finite number")

    def kind(self) -> str:
        return _INTEGRATORS[self.integrator.lower()]


@dataclass(frozen=True)
class Sample:
    t: float
    data: dict
    monitors: dict


@dataclass(frozen=True)
class Trajectory:
    kind: str  # "degenerate" | "generic"
    samples: tuple[Sample, ...]
    stop_reason: str
    config: FlowConfig
    problem: DegenerateProblem | GenericProblem
    stop_cause: str | None = None  # why the run ended early; None if completed
    # rhs_evals, accepted/rejected_steps, rejections by cause, h_min/h_max (None before a step)
    stats: dict | None = None
    sample_s: float = 0.0  # seconds of the stacked pass that builds the samples

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def series(self, key: str) -> np.ndarray:
        return np.array([s.data[key] for s in self.samples])

    def monitor(self, key: str) -> np.ndarray:
        return np.array([s.monitors[key] for s in self.samples])

    def state_at(self, i: int):
        s = self.samples[i]
        if self.kind == "degenerate":
            return DegenerateFlowState(s.t, s.data["f"], s.data["w"], s.data["s"], self.problem)
        return GenericFlowState(s.t, s.data["x"], self.problem)


# ----------------------------------------------------------------------
# built-in problems
# ----------------------------------------------------------------------
def _family_forms(a: float, b: float, c_param: float, theta: float):
    e = lambda *idx: KForm.from_terms(7, len(idx), {tuple(i - 1 for i in idx): 1})
    omega0 = (a * a) * e(1, 2) + (b * b) * e(3, 4) - (c_param * c_param) * e(5, 6)
    x0 = -e(1, 3, 5) - e(1, 4, 6) - e(2, 3, 6) + e(2, 4, 5)
    y0 = -e(1, 3, 6) + e(1, 4, 5) + e(2, 3, 5) + e(2, 4, 6)
    rho0 = (a * b * c_param) * (math.cos(theta) * x0 + math.sin(theta) * y0)
    return omega0, rho0


def n11_problem(
    a: float = 1.0,
    b: float = 1.0,
    c_param: float = 1.0,
    theta: float = 0.0,
    bundle: str = "squared",
) -> DegenerateProblem:
    """The invariant family on the Aloff-Wallach space N^{1,1}, omega0 =
    a^2 e12 + b^2 e34 - c^2 e56 with the matching 3-form family.  'squared'
    takes the fiber of the squared line bundle, oriented so that the
    smoothness constant is +1; 'unsquared' the primitive one, whose -2
    fails the smoothness test."""
    for name, val in (("a", a), ("b", b), ("c_param", c_param), ("theta", theta)):
        if not _is_finite_real(val):
            raise PreconditionFailed("family_parameter", f"{name} = {val!r} is not a finite number")
        if val == 0 and name != "theta":
            raise PreconditionFailed("family_parameter", f"{name} must be nonzero")
    # the coefficients of omega0 and rho0, refused before any form holds an inf
    coeffs = (float(a) * a, float(b) * b, float(c_param) * c_param, float(a) * b * c_param)
    if not all(map(math.isfinite, coeffs)):
        raise PreconditionFailed("family_parameter", "a^2, b^2, c^2 or a b c is beyond float range")
    scales = {"squared": -0.5, "unsquared": 1.0}
    if not isinstance(bundle, str) or bundle not in scales:
        raise PreconditionFailed("bundle", f"bundle must be 'squared' or 'unsquared', got {bundle!r}")
    omega0, rho0 = _family_forms(a, b, c_param, theta)
    return DegenerateProblem(space("n11"), 6, scales[bundle], omega0, rho0)


def flat7_problem(structure: str = "su3") -> DegenerateProblem:
    """Flat model: R^6 x circle, fiber rotating one complex plane."""
    om6, rho6 = stable.model_pair(structure)
    return DegenerateProblem(space("flat7"), 6, 1.0, embed(om6, 7), embed(rho6, 7))


# ----------------------------------------------------------------------
# smoothness and startup
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SmoothnessResult:
    c: float
    ok: bool
    fit_residual: float
    lie_omega_residual: float

    @property
    def c_is_integer(self) -> bool:
        return abs(self.c - round(self.c)) < 1e-8


def smoothness_check(
    sp: HomogeneousSpace,
    omega0: KForm,
    rho0: KForm,
    e_phi_index: int,
    e_phi_scale: float,
) -> SmoothnessResult:
    """Fit c in L_{e_phi} rho0 = c J*rho0 and test L_{e_phi} omega0 = 0;
    ok requires |c| = 1 (the orbit-length condition for a smooth extension
    across the zero section).  Raises NotProportional when the fit
    residual exceeds 1e-10 relative, and PreconditionFailed
    ('classification') when rho0 is not stable on the distribution."""
    dist = tuple(i for i in range(sp.mdim) if i != e_phi_index)
    om6, rho6 = restrict(omega0, dist), restrict(rho0, dist)
    try:
        jrho = embed(stable.pair_structure(om6, rho6)[3], sp.mdim, list(dist))
    except UnstableForm as exc:
        raise PreconditionFailed("classification", str(exc)) from exc
    lie3 = e_phi_scale * sp.lie_matrix(e_phi_index, 3)
    lie2 = e_phi_scale * sp.lie_matrix(e_phi_index, 2)
    lrho = lie3 @ rho0.coeffs
    lom_res = float(np.max(np.abs(lie2 @ omega0.coeffs)))
    denom = float(jrho.coeffs @ jrho.coeffs)
    c = float(jrho.coeffs @ lrho) / denom
    resid = float(np.max(np.abs(lrho - c * jrho.coeffs)))
    if resid > 1e-10 * max(float(np.max(np.abs(lrho))), 1.0):
        raise NotProportional(f"L_ephi rho is not proportional to J*rho (residual {resid:.2e})")
    ok = abs(abs(c) - 1.0) < 1e-8 and lom_res < 1e-10
    return SmoothnessResult(c, ok, resid, lom_res)


def problem_smoothness(problem: DegenerateProblem) -> SmoothnessResult:
    """``smoothness_check`` of the problem's data, computed once per problem."""
    if (sm := problem._cache.get("smoothness")) is None:
        sm = problem._cache["smoothness"] = smoothness_check(
            problem.space, problem.omega0, problem.rho0, problem.e_phi_index, problem.e_phi_scale)
    return sm


def startup_seed(problem: DegenerateProblem, c: float, epsilon: float) -> DegenerateFlowState:
    """First-order Taylor seed at t = epsilon for the singular startup:
    f = c epsilon, s = J*rho0 (its time derivative vanishes at t = 0 in
    these variables), and w = omega0 + epsilon wdot0 with wdot0 ^ omega0 =
    pi(d rho0)."""
    if epsilon <= 0:
        raise PreconditionFailed("positive_epsilon", f"epsilon = {epsilon}")
    if c <= 0:
        raise PreconditionFailed("positive_c", f"c = {c}")
    om6 = problem.to_dist(problem.omega0)
    rho6 = problem.to_dist(problem.rho0)
    cls = stable.classify_pair(om6, rho6)
    if cls.tag not in (stable.StructureClass.SU3, stable.StructureClass.SU12):
        raise PreconditionFailed("classification", f"{cls.tag.value}: {cls.diagnostics}")
    dom = problem.space.d(problem.omega0)
    dww = wedge(dom, problem.omega0)
    scale = max(problem.omega0.max_abs(), 1.0)  # divided twice: scale**2 may overflow
    if not dww.max_abs() / scale / scale <= 1e-10:
        raise PreconditionFailed("cocalibration", "d omega0 ^ omega0 != 0")
    try:
        sm = problem_smoothness(problem)
    except NotProportional as exc:
        raise PreconditionFailed("smoothness_proportionality", str(exc)) from exc
    if abs(sm.c - c) > 1e-8 * max(abs(c), 1.0):
        raise PreconditionFailed("smoothness_constant", f"required c = {c}, data gives c = {sm.c}")
    if abs(abs(c) - 1.0) > 1e-8:
        raise PreconditionFailed("smoothness_norm", f"|c| = {abs(c)} != 1: no smooth extension")
    wdot0 = stable.solve_wedge_omega(om6, problem.to_dist(problem.pi(problem.space.d(problem.rho0))))
    w_form7 = problem.omega0 + epsilon * problem.from_dist(wdot0)
    w = problem.w_basis().coords(w_form7.coeffs, "omega seed")
    s = problem.s_basis().coords(problem.from_dist(cls.jrho).coeffs, "s seed")
    return DegenerateFlowState(t=epsilon, f=c * epsilon, w=w, s=s, problem=problem)


def mirror_seed(problem: DegenerateProblem, c: float, epsilon: float) -> DegenerateFlowState:
    """Seed of the analytic continuation branch at t = -epsilon: f is odd
    through the singular time, so the branch starts with f = -c epsilon."""
    fwd = startup_seed(problem, c, epsilon)
    wb = problem.w_basis()
    mirrored = 2.0 * problem.omega0 - KForm(problem.mdim, 2, wb.mat @ fwd.w)  # omega0 - eps*wdot0
    return DegenerateFlowState(
        t=-epsilon, f=-c * epsilon, w=wb.pinv @ mirrored.coeffs, s=fwd.s, problem=problem
    )


def _check_leak(resid, size, what: str):
    """Raise ProjectionFailure when the sup norm resid of a velocity's part
    outside the invariant span exceeds 1e-9 max(size, 1), size its own."""
    if resid > 1e-9 * max(size, 1.0):
        raise ProjectionFailure(f"{what} leaves the invariant subspace (residual {resid:.2e})")


# ----------------------------------------------------------------------
# degenerate flow right-hand side
# ----------------------------------------------------------------------
class _Split(NamedTuple):
    """The split of a packed state (w, S = f J*rho): omega, rho and S on the
    distribution, the fiber length f, the sign of lambda (J^2 = sign Id),
    root = +-sqrt|lambda(S6)| with the sign of omega^3 (J = K(S6) / root),
    and what the rhs reads (None: not computed): omega^3, max|omega|,
    omega's bivector, c and V omega (``_Operators.lin``) and the f-parts."""

    om6: np.ndarray
    rho6: np.ndarray
    S6: np.ndarray
    f: float
    sign: int
    root: float
    om3: float | None = None
    om_size: float | None = None
    bivector: np.ndarray | None = None
    pairing: np.ndarray | None = None
    w_omega: np.ndarray | None = None
    f_parts: np.ndarray | None = None


def _derive_split(problem: DegenerateProblem, y: np.ndarray, branch: float) -> _Split:
    """f and rho from S by the normalization J*r ^ r = (2/3) omega^3 with
    r = -J*S: since J*(J*S) = sign S, the ratio J*r ^ r / ((2/3) omega^3)
    is -sign nu(omega, S), and one J*S is all it takes.  One product of
    the frame's tables gives the linear part, two omega's bivector, three
    the gradient of lambda, which ``stable.pair_normalization`` takes to
    J*S and nu (``ndarray.dot``: a fraction of matmul's call overhead)."""
    ops = problem.operators()
    w, S, v = y[:len(ops.bivector)], y[-len(ops.grad):], ops.lin.dot(y)  # their leading axes
    m = 50 + ops.iota.shape[1] // 15  # where V omega6 ends in v
    om6, S6, B = v[:15], v[15:35], w.dot(w.dot(ops.bivector).reshape(len(w), -1))
    om3 = float(stable.omega_cube(om6, B))
    om_size, s_size = np.maximum.reduceat(np.abs(v[:35]), (0, 15)).tolist()  # max|om6|, max|S6|
    grad = S.dot(S.dot(S.dot(ops.grad).reshape(len(S), -1)).reshape(len(S), -1))
    lam, root, jS, nu = stable.pair_normalization(grad, S6, om3, s_size)
    ratio = nu if lam < 0 else -nu
    if not 0 < ratio < math.inf:
        raise UnstableForm(f"normalization ratio {ratio} is not positive")
    f = branch * math.sqrt(ratio)
    return _Split(om6, jS * (-1.0 / f), S6, f, -1 if lam < 0 else 1, root, om3, om_size, B,
                  v[35:50], v[50:m], v[m:])


def _split_class(ops: _Operators, y: np.ndarray, sp: _Split) -> tuple:
    """``stable.classify_coeffs`` of the split's pair, (tag, reason,
    signature, metric), with the split's sign, omega^3 and max|omega|, J*rho
    = -sign S/f (no pullback) and G from the frame's cubic table.  The split
    itself has already refused lambda ~ 0."""
    w, S = y[:len(ops.bivector)], y[-len(ops.grad):]
    G = w.dot(S.dot(S.dot(ops.metric).reshape(len(S), -1)).reshape(len(w), -1)).reshape(6, 6)
    G *= sp.sign / sp.root
    jrho = (-sp.sign / sp.f) * sp.S6
    return stable.classify_coeffs(sp.om6, sp.rho6, None, sp.sign, jrho, sp.om3, G, sp.om_size)


def _rhs_packed(problem: DegenerateProblem, y: np.ndarray, branch: float, sp=None) -> np.ndarray:
    """The packed velocity at a packed state, from its split sp if given:
    wdot solving wdot ^ omega = pi(d rho) + f omega ^ de^phi and Sdot =
    L_{e_phi} rho - f pi(d omega), on coefficients, V wdot by
    ``stable.wedge_solution`` from the frame's tables.  Raises
    DegenerateOmega when omega^3 = 0, then ProjectionFailure when either
    velocity leaves the invariant span."""
    sp, ops = sp or _derive_split(problem, y, branch), problem.operators()
    x = ops.rho.dot(sp.rho6) + sp.f * sp.f_parts  # (tau, the S velocity)
    tau = x[:15]
    iota_tau = sp.bivector.dot(ops.iota).reshape(-1, 15).dot(tau)
    wdot = stable.wedge_solution(sp.om3, sp.om_size, iota_tau, sp.pairing.dot(tau), sp.w_omega)
    v = np.concatenate([wdot, x])
    # the largest |.| of each part: packed, leak and size of either velocity
    sup = np.maximum.reduceat(np.abs(v), ops.segments).tolist()
    _check_leak(sup[1], sup[2], "omega velocity")
    _check_leak(sup[5], sup[6], "s velocity")
    return v[ops.packed]


# ----------------------------------------------------------------------
# generic flow right-hand side
# ----------------------------------------------------------------------
def _stable(s: SevenStructure) -> SevenStructure:
    if not s.ok:
        raise UnstableForm("phi is not a stable 3-form")
    return s


def generic_rhs(state: GenericFlowState, structure: SevenStructure | None = None) -> np.ndarray:
    """Coefficient velocity of d/dt *phi = d phi, given the state's
    ``seven_structure`` when the caller has it: xdot = coords(xi) for the
    3-form xi with D(*) xi = d phi (``g2spin7.solve_dstar``).
    """
    problem = state.problem
    phi = problem.phi(np.asarray(state.x, dtype=float))
    s = _stable(seven_structure(phi) if structure is None else structure)
    xi = solve_dstar(s, problem.space.d(phi))
    return problem.basis(3).coords(xi.coeffs, "phi velocity")


def cocal_residual(sp: HomogeneousSpace, stars: np.ndarray) -> np.ndarray:
    """Sup-norm of the coefficients of d(*phi) on the space, for each row
    (..., C) of *phi's coefficients: one product for a stack of them."""
    return np.max(np.abs(stars @ sp.d_matrix(4).T), axis=-1)


# ----------------------------------------------------------------------
# integrate
# ----------------------------------------------------------------------
def _last(fn: Callable[[np.ndarray], object]) -> Callable[[np.ndarray], object]:
    """fn that keeps its last value, keyed by the packed state's bytes: rk45
    checks the state its last stage just evaluated, and rk4's next step
    first evaluates the state just checked."""
    last = [None, None]  # bytes, value

    def kept(y):
        if (k := y.tobytes()) != last[0]:
            last[:] = k, fn(y)
        return last[1]

    return kept


def _samples(times, data: dict, monitors: dict) -> list[Sample]:
    """One Sample per time from columns: sample i holds entry i of each."""
    return [Sample(t, dict(zip(data, d)), dict(zip(monitors, m)))
            for t, d, m in zip(times, zip(*data.values()), zip(*monitors.values()))]


@dataclass(frozen=True)
class _Flow:
    """One flow as the step loop sees it: check(y) is (reason, found),
    reason None for a state with the seed's class, else the refusal, and
    found what the state's sample reads; found0 is the seed's, and
    samples(records) stacks the (t, y, found) of checked states."""

    kind: str
    y0: np.ndarray
    found0: tuple
    rhs: Callable[[float, np.ndarray], np.ndarray]
    check: Callable[[np.ndarray], tuple]
    samples: Callable[[list], list[Sample]]


def _degenerate_flow(seed: DegenerateFlowState) -> _Flow:
    """The pair (omega, S = f J*rho) packed; f is re-derived from S.

    A trial state is valid when its split has the seed's class, which must
    be a structure; otherwise the step check names the classification's
    reason, or the class.  The check finds f, rho6, the class and metric g6
    of (omega, rho): g8 = g6 + f^2 (e^phi)^2 + dr^2 has g6's signature plus
    (2, 0), and |s|^2 - 4 in g6, from the Gram of the S basis, is the
    normalization monitor.  phi and *phi come from the frame's tables: no
    wedge.  The seed's split must reproduce the g8 signature that
    ``bundle_Phi`` gives the seed's pair, when it gives one."""
    problem, ops = seed.problem, seed.problem.operators()
    branch = 1.0 if seed.f >= 0 else -1.0
    y0 = problem.pack(seed.w, seed.f * seed.s)
    split = _last(lambda y: _derive_split(problem, y, branch))
    try:
        sp0 = split(y0)
    except UnstableForm as exc:  # f J*rho too small (or large) to split in floats
        raise PreconditionFailed("seed_split", f"no split at t = {seed.t}: {exc}") from exc
    seed_tag, why, sig6, g6 = _split_class(ops, y0, sp0)
    if why is not None:
        raise PreconditionFailed("classification", f"the seed at t = {seed.t}: {why}")
    want = (sig6[0] + 2, sig6[1])  # the first sample's g8 signature
    try:
        g8 = bundle_Phi(abs(seed.f), seed.omega_form(), seed.rho_form())[1]
        sig8 = g8.signature() if g8.is_nondegenerate() else None
    except UnstableForm:  # classify_pair refuses the seed's pair: nothing to compare
        sig8 = want
    if sig8 != want:
        raise PreconditionFailed("seed_reference", f"the split's g8 signature {want} != {sig8} "
                                                   f"of the seed's pair at t = {seed.t}")

    def check(y):
        tag, why, sig, g6 = _split_class(ops, y, sp := split(y))
        if why or tag is not seed_tag:
            return why or f"class {tag.value}", None
        return None, (sp.f, sp.rho6, tag.value, (sig[0] + 2, sig[1]), g6)

    nw, s6 = len(ops.bivector), ops.lin[15:35, -len(ops.grad):]  # s6: S -> S6

    def samples(records):
        times, ys, found = zip(*records)
        fs, rho6, tags, sig8, g6 = zip(*found)
        Y, f, inv = np.array(ys), np.array(fs)[:, None], np.linalg.inv(g6)
        w, s = Y[:, :nw], Y[:, nw:] / f
        phi = np.hstack([f * w, rho6]) @ ops.phi.T
        star = np.hstack([(w[:, :, None] * w[:, None, :]).reshape(len(w), -1), f * s]) @ ops.star.T
        # gram[j, n, i] = <b_j, b_i> in sample n's g6, b the S basis on the distribution
        gram = np.array([pullback(inv, KForm(6, 3, b)) for b in s6.T]) @ s6
        norm = np.abs(np.einsum("ni,jni,nj->n", s, gram, s) - 4.0).tolist()
        return _samples(times, {"f": fs, "w": w, "s": s, "phi": phi, "star_phi": star}, {
            "cocal_residual": cocal_residual(problem.space, star).tolist(),
            "normalization_residual": norm, "class": tags, "g8_signature": sig8})

    rhs = lambda t, y: _rhs_packed(problem, y, branch, split(y))
    found0 = (sp0.f, sp0.rho6, seed_tag.value, want, g6)
    return _Flow("degenerate", y0, found0, rhs, check, samples)


def _generic_flow(seed: GenericFlowState) -> _Flow:
    """A trial state is valid when its phi has the seed's class, which must
    be stable: so is every sample's.  The check finds phi, *phi and the
    class of its ``seven_structure``."""
    problem, y0 = seed.problem, np.asarray(seed.x, dtype=float)
    seven = _last(lambda y: seven_structure(problem.phi(y)))
    if not (s0 := seven(y0)).ok:  # the first rhs reuses it
        raise PreconditionFailed("classification", f"the seed at t = {seed.t}: phi is not stable")

    def check(y):
        if (k := (s := seven(y)).klass) is not s0.klass:
            return f"class {k.value}", None
        return None, (s.phi.coeffs, s.star_phi.coeffs, k.value)

    def samples(records):
        times, x, found = zip(*records)
        phi, star, klass = zip(*found)
        star = np.array(star)
        return _samples(times, {"x": np.array(x), "phi": np.array(phi), "star_phi": star}, {
            "cocal_residual": cocal_residual(problem.space, star).tolist(), "class": klass})

    rhs = lambda t, y: generic_rhs(GenericFlowState(t, y, problem), seven(y))
    return _Flow("generic", y0, check(y0)[1], rhs, check, samples)


def integrate(config: FlowConfig, seed) -> Trajectory:
    """Advance a seed to config.t_end, sampling every config.sample_dt.

    Stops early, keeping the samples so far, with the stop_reason and
    stop_cause of ``ode.Stop``.

    Raises PreconditionFailed before any step when the seed holds a nan
    or an infinity, when a degenerate t_end does not lie beyond the seed,
    away from f = 0, or the seed's split is no structure, when the run
    would record more than _MAX_SAMPLES samples or take more than
    _MAX_RK4_STEPS rk4 steps, when a generic seed's phi is not stable, and
    when a degenerate seed's split does not reproduce the g8 signature of
    its pair."""
    if isinstance(seed, DegenerateFlowState):
        values = {"t": seed.t, "f": seed.f, "w": seed.w, "s": seed.s}
    elif isinstance(seed, GenericFlowState):
        values = {"t": seed.t, "x": seed.x}
    else:
        raise TypeError(f"unknown seed type {type(seed)}")
    for name, val in values.items():
        if not np.all(np.isfinite(np.asarray(val, dtype=float))):
            raise PreconditionFailed("finite_seed", f"the seed's {name} is not finite")
    span = abs(config.t_end - seed.t)
    steps = span / config.step if config.kind() == "rk4" else 0.0
    for what, count, cap in (("samples", span / config.sample_dt, _MAX_SAMPLES),
                             ("rk4 steps", steps, _MAX_RK4_STEPS)):
        if count > cap:
            raise PreconditionFailed("work_cap", f"{count:.3g} {what} exceed the cap {cap}")
    if isinstance(seed, DegenerateFlowState):
        if (config.t_end - seed.t) * seed.f <= 0:
            raise PreconditionFailed(
                "away_from_zero_section",
                f"t_end = {config.t_end} does not lie beyond the seed at t = {seed.t}, "
                f"f = {seed.f}",
            )
        flow = _degenerate_flow(seed)
    else:
        flow = _generic_flow(seed)
    stats, times = ode.Stats(), ode.sample_times(seed.t, config.t_end, config.sample_dt)
    if config.kind() == "rk4":
        states = ode.rk4_states(flow.rhs, times, flow.y0, config.step, flow.check, stats)
    else:
        states = ode.rk45_states(flow.rhs, times, flow.y0, config.tol, flow.check, stats)
    stop, cause, records = "completed", None, [(times[0], flow.y0, flow.found0)]
    try:
        for record in states:
            records.append(record)
    except ode.Stop as exc:
        stop, cause = exc.args
    start, samples = time.perf_counter(), []
    for i in range(0, len(records), _PASS_ROWS):  # the stacked pass, its transients bounded
        samples += flow.samples(records[i:i + _PASS_ROWS])
    return Trajectory(flow.kind, tuple(samples), stop, config, seed.problem, cause,
                      asdict(stats), time.perf_counter() - start)


# ----------------------------------------------------------------------
# torsion residual and helpers
# ----------------------------------------------------------------------
def torsion_residual(traj: Trajectory) -> np.ndarray:
    """Per-sample residual |d/dt(*phi) - d phi| + |d(*phi)| on the stored
    grid (``np.gradient``, second order), from phi and *phi as each sample
    stored them and its stored cocalibration residual; raises ValueError
    for fewer than 3 samples."""
    if len(traj.samples) < 3:
        raise ValueError("need at least 3 samples")
    derivs = np.gradient(traj.series("star_phi"), traj.times(), axis=0, edge_order=2)
    d_phi = traj.series("phi") @ traj.problem.space.d_matrix(3).T
    return np.max(np.abs(derivs - d_phi), axis=1) + traj.monitor("cocal_residual")


def deform_state(state: DegenerateFlowState, theta: float) -> DegenerateFlowState:
    """Theta-deformation of a split state: the pullback exp(-theta/2
    L_{e7}) on both coefficient blocks.  Since L_{e7} rho0 = -2 J*rho0, the
    seed's 3-form moves along the family by +theta at fixed fiber length,
    and s -> cos(theta) s - sin(theta) rho on the seed."""
    problem = state.problem
    alpha = -theta / 2.0
    t2 = linalg.expm(alpha * problem.space.lie_matrix(problem.e_phi_index, 2))
    t3 = linalg.expm(alpha * problem.space.lie_matrix(problem.e_phi_index, 3))
    wb, sb = problem.w_basis(), problem.s_basis()
    w = wb.coords(t2 @ (wb.mat @ state.w), "deformed omega")
    s = sb.coords(t3 @ (sb.mat @ state.s), "deformed s")
    return replace(state, w=w, s=s)


def generic_state_from_split(
    gproblem: GenericProblem, dproblem: DegenerateProblem, f: float
) -> GenericFlowState:
    """Invariant generic seed at t = 0, phi = f omega0 ^ e^phi + rho0, from
    split data."""
    phi = f * wedge(dproblem.omega0, dproblem.e_phi_form()) + dproblem.rho0
    return GenericFlowState(0.0, gproblem.basis(3).coords(phi.coeffs, "generic seed"), gproblem)


def richardson_deviation(
    problem: DegenerateProblem, c: float, config: FlowConfig, t_check: float
) -> float:
    """Max deviation at t_check between runs seeded at epsilon and
    epsilon/2 (the startup-accuracy guard)."""
    out = []
    for eps in (config.startup_epsilon, config.startup_epsilon / 2):
        seed = startup_seed(problem, c, eps)
        cfg = replace(config, t_end=t_check)
        traj = integrate(cfg, seed)
        last = traj.state_at(len(traj.samples) - 1)
        out.append(np.concatenate([[last.f], last.w, last.f * last.s]))
    return float(np.max(np.abs(out[0] - out[1])))
