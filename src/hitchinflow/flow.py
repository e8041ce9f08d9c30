"""Hitchin flow integration in invariant coefficient space.

Two flows are implemented on a registered homogeneous space:

* the generic cocalibrated flow  d/dt *phi_t = d phi_t  for an invariant
  G2/G2* structure, advanced by solving the star-coefficient Jacobian,
  the closed-form derivative D(*) psi = *((4/3) pi_1 + pi_7 - pi_27) psi
  of the Hitchin map phi -> *phi (Hitchin, "Stable forms and special
  metrics", arXiv:math/0107101; Bryant, "Some remarks on G2-structures",
  arXiv:math/0305124);

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

  The right-hand side works in coefficient space: every linear map of the
  two equations (d, pi, L_{e_phi}, the wedge with de^phi and the moves to
  and from the distribution) is a matrix on the invariant coefficients,
  built once per problem (``DegenerateProblem.operators``).  What is left
  per evaluation is nonlinear: J from the quadratic K-tensor, one
  pullback J*S (J*(J*S) = sign S gives the second), the normalization
  and a 15 x 15 solve for the 2-form velocity (``stable.pair_coeffs``,
  ``stable.solve_wedge_coeffs``).

  Checks: a trial step is valid when ``stable.classify_coeffs``, the one
  six-dimensional structure rule, gives the seed's class on its split
  (the kernel's J and sign, J*rho = -sign S/f).  A sample makes one
  ``seven_structure`` call on phi and takes its normalization and g8
  signature from g7 alone, and its class from the signature of g7 on the
  distribution and the sign of lambda (``stable.signature_class``); the
  cocalibration residual comes from the split formula *phi = omega^2/2 +
  f e^phi ^ s, and the torsion residual differences the stored *phi.
  ``bundle_Phi`` of the seed, through ``classify_pair``, is the reference
  the first sample must reproduce.

rk4 and Dormand-Prince rk45 advance both flows; rk45 reuses the last
stage of an accepted step as the first of the next ("first same as
last", Hairer, Norsett & Wanner, Solving ODEs I, II.5).  Every trajectory
counts what the integrator did in its stats.

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

from . import linalg, stable
from .errors import (
    DegenerateMetric,
    DegenerateOmega,
    NonpositiveF,
    NotProportional,
    PreconditionFailed,
    ProjectionFailure,
    SingularJacobian,
    StepFailure,
    UnstableForm,
)
from .forms import (KForm, SymBilinear, embed, form_pairing, increasing_tuples, interior, restrict,
                    wedge)
from .g2spin7 import BundleSplitData, SevenStructure, bundle_Phi, seven_structure, star_derivative
from .homogeneous import HomogeneousSpace, invariant_basis, pi_project, space

__all__ = [
    "FlowConfig",
    "Basis",
    "DegenerateProblem",
    "GenericProblem",
    "DegenerateFlowState",
    "GenericFlowState",
    "Trajectory",
    "SmoothnessResult",
    "n11_problem",
    "flat7_problem",
    "smoothness_check",
    "startup_seed",
    "mirror_seed",
    "degenerate_rhs",
    "generic_rhs",
    "cocal_residual",
    "integrate",
    "torsion_residual",
    "deform_state",
    "generic_problem",
    "generic_state_from_split",
    "richardson_deviation",
]

_BLOWUP_NORM = 1e8
# Work caps, checked before a run starts.  A degenerate sample holds about
# 1.8 kB and takes about 1 ms: 10^5 samples are 180 MB and minutes of work.
_MAX_SAMPLES = 10**5
# A degenerate rk4 step (4 rhs and a validity check) takes about 1.4 ms:
# 10^6 steps are about 25 minutes.
_MAX_RK4_STEPS = 10**6
# Step halvings rk45 tries in a row before it gives up on a step.
_MAX_RETRIES = 60


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
        _check_projection(self.mat, coeffs, target, what)
        return coeffs


def _cached(problem, key, build: Callable):
    """The problem's value under key, built by build() on first use."""
    if key not in problem._cache:
        problem._cache[key] = build()
    return problem._cache[key]


def _cached_basis(problem, degree: int, fiber: int | None = None) -> Basis:
    """The invariant basis of a degree on the problem's space, without the
    forms that have a term along the fiber axis when one is given."""

    def build():
        forms = [
            b.form
            for b in invariant_basis(problem.space, degree)
            if fiber is None
            or all(fiber not in t or c == 0 for t, c in zip(b.form.tuples(), b.form.coeffs))
        ]
        mat = np.stack([f.coeffs for f in forms], axis=1)
        return Basis(forms, mat, np.linalg.pinv(mat))

    return _cached(problem, ("basis", degree, fiber), build)


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
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        nm = self.space.mdim
        if self.omega0.dim != nm or self.rho0.dim != nm:
            raise ValueError("omega0/rho0 must live on m")
        ev = np.zeros(nm)
        ev[self.e_phi_index] = 1.0
        for frm in (self.omega0, self.rho0):
            if interior(ev, frm).max_abs() > 1e-12 * max(frm.max_abs(), 1e-30):
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
        return _cached(self, "de_phi", lambda: self.space.d(self.e_phi_form()))

    def lie_ephi_matrix(self, degree: int) -> np.ndarray:
        build = lambda: self.e_phi_scale * self.space.lie_matrix(self.e_phi_index, degree)
        return _cached(self, ("lie", degree), build)

    def pi(self, form: KForm) -> KForm:
        return pi_project(form, self.e_phi_index)

    def to_dist(self, form: KForm) -> KForm:
        return restrict(form, self.dist_axes)

    def from_dist(self, form: KForm) -> KForm:
        return embed(form, self.mdim, list(self.dist_axes))

    def operators(self) -> "_Operators":
        """The flow's linear maps on coefficient vectors, cached."""
        return _cached(self, "operators", lambda: _Operators.build(self))

    def pack(self, w_coeffs: np.ndarray, S_coeffs: np.ndarray) -> np.ndarray:
        return np.concatenate([w_coeffs, S_coeffs])

    def unpack(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nw = self.w_basis().mat.shape[1]
        return y[:nw], y[nw:]


def _matrix_of(fn: Callable[[KForm], KForm], forms) -> np.ndarray:
    """Matrix of a linear map of forms: column i is fn(forms[i]).coeffs."""
    return np.stack([fn(x).coeffs for x in forms], axis=1)


@dataclass(frozen=True)
class _Operators:
    """The linear part of the degenerate flow, as matrices between
    coefficient vectors: w and S in the invariant bases, omega6, rho6 and
    the 4-form tau6 on the distribution, and the velocities on m."""

    omega6: np.ndarray  # w -> omega on the distribution
    s6: np.ndarray  # S -> S on the distribution
    d_rho: np.ndarray  # rho6 -> to_dist(pi(d from_dist(rho6)))
    w_de_phi: np.ndarray  # w -> to_dist(pi(omega7 ^ de^phi))
    lie_rho: np.ndarray  # rho6 -> L_{e_phi} from_dist(rho6)
    pi_d_w: np.ndarray  # w -> pi(d omega7)
    from_dist2: np.ndarray  # wdot6 -> from_dist(wdot6)
    w_e_phi: np.ndarray  # w -> omega7 ^ e^phi
    from_dist3: np.ndarray  # rho6 -> from_dist(rho6)

    @staticmethod
    def build(problem: "DegenerateProblem") -> "_Operators":
        w_forms, s_forms = problem.w_basis().forms, problem.s_basis().forms
        units = lambda k: [KForm(6, k, e) for e in np.eye(len(increasing_tuples(6, k)))]
        from_dist3 = _matrix_of(problem.from_dist, units(3))
        return _Operators(
            omega6=_matrix_of(problem.to_dist, w_forms),
            s6=_matrix_of(problem.to_dist, s_forms),
            d_rho=_matrix_of(
                lambda r: problem.to_dist(problem.pi(problem.space.d(problem.from_dist(r)))),
                units(3),
            ),
            w_de_phi=_matrix_of(
                lambda om: problem.to_dist(problem.pi(wedge(om, problem.de_phi()))), w_forms
            ),
            lie_rho=problem.lie_ephi_matrix(3) @ from_dist3,
            pi_d_w=_matrix_of(lambda om: problem.pi(problem.space.d(om)), w_forms),
            from_dist2=_matrix_of(problem.from_dist, units(2)),
            w_e_phi=_matrix_of(lambda om: wedge(om, problem.e_phi_form()), w_forms),
            from_dist3=from_dist3,
        )


@dataclass(frozen=True)
class GenericProblem:
    """Invariant generic-flow data: coefficients run over the invariant
    3-form basis of the space."""

    space: HomogeneousSpace
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

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

    def rho_form(self, on_distribution: bool = True) -> KForm:
        rho6 = -1.0 * stable.pair_structure(self.omega_form(), self.s_form())[3]
        return rho6 if on_distribution else self.problem.from_dist(rho6)

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
    PreconditionFailed).

    integrator is 'rk4-fixed' or 'rk45-adaptive' (aliases 'rk4'/'rk45').
    step is the fixed step; tol the adaptive error tolerance.  Samples
    are recorded every sample_dt.
    """

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
    # rhs_evals, accepted_steps, rejected_steps, h_min, h_max (None before a step)
    stats: dict | None = None
    sample_s: float = 0.0  # seconds integrate spent recording samples

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
    """The invariant family on the Aloff-Wallach space N^{1,1}.

    omega0 = a^2 e12 + b^2 e34 - c^2 e56 with the matching 3-form family
    (parameters must be nonzero).  'squared' uses the fiber generator of
    the squared line bundle with the orientation that makes the
    smoothness constant +1; 'unsquared' keeps the primitive fiber, whose
    constant -2 fails the smoothness test.
    """
    for name, val in (("a", a), ("b", b), ("c_param", c_param), ("theta", theta)):
        if not _is_finite_real(val):
            raise PreconditionFailed("family_parameter", f"{name} = {val!r} is not a finite number")
        if val == 0 and name != "theta":
            raise PreconditionFailed("family_parameter", f"{name} must be nonzero")
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
    """Fit c in L_{e_phi} rho0 = c J*rho0 and test L_{e_phi} omega0 = 0.

    ok requires |c| = 1 (the orbit-length condition for a smooth
    extension across the zero section).  Raises NotProportional when the
    fit residual exceeds 1e-10 relative, and PreconditionFailed
    ('classification') when rho0 is not stable on the distribution.
    """
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
    scale = max(float(np.max(np.abs(lrho))), 1e-30)
    if resid > 1e-10 * max(scale, 1.0):
        raise NotProportional(
            f"L_ephi rho is not proportional to J*rho (residual {resid:.2e})"
        )
    ok = abs(abs(c) - 1.0) < 1e-8 and lom_res < 1e-10
    return SmoothnessResult(c, ok, resid, lom_res)


def problem_smoothness(problem: DegenerateProblem) -> SmoothnessResult:
    return smoothness_check(
        problem.space, problem.omega0, problem.rho0, problem.e_phi_index, problem.e_phi_scale
    )


def startup_seed(problem: DegenerateProblem, c: float, epsilon: float) -> DegenerateFlowState:
    """First-order Taylor seed at t = epsilon for the singular startup.

    f = c epsilon, s = J*rho0 (its time derivative vanishes at t = 0 in
    these variables), and w = omega0 + epsilon wdot0 with
    wdot0 ^ omega0 = pi(d rho0).
    """
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
    if dww.max_abs() > 1e-10 * max(problem.omega0.max_abs() ** 2, 1.0):
        raise PreconditionFailed("cocalibration", "d omega0 ^ omega0 != 0")
    try:
        sm = problem_smoothness(problem)
    except NotProportional as exc:
        raise PreconditionFailed("smoothness_proportionality", str(exc)) from exc
    if abs(sm.c - c) > 1e-8 * max(abs(c), 1.0):
        raise PreconditionFailed(
            "smoothness_constant", f"required c = {c}, data gives c = {sm.c}"
        )
    if abs(abs(c) - 1.0) > 1e-8:
        raise PreconditionFailed(
            "smoothness_norm", f"|c| = {abs(c)} != 1: no smooth extension"
        )
    jrho6 = cls.jrho
    drho = problem.space.d(problem.rho0)
    tau6 = problem.to_dist(problem.pi(drho))
    wdot0 = stable.solve_wedge_omega(om6, tau6)
    w_form7 = problem.omega0 + epsilon * problem.from_dist(wdot0)
    w = problem.w_basis().coords(w_form7.coeffs, "omega seed")
    s = problem.s_basis().coords(problem.from_dist(jrho6).coeffs, "s seed")
    return DegenerateFlowState(t=epsilon, f=c * epsilon, w=w, s=s, problem=problem)


def mirror_seed(problem: DegenerateProblem, c: float, epsilon: float) -> DegenerateFlowState:
    """Seed of the analytic continuation branch at t = -epsilon.

    The continuation through the singular time has f odd, so the
    backward branch starts with f = -c epsilon; geometric quantities
    depend on |f|.
    """
    fwd = startup_seed(problem, c, epsilon)
    wb = problem.w_basis()
    mirrored = 2.0 * problem.omega0 - KForm(problem.mdim, 2, wb.mat @ fwd.w)  # omega0 - eps*wdot0
    return DegenerateFlowState(
        t=-epsilon, f=-c * epsilon, w=wb.pinv @ mirrored.coeffs, s=fwd.s, problem=problem
    )


def _check_projection(mat, coeffs, target, what: str):
    resid = float(np.max(np.abs(mat @ coeffs - target)))
    if resid > 1e-9 * max(float(np.max(np.abs(target))), 1.0):
        raise ProjectionFailure(f"{what} leaves the invariant subspace (residual {resid:.2e})")


# ----------------------------------------------------------------------
# degenerate flow right-hand side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Split:
    """The split of a packed state (w, S = f J*rho): omega, rho and S on
    the distribution as coefficient vectors, the fiber length f, J and
    the sign of lambda (J^2 = sign Id)."""

    om6: np.ndarray
    rho6: np.ndarray
    S6: np.ndarray
    f: float
    J: np.ndarray
    sign: int


def _derive_split(problem: DegenerateProblem, y: np.ndarray, branch: float) -> _Split:
    """f and rho from S by the normalization J*r ^ r = (2/3) omega^3 with
    r = -J*S: since J*(J*S) = sign S, the ratio J*r ^ r / ((2/3) omega^3)
    is -sign nu(omega, S), and one pullback of S by J is all it takes."""
    ops = problem.operators()
    w, S = problem.unpack(y)
    om6, S6 = ops.omega6 @ w, ops.s6 @ S
    J, sign, jS, nu = stable.pair_coeffs(om6, S6)
    ratio = -sign * nu
    if not np.isfinite(ratio) or ratio <= 0:
        raise UnstableForm(f"normalization ratio {ratio} is not positive")
    f = branch * math.sqrt(ratio)
    return _Split(om6, jS * (-1.0 / f), S6, f, J, sign)


def _split_class(sp: _Split) -> stable.StructureClass:
    """The class of the split's pair by ``stable.classify_coeffs``, with
    the split's J and sign and J*rho = -sign S/f (no pullback).  The split
    itself has already refused lambda ~ 0."""
    return stable.classify_coeffs(sp.om6, sp.rho6, sp.J, sp.sign, (-sp.sign / sp.f) * sp.S6)[0]


def _velocity(problem: DegenerateProblem, om6, rho6, f: float, w):
    """The two flow equations on coefficients: the 2-form velocity solving
    wdot ^ omega = pi(d rho) + f omega ^ de^phi and the 3-form velocity
    L_{e_phi} rho - f pi(d omega), both as coefficient vectors on m."""
    ops = problem.operators()
    tau6 = ops.d_rho @ rho6 + f * (ops.w_de_phi @ w)
    wdot7 = ops.from_dist2 @ stable.solve_wedge_coeffs(om6, tau6)
    return wdot7, ops.lie_rho @ rho6 - f * (ops.pi_d_w @ w)


def _rhs_packed(problem: DegenerateProblem, y: np.ndarray, branch: float) -> np.ndarray:
    """The packed velocity (wdot, Sdot) at a packed state."""
    sp = _derive_split(problem, y, branch)
    wdot7, Sdot7 = _velocity(problem, sp.om6, sp.rho6, sp.f, problem.unpack(y)[0])
    wdot = problem.w_basis().coords(wdot7, "omega velocity")
    return problem.pack(wdot, problem.s_basis().coords(Sdot7, "s velocity"))


def degenerate_rhs(state: DegenerateFlowState) -> tuple[float, KForm, KForm]:
    """Split right-hand side (df/dt, dw/dt, ds/dt) at a state.

    The two flow equations with df = 0 on the slice, from the same
    coefficient-space velocities as the integrator: the 2-form velocity
    solves  wdot ^ omega = pi(d rho) + f omega ^ de^phi, fdot is the
    g-orthogonal coefficient of RHS2 = L_{e_phi} rho - f pi(d omega)
    along s, and sdot = (RHS2 - fdot s)/f.  At f = 0 the right-hand side
    is purely along s and sdot = 0.
    """
    problem = state.problem
    if state.f < 0:
        raise NonpositiveF("state has negative fiber length")
    om6 = state.omega_form()
    s6 = state.s_form()
    _, g6, _, js6 = stable.pair_structure(om6, s6)
    wdot7, rhs2_7 = _velocity(problem, om6.coeffs, -js6.coeffs, state.f, state.w)
    wdot6 = problem.to_dist(KForm(problem.mdim, 2, wdot7))
    rhs2_6 = problem.to_dist(KForm(problem.mdim, 3, rhs2_7))
    fdot = float(form_pairing(g6, rhs2_6, s6) / form_pairing(g6, s6, s6))
    residual = rhs2_6 - fdot * s6
    if state.f == 0:
        if residual.max_abs() > 1e-8 * max(rhs2_6.max_abs(), 1.0):
            raise UnstableForm("right-hand side is not parallel to s at f = 0")
        sdot6 = KForm.zero(6, 3)
    else:
        sdot6 = residual * (1.0 / state.f)
    return fdot, wdot6, sdot6


# ----------------------------------------------------------------------
# generic flow right-hand side
# ----------------------------------------------------------------------
def _stable_structure(phi: KForm):
    s = seven_structure(phi)
    if not s.ok:
        raise UnstableForm("phi is not a stable 3-form")
    return s


def generic_rhs(state: GenericFlowState) -> np.ndarray:
    """Coefficient velocity solving J_*(x) xdot = coeffs(d phi(x)).

    J_* is the Jacobian of the star-coefficient map, the closed-form
    derivative of phi -> *phi (``g2spin7.star_derivative``, after Hitchin,
    arXiv:math/0107101, and Bryant, arXiv:math/0305124) restricted to the
    invariant bases; raises SingularJacobian when its condition number
    exceeds 1e12.
    """
    problem = state.problem
    x = np.asarray(state.x, dtype=float)
    basis4 = problem.basis(4)
    phi = problem.phi(x)
    s = _stable_structure(phi)
    jac = basis4.pinv @ star_derivative(s) @ problem.basis(3).mat
    cond = np.linalg.cond(jac)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularJacobian(f"star-coefficient Jacobian condition number {cond:.2e}")
    rhs = basis4.coords(problem.space.d(phi).coeffs, "d phi")
    return np.linalg.solve(jac, rhs)


def cocal_residual(state: GenericFlowState | DegenerateFlowState) -> float:
    """Sup-norm of the coefficients of d(*phi)."""
    if isinstance(state, GenericFlowState):
        star = _stable_structure(state.phi_form()).star_phi
    else:
        star = _degenerate_star(state)
    return float(state.problem.space.d(star).max_abs())


def _degenerate_star(state: DegenerateFlowState) -> KForm:
    """*phi = omega^2/2 + f e^phi ^ s for split states."""
    problem = state.problem
    om7 = state.omega_form(on_distribution=False)
    s7 = state.s_form(on_distribution=False)
    return 0.5 * wedge(om7, om7) + state.f * wedge(problem.e_phi_form(), s7)


# ----------------------------------------------------------------------
# integrators
# ----------------------------------------------------------------------
def _rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + h / 2, y + h / 2 * k1)
    k3 = f(t + h / 2, y + h / 2 * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _dp_step(f, t, y, h, k1):
    """One Dormand-Prince step from the first stage k1 = f(t, y).  The
    5th-order solution is the 7th stage's argument itself, so the last
    stage f(t + h, y5) is the next step's first ("first same as last");
    returns (y5, error estimate, last stage)."""
    k = [k1]
    for i in range(1, 7):
        yi = y + h * sum(a * kk for a, kk in zip(_DP_A[i], k))
        k.append(f(t + _DP_C[i] * h, yi))
    err = h * ((_DP_B5 - _DP_B4) @ np.stack(k))
    return yi, err, k[-1]


# Numerical events a step may run into.  The adaptive integrator retries
# them with a smaller step and the fixed-step one stops; any other
# exception (a DimensionMismatch, a ProjectionFailure) is a defect and
# propagates out of integrate.
_NUMERICAL_FAILURES = (
    UnstableForm,
    DegenerateOmega,
    DegenerateMetric,
    NonpositiveF,
    SingularJacobian,
    np.linalg.LinAlgError,
)


@dataclass
class _Stats:
    """What the integrator did: right-hand side evaluations, accepted and
    rejected steps, and the smallest and largest accepted |h|."""

    rhs_evals: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0
    h_min: float | None = None
    h_max: float | None = None

    def accept(self, h: float):
        h = abs(float(h))
        self.accepted_steps += 1
        self.h_min = h if self.h_min is None else min(self.h_min, h)
        self.h_max = h if self.h_max is None else max(self.h_max, h)


def _advance_rk4(f, t0, y0, t1, step, validity, stats):
    n = max(1, int(round(abs(t1 - t0) / step)))
    h = (t1 - t0) / n
    t, y = t0, y0
    for _ in range(n):
        try:
            ynew = _rk4_step(f, t, y, h)
        except _NUMERICAL_FAILURES as exc:
            stats.rejected_steps += 1
            raise StepFailure(f"right-hand side failed at t = {t:.6g}: {exc}") from exc
        if not validity(ynew):
            stats.rejected_steps += 1
            raise StepFailure(f"fixed-step state check failed at t = {t + h:.6g}")
        stats.accept(h)
        t, y = t + h, ynew
    return y


def _advance_rk45(f, t0, y0, t1, tol, h, k1, validity, stats):
    """Adaptive steps from t0 to t1, starting from step h (None for the
    default) and the first stage k1 = f(t0, y0) (None when not yet
    evaluated); returns the state at t1, the step to try next and the
    state's first stage.  A step starts from the last stage of the step
    before it, or from the first stage of a rejected attempt."""
    t, y = t0, y0
    direction = 1.0 if t1 >= t0 else -1.0
    if h is None:
        h = direction * min(abs(t1 - t0), 1e-2)
    if h * direction <= 0:
        h = direction * abs(h)
    retries = 0
    while (t1 - t) * direction > 1e-15:
        h = direction * min(abs(h), abs(t1 - t))
        if t + h == t:
            raise StepFailure(f"step {h:.3g} no longer advances t = {t:.9g}")
        try:
            if k1 is None:
                k1 = f(t, y)
            ynew, err, klast = _dp_step(f, t, y, h, k1)
            scale = tol + tol * np.maximum(np.abs(y), np.abs(ynew))
            enorm = float(np.sqrt(np.mean((err / scale) ** 2)))
            ok = np.all(np.isfinite(ynew)) and enorm <= 1.0 and validity(ynew)
        except _NUMERICAL_FAILURES:
            ok, enorm = False, np.inf
        if ok:
            stats.accept(h)
            t, y, k1 = t + h, ynew, klast
            retries = 0
            grow = 0.9 * enorm ** (-0.2) if enorm > 0 else 5.0
            h = h * min(5.0, max(0.2, grow))
        else:
            stats.rejected_steps += 1
            retries += 1
            if retries > _MAX_RETRIES:
                raise StepFailure(f"no acceptable step at t = {t:.6g}")
            h = h / 2
    return y, h, k1


def _advancer(config: FlowConfig, rhs, validity, stats: _Stats):
    """advance(t0, y0, t1) -> y for the configured integrator, counting
    its steps in stats; the adaptive one carries its step, and the last
    stage of its last step as the next interval's first stage (both flows
    are autonomous, so that stage is f(t0, y0) however t0 rounds)."""
    if config.kind() == "rk4":
        return lambda t0, y0, t1: _advance_rk4(rhs, t0, y0, t1, config.step, validity, stats)
    h = k1 = None

    def advance(t0, y0, t1):
        nonlocal h, k1
        y, h, k1 = _advance_rk45(rhs, t0, y0, t1, config.tol, h, k1, validity, stats)
        return y

    return advance


# ----------------------------------------------------------------------
# integrate
# ----------------------------------------------------------------------
def _seven(data: dict, phi: np.ndarray) -> SevenStructure:
    """The 7-dimensional structure of phi's coefficients on m, the one
    ``seven_structure`` call of a sample; phi and *phi (None when phi is
    not stable) go into the sample data, where torsion_residual reads them."""
    s = seven_structure(KForm(7, 3, phi))
    data["phi"], data["star_phi"] = phi, (s.star_phi.coeffs if s.ok else None)
    return s


def _split_monitors(problem: DegenerateProblem, s7: SevenStructure, s6: np.ndarray,
                    sign: int) -> dict:
    """The class, |s|^2 - 4 and the signature of g8 = g7 + dr^2 from the
    metric g7 of phi alone: on the distribution g7 is the metric g6 of
    (omega, rho), whose signature and the sign of lambda give the class."""
    tag = stable.StructureClass.NOT_A_STRUCTURE
    if s7.ok:
        g6 = SymBilinear(s7.g7.matrix[np.ix_(problem.dist_axes, problem.dist_axes)])
        try:
            tag = stable.signature_class(g6.signature(), sign)
        except ValueError:  # g6 is degenerate
            pass
    if tag is stable.StructureClass.NOT_A_STRUCTURE:
        return {"normalization_residual": np.inf, "class": tag.value, "g8_signature": None}
    s6, (p, q) = KForm(6, 3, s6), s7.g7.signature()
    return {"normalization_residual": abs(float(form_pairing(g6, s6, s6)) - 4.0),
            "class": tag.value, "g8_signature": (p + 1, q)}


@dataclass(frozen=True)
class _Flow:
    """One flow as the sampling loop sees it: the packed start vector,
    the packed right-hand side rhs(t, y), the trial-state check
    validity(y), the recorder sample(t, y) and the monitors the first
    sample must reproduce (None when there is no reference)."""

    kind: str
    y0: np.ndarray
    rhs: Callable[[float, np.ndarray], np.ndarray]
    validity: Callable[[np.ndarray], bool]
    sample: Callable[[float, np.ndarray], Sample]
    reference: dict | None = None


def _degenerate_flow(seed: DegenerateFlowState) -> _Flow:
    """The pair (omega, S = f J*rho) packed; f is re-derived from S.

    A trial state is valid when its split has the seed's class.  A sample
    classifies from the metric of phi = f omega ^ e^phi + rho instead.
    When the seed's own pair is an SU(3) or SU(1,2) structure, the first
    sample must reproduce the seed's class and the g8 signature of
    ``bundle_Phi``, the 8-form construction on the KForm path."""
    problem, ops = seed.problem, seed.problem.operators()
    branch = 1.0 if seed.f >= 0 else -1.0
    y0 = problem.pack(seed.w, seed.f * seed.s)
    try:
        seed_tag = _split_class(_derive_split(problem, y0, branch))
    except UnstableForm as exc:  # f J*rho too small (or large) to split in floats
        raise PreconditionFailed("seed_split", f"no split at t = {seed.t}: {exc}") from exc
    reference = None
    try:
        split = BundleSplitData.from_distribution(abs(seed.f), seed.omega_form(), seed.rho_form())
        g8 = bundle_Phi(split)[1]
        sig8 = g8.signature() if g8.is_nondegenerate() else None
        reference = {"class": seed_tag.value, "g8_signature": sig8}
    except UnstableForm:  # classify_pair refuses the seed's pair: nothing to compare
        pass

    def validity(y):
        if float(np.max(np.abs(y))) > _BLOWUP_NORM:
            return True  # handled as blow-up at the next sample
        try:
            sp = _derive_split(problem, y, branch)
        except _NUMERICAL_FAILURES:
            return False
        return _split_class(sp) is seed_tag

    def sample(t, y):
        sp = _derive_split(problem, y, branch)
        w, S = problem.unpack(y)
        state = DegenerateFlowState(t, sp.f, w, S / sp.f, problem)
        data = {"f": state.f, "w": state.w.copy(), "s": state.s.copy()}
        s7 = _seven(data, sp.f * (ops.w_e_phi @ w) + ops.from_dist3 @ sp.rho6)
        monitors = {"cocal_residual": cocal_residual(state)}
        monitors.update(_split_monitors(problem, s7, ops.s6 @ state.s, sp.sign))
        return Sample(t, data, monitors)

    return _Flow(
        "degenerate",
        y0,
        lambda t, y: _rhs_packed(problem, y, branch),
        validity,
        sample,
        reference,
    )


def _generic_flow(seed: GenericFlowState) -> _Flow:
    problem = seed.problem
    seed_class = _stable_structure(seed.phi_form()).klass

    def validity(y):
        if float(np.max(np.abs(y))) > _BLOWUP_NORM:
            return True
        return seven_structure(problem.phi(y)).klass is seed_class

    def sample(t, y):
        data = {"x": y.copy()}
        s = _seven(data, problem.phi(y).coeffs)
        cocal = float(problem.space.d(s.star_phi).max_abs()) if s.ok else np.inf
        return Sample(t, data, {"cocal_residual": cocal, "class": s.klass.value})

    return _Flow(
        "generic",
        np.asarray(seed.x, dtype=float),
        lambda t, y: generic_rhs(GenericFlowState(t, y, problem)),
        validity,
        sample,
    )


def integrate(config: FlowConfig, seed) -> Trajectory:
    """Advance a seed to config.t_end, sampling every config.sample_dt.

    For a degenerate seed t_end must lie on the side of the seed away from
    the zero section f = 0 (raises PreconditionFailed).  Stops early with
    stop_reason 'blow_up' when the coefficient norm exceeds 1e8, and with
    'step_failure' when no acceptable step exists; stop_cause then says
    why.  The trajectory's stats count what the integrator did.

    Raises PreconditionFailed before any step when the run would record
    more than _MAX_SAMPLES samples or take more than _MAX_RK4_STEPS rk4
    steps, and when the first sample does not reproduce the seed's
    reference class and g8 signature.
    """
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
    elif isinstance(seed, GenericFlowState):
        flow = _generic_flow(seed)
    else:
        raise TypeError(f"unknown seed type {type(seed)}")
    stats = _Stats()

    def rhs(t, y):
        stats.rhs_evals += 1
        return flow.rhs(t, y)

    sample_s = 0.0

    def sample(t, y):
        nonlocal sample_s
        start = time.perf_counter()
        out = flow.sample(t, y)
        sample_s += time.perf_counter() - start
        return out

    advance = _advancer(config, rhs, flow.validity, stats)
    times = _sample_times(seed.t, config.t_end, config.sample_dt)
    y = flow.y0
    samples = [sample(times[0], y)]
    first = samples[0].monitors
    if flow.reference and any(first[k] != v for k, v in flow.reference.items()):
        found = {k: first[k] for k in flow.reference}
        raise PreconditionFailed("seed_reference", f"first sample {found} != seed {flow.reference}")
    stop, cause = "completed", None
    for t_prev, t_next in zip(times[:-1], times[1:]):
        try:
            y = advance(t_prev, y, t_next)
        except StepFailure as exc:
            stop, cause = "step_failure", str(exc)
            break
        norm = float(np.max(np.abs(y)))
        if norm > _BLOWUP_NORM:
            stop, cause = "blow_up", f"coefficient norm {norm:.3g} at t = {t_next:.6g}"
            break
        samples.append(sample(t_next, y))
    return Trajectory(flow.kind, tuple(samples), stop, config, seed.problem, cause,
                      asdict(stats), sample_s)


def _sample_times(t0: float, t1: float, dt: float) -> np.ndarray:
    n = int(math.floor(abs(t1 - t0) / dt + 1e-9))
    sign = 1.0 if t1 >= t0 else -1.0
    ts = [t0 + sign * dt * k for k in range(n + 1)]
    if abs(ts[-1] - t1) > 1e-12:
        ts.append(t1)
    return np.array(ts)


# ----------------------------------------------------------------------
# torsion residual and helpers
# ----------------------------------------------------------------------
def torsion_residual(traj: Trajectory) -> np.ndarray:
    """Per-sample residual |d/dt(*phi) - d phi| + |d(*phi)| on the stored
    grid (``np.gradient``: second-order centered differences inside,
    one-sided second order at the ends).

    Reads phi and *phi as each sample stored them from its 7-dimensional
    structure, independently of the evolution variables; raises
    UnstableForm when a sample's phi is not stable."""
    n = len(traj.samples)
    if n < 3:
        raise ValueError("need at least 3 samples")
    if any(s.data["star_phi"] is None for s in traj.samples):
        raise UnstableForm("phi is not a stable 3-form")
    sp = traj.problem.space
    stars = traj.series("star_phi")
    derivs = np.gradient(stars, traj.times(), axis=0, edge_order=2)
    flow_res = np.max(np.abs(derivs - traj.series("phi") @ sp.d_matrix(3).T), axis=1)
    return flow_res + np.max(np.abs(stars @ sp.d_matrix(4).T), axis=1)


def deform_state(state: DegenerateFlowState, theta: float) -> DegenerateFlowState:
    """Theta-deformation of a split state via the fiber-rotation action.

    Implemented as the pullback exp(-theta/2 L_{e7}) on both coefficient
    blocks (the angle convention matches L_{e7} rho0 = -2 J*rho0, so the
    seed's 3-form moves along the family with parameter +theta while the
    fiber length is unchanged).  On the seed this reduces to
    s -> cos(theta) s - sin(theta) rho.
    """
    problem = state.problem
    alpha = -theta / 2.0
    t2 = linalg.expm(alpha * problem.space.lie_matrix(problem.e_phi_index, 2))
    t3 = linalg.expm(alpha * problem.space.lie_matrix(problem.e_phi_index, 3))
    wb, sb = problem.w_basis(), problem.s_basis()
    w = wb.coords(t2 @ (wb.mat @ state.w), "deformed omega")
    s = sb.coords(t3 @ (sb.mat @ state.s), "deformed s")
    return replace(state, w=w, s=s)


def generic_state_from_split(
    gproblem: GenericProblem, dproblem: DegenerateProblem, f: float, t: float = 0.0
) -> GenericFlowState:
    """Invariant generic seed phi = f omega0 ^ e^phi + rho0 from split data."""
    phi = f * wedge(dproblem.omega0, dproblem.e_phi_form()) + dproblem.rho0
    return GenericFlowState(t, gproblem.basis(3).coords(phi.coeffs, "generic seed"), gproblem)


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
