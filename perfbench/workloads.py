"""Seeded workloads of the hitchinflow benchmark.

Each workload is a list of points made from the seed alone and one
operation per point that drives the library only through its public
calls (``cli.run_point``, ``flow.integrate``/``torsion_residual``,
``verify.verify_identities``) and checks what it returns.

The n11 family points draw a, b, c_param with random signs and
magnitudes uniform in [0.9, 1.6], and theta uniform in [0, 2 pi).  Lower
magnitudes reach points whose degenerate flow degenerates (omega^3 -> 0)
before t = 0.5, e.g. |a, b, c| = (1.40, 0.64, 0.66) at t = 0.428, where
rk45 shrinks its step without end (see README.md).

Within one list the magnitudes are Latin-hypercube stratified over half
the points and mirrored (x -> lo + hi - x) for the other half, and theta
is stratified.  Every coordinate keeps a uniform marginal, but a list
covers its ranges evenly, so its cost varies less from seed to seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Library calls go through module attributes, so that the tracer's
# replacements of those attributes see them.
from hitchinflow import cli, flow, forms, g2spin7, verify

MAGNITUDE = (0.9, 1.6)
STARTUP_EPSILON = 1e-4
# The abelian7 seed is stationary but costs about twice an n11 seed per
# step (35 coefficients against 13), so it runs half as far.
GENERIC_T_END = {"n11": 0.1, "abelian7": 0.05}
ABELIAN_PULLBACK_SCALE = 0.05

# Residual bounds already pinned by the repository's tests: the
# cocalibration bound of acceptance criterion 4 (tests/test_acceptance.py)
# and the normalization bound of tests/test_flow.py::test_n11_short_run_monitors.
COCAL_BOUND = 1e-6
NORMALIZATION_BOUND = 1e-10


# Nominal seconds per point at the commit that defined the benchmark.  They
# size a run's list to its --seconds and stay fixed afterwards, so a
# faster program runs the same list in less time.
POINT_S = {"deg-rk45": 1.25, "deg-rk4": 2.7, "generic-rk45": 3.5, "exact-identities": 4.5}


def list_size(workload: str, seconds: float) -> int:
    """Points in one list: enough to fill ``seconds`` at the nominal cost."""
    return max(1, round(seconds / POINT_S[workload]))


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------
def _stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n


def _mirrored(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    x = _stratified(rng, (n + 1) // 2, lo, hi)
    return np.concatenate([x, lo + hi - x])[:n]


def family_points(rng: np.random.Generator, n: int) -> list[dict]:
    """n squared-bundle points of the n11 family."""
    mags = [_mirrored(rng, n, *MAGNITUDE) for _ in range(3)]
    signs = rng.choice((-1.0, 1.0), size=(3, n))
    thetas = _stratified(rng, n, 0.0, 2 * math.pi)
    return [
        {
            "a": float(signs[0, i] * mags[0][i]),
            "b": float(signs[1, i] * mags[1][i]),
            "c_param": float(signs[2, i] * mags[2][i]),
            "theta": float(thetas[i]),
            "bundle": "squared",
        }
        for i in range(n)
    ]


def points(workload: str, seed: int, n: int) -> list[dict]:
    """The workload's list of n points; a function of (workload, seed, n) only."""
    if workload not in POINT_S:
        raise KeyError(f"unknown workload {workload!r}; known: {sorted(POINT_S)}")
    rng = np.random.default_rng(seed)
    if workload in ("deg-rk45", "deg-rk4"):
        return family_points(rng, n)
    if workload == "generic-rk45":
        out = [{"space": "n11", **p} for p in family_points(rng, max(n - 1, 1))]
        pull = np.eye(7) + ABELIAN_PULLBACK_SCALE * rng.normal(size=(7, 7))
        return out + [{"space": "abelian7", "pullback": pull.tolist()}]
    return [{"pass": i} for i in range(n)]


# ----------------------------------------------------------------------
# set-up and operations
# ----------------------------------------------------------------------
def prepare(workload: str, point: dict):
    """The set-up a fresh process pays before its first point: space
    registry, invariant bases, smoothness check and seed."""
    if workload in ("deg-rk45", "deg-rk4"):
        problem = flow.n11_problem(**point)
        sm = flow.smoothness_check(
            problem.space, problem.omega0, problem.rho0, problem.e_phi_index, problem.e_phi_scale
        )
        return flow.startup_seed(problem, sm.c, STARTUP_EPSILON)
    if workload == "generic-rk45":
        return _generic_seed(point)
    return None  # the identity suite has no per-point set-up beyond the import


@dataclass
class Outcome:
    """Result of one point: operations attempted and failed, a digest of
    the program's output, and why checks failed."""

    attempted: int
    failed: int
    digest: str | None
    problems: list[str]


def execute(workload: str, point: dict, scratch: Path) -> Outcome:
    """Run one point and check its output; a crash is one failed operation."""
    try:
        if workload in ("deg-rk45", "deg-rk4"):
            return _degenerate(workload, point, scratch)
        if workload == "generic-rk45":
            return _generic(point)
        return _identities()
    except Exception as exc:  # the run goes on; the crash is counted
        return Outcome(1, 1, None, [f"{type(exc).__name__}: {exc}"])


def _degenerate(workload: str, point: dict, scratch: Path) -> Outcome:
    if workload == "deg-rk45":
        cfg = flow.FlowConfig(space="n11", t_end=0.5, integrator="rk45-adaptive", tol=1e-9)
    else:
        cfg = flow.FlowConfig(space="n11", t_end=0.5, integrator="rk4-fixed", step=2e-3)
    report = cli.run_point("n11-spin7", point, cfg, scratch)
    problems = []
    if report.stop_reason != "completed":
        problems.append(f"stop reason {report.stop_reason}")
    if report.classification_first != report.classification_last:
        problems.append(
            f"class {report.classification_first} -> {report.classification_last}"
        )
    if not report.max_cocal_residual < COCAL_BOUND:
        problems.append(f"cocal residual {report.max_cocal_residual:.3e}")
    if not report.max_normalization_residual < NORMALIZATION_BOUND:
        problems.append(f"normalization residual {report.max_normalization_residual:.3e}")
    digest = hashlib.sha256((scratch / "trajectory.csv").read_bytes()).hexdigest()
    return Outcome(1, int(bool(problems)), digest, problems)


def _generic_seed(point: dict) -> flow.GenericFlowState:
    gp = flow.generic_problem(point["space"])
    if point["space"] == "abelian7":
        _, _, pinv3 = gp.basis(3)
        phi = forms.pullback(np.array(point["pullback"]), g2spin7.model_phi("su3"))
        return flow.GenericFlowState(0.0, pinv3 @ phi.coeffs, gp)
    params = {k: point[k] for k in ("a", "b", "c_param", "theta", "bundle")}
    return flow.generic_state_from_split(gp, flow.n11_problem(**params), 1.0)


def _generic(point: dict) -> Outcome:
    cfg = flow.FlowConfig(
        space=point["space"], t_end=GENERIC_T_END[point["space"]], integrator="rk45-adaptive", tol=1e-9
    )
    traj = flow.integrate(cfg, _generic_seed(point))
    torsion = flow.torsion_residual(traj)
    problems = []
    if traj.stop_reason != "completed":
        problems.append(f"stop reason {traj.stop_reason}")
    first, last = traj.samples[0].monitors["class"], traj.samples[-1].monitors["class"]
    if first != last:
        problems.append(f"class {first} -> {last}")
    cocal = float(np.max(traj.monitor("cocal_residual")))
    if not cocal < COCAL_BOUND:
        problems.append(f"cocal residual {cocal:.3e}")
    h = hashlib.sha256()
    for sample in traj.samples:
        h.update(np.float64(sample.t).tobytes() + np.asarray(sample.data["x"]).tobytes())
    h.update(np.asarray(torsion).tobytes())
    return Outcome(1, int(bool(problems)), h.hexdigest(), problems)


def _identities() -> Outcome:
    checks = verify.verify_identities()
    failed = [c.name for c in checks if not c.passed]
    text = "\n".join(f"{c.name}:{c.passed}" for c in checks)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return Outcome(len(checks), len(failed), digest, [f"identity {n} failed" for n in failed])
