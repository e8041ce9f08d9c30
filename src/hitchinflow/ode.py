"""Explicit Runge-Kutta integration of y' = f(t, y) on float vectors,
sampled on a grid of times.

rk4 divides each sample interval into fixed steps.  Dormand-Prince rk45's
steps ignore the sample grid: each reuses the last stage of the step
before it ("first same as last"), and a sample inside a step is read from
that step's stages by the continuous extension of order 4, at no rhs cost
(Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.6).

A caller's check(y) is (reason, found): reason None for an acceptable
state, else why it refuses it, and found what the check learned of it.
Each sample is yielded as (t, y, found), with the finding of the check
of its own state.  A run ends early in one way: ``Stop(stop_reason,
stop_cause)``, with 'blow_up' past ``BLOWUP_NORM``, 'step_budget' past
``MAX_RK45_STEPS`` accepted rk45 steps, or 'step_failure' when no
acceptable step exists.  ``Stats`` counts what the integrator did.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMetric, DegenerateOmega, NonpositiveF, UnstableForm

BLOWUP_NORM = 1e8
# An rk45 step (6 rhs and a step check) takes about 0.35 ms on n11's
# degenerate flow and 1.3 ms on its generic one (2 x86 cores, numpy 2.4):
# 10^4 accepted steps are about 3.5 s and 13 s.
MAX_RK45_STEPS = 10**4
# Step halvings rk45 tries in a row before it gives up on a step.
MAX_RETRIES = 60

# Numerical events a step may run into.  The adaptive integrator retries
# them with a smaller step and the fixed-step one stops; any other
# exception (a DimensionMismatch, a ProjectionFailure) is a defect and
# propagates out of the run.
NUMERICAL_FAILURES = (UnstableForm, DegenerateOmega, DegenerateMetric, NonpositiveF,
                      np.linalg.LinAlgError)


class Stop(Exception):
    """A run ends early with args (stop_reason, stop_cause)."""


@dataclass
class Stats:
    """What the integrator did: right-hand side evaluations, accepted and
    rejected steps, the smallest and largest accepted |h|, and rejections
    by cause: "error_norm" (error estimate above 1 or a state not finite),
    the numerical exception's class, or the reason the step check gave."""

    rhs_evals: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0
    h_min: float | None = None
    h_max: float | None = None
    rejections: dict = field(default_factory=dict)

    def counted(self, f):
        """f, each call counted in rhs_evals."""
        def counted(t, y):
            self.rhs_evals += 1
            return f(t, y)
        return counted

    def reject(self, cause: str):
        self.rejected_steps += 1
        self.rejections[cause] = self.rejections.get(cause, 0) + 1

    def accept(self, h: float):
        h = abs(float(h))
        self.accepted_steps += 1
        self.h_min = h if self.h_min is None else min(self.h_min, h)
        self.h_max = h if self.h_max is None else max(self.h_max, h)


def sample_times(t0: float, t1: float, dt: float) -> np.ndarray:
    """t0, t0 + dt, ... toward t1, and t1 itself."""
    n = int(math.floor(abs(t1 - t0) / dt + 1e-9))
    sign = 1.0 if t1 >= t0 else -1.0
    ts = [t0 + sign * dt * k for k in range(n + 1)]
    if abs(ts[-1] - t1) > 1e-12:
        ts.append(t1)
    return np.array(ts)


def rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + h / 2, y + h / 2 * k1)
    k3 = f(t + h / 2, y + h / 2 * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


# Dormand-Prince 5(4) tableau
DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
DP_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
# the continuous extension of order 4 (Shampine 1986; Hairer, Norsett &
# Wanner, II.6): row i holds the coefficients of theta, ..., theta^4 in b_i
DP_DENSE = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


def dp_step(f, t, y, h, k1):
    """One Dormand-Prince step from the first stage k1 = f(t, y).  The
    5th-order solution is the 7th stage's argument itself, so the last
    stage f(t + h, y5) is the next step's first ("first same as last");
    returns (y5, error estimate, the 7 stages as rows)."""
    stages = np.empty((7, len(y)))
    stages[0] = k1
    for i in range(1, 7):
        yi = y + h * (DP_A[i, :i, None] * stages[:i]).sum(axis=0)
        stages[i] = f(t + DP_C[i] * h, yi)
    return yi, h * ((DP_B5 - DP_B4) @ stages), stages


def dense(y, h, stages, theta):
    """The state at theta = (t - t_n) / h in [0, 1] of the step of size h
    from y with these stages: y + h sum_i b_i(theta) k_i."""
    return y + h * ((DP_DENSE @ theta ** np.arange(1, 5)) @ stages)


def check_norm(t, y):
    if (norm := float(np.abs(y).max())) > BLOWUP_NORM:
        raise Stop("blow_up", f"coefficient norm {norm:.3g} at t = {t:.6g}")


def rk4_states(f, times, y, step, check, stats):
    """(t, y, found) at each sample time after the first, from fixed steps
    of about `step` that divide each sample interval.  Each step's state
    passes the blow-up cap, then the check; a sample carries the finding
    of its last step's check."""
    f = stats.counted(f)
    for t0, t1 in zip(times[:-1], times[1:]):
        n = max(1, int(round(abs(t1 - t0) / step)))
        h, t = (t1 - t0) / n, t0
        for _ in range(n):
            try:
                ynew = rk4_step(f, t, y, h)
                check_norm(t + h, ynew)
                reason, found = check(ynew)
            except NUMERICAL_FAILURES as exc:
                stats.reject(type(exc).__name__)
                raise Stop("step_failure", f"step failed at t = {t:.6g}: {exc}") from exc
            if reason is not None:
                stats.reject(reason)
                raise Stop("step_failure",
                           f"fixed-step state check failed at t = {t + h:.6g}: {reason}")
            stats.accept(h)
            t, y = t + h, ynew
        yield t1, y, found


def rk45_states(f, times, y, tol, check, stats):
    """(t, y, found) at each sample time after the first, from adaptive
    steps bounded by the last time only.  A step starts from the last stage
    of the step before it, or from the first stage of a rejected attempt.  A
    trial within the error norm passes the blow-up cap, then the check.  A
    sample on a step's end is its state, with that check's finding; one
    inside a step is read from the step's stages (``dense``) and must pass
    a check of its own, or the run stops with the reason."""
    f = stats.counted(f)
    t, t1, k1, h, retries, i = times[0], times[-1], None, 1e-2, 0, 1
    direction = 1.0 if t1 >= t else -1.0
    while (t1 - t) * direction > 1e-15:
        if stats.accepted_steps >= MAX_RK45_STEPS:
            raise Stop("step_budget", f"{stats.accepted_steps} accepted steps at t = {t:.6g}")
        h = direction * min(abs(h), abs(t1 - t))
        if t + h == t:
            raise Stop("step_failure", f"step {h:.3g} no longer advances t = {t:.9g}")
        try:
            if k1 is None:
                k1 = f(t, y)
            ynew, err, stages = dp_step(f, t, y, h, k1)
            scale = tol + tol * np.maximum(np.abs(y), np.abs(ynew))
            enorm = float(np.sqrt(np.mean((err / scale) ** 2)))
            cause = "error_norm"
            if np.all(np.isfinite(ynew)) and enorm <= 1.0:
                check_norm(t + h, ynew)
                cause, found = check(ynew)
        except NUMERICAL_FAILURES as exc:
            cause, enorm = type(exc).__name__, np.inf
        if cause is not None:
            stats.reject(cause)
            retries += 1
            if retries > MAX_RETRIES:
                raise Stop("step_failure", f"no acceptable step at t = {t:.6g}")
            h = h / 2
            continue
        stats.accept(h)
        while i < len(times) and (times[i] - (t + h)) * direction <= 1e-15:
            ts, ys, fs, i = times[i], ynew, found, i + 1
            if abs(ts - (t + h)) > 1e-15:  # inside the step
                try:
                    reason, fs = check(ys := dense(y, h, stages, (ts - t) / h))
                except NUMERICAL_FAILURES as exc:
                    reason = type(exc).__name__
                if reason is not None:
                    raise Stop("step_failure",
                               f"interpolated state check failed at t = {ts:.6g}: {reason}")
            yield ts, ys, fs
        t, y, k1, retries = t + h, ynew, stages[-1], 0
        grow = 0.9 * enorm ** (-0.2) if enorm > 0 else 5.0
        h = h * min(5.0, max(0.2, grow))
