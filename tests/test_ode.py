"""The integrators of ``hitchinflow.ode`` on scalar ODEs with known
solutions: no geometry, so every end and every count is the integrator's.

The three models of ROADMAP finding 11 end where the degenerate flow's
runs end (findings 1 and 2): at a square-root singularity the adaptive
steps shrink until t + h == t, a finite-time blow-up trips the norm cap,
and so does polynomial growth that never blows up.
"""

import numpy as np
import pytest

from hitchinflow import ode


def oscillator(t, y):
    return np.array([y[1], -y[0]])


def cos_sin(t):
    return np.array([np.cos(t), -np.sin(t)])


def run(states):
    """The (t, y) a run yields and how it ended, (stop_reason, stop_cause)."""
    out = []
    try:
        for t, y, _ in states:
            out.append((t, y))
    except ode.Stop as exc:
        return out, exc.args
    return out, ("completed", None)


@pytest.mark.parametrize("kind,arg,bound", [("rk4", 1e-2, 2e-9), ("rk45", 1e-9, 1e-8)])
def test_harmonic_oscillator_follows_cos_and_sin(kind, arg, bound):
    states = ode.rk4_states if kind == "rk4" else ode.rk45_states
    times, stats = ode.sample_times(0.0, 10.0, 0.5), ode.Stats()
    out, end = run(states(oscillator, times, cos_sin(0.0), arg, lambda y: (None, None), stats))
    assert end == ("completed", None)
    assert [t for t, _ in out] == list(times[1:])
    assert max(np.max(np.abs(y - cos_sin(t))) for t, y in out) <= bound
    assert stats.rejected_steps == 0 and stats.rejections == {}
    if kind == "rk4":  # 1000 steps of 4 evaluations each
        assert (stats.accepted_steps, stats.rhs_evals) == (1000, 4000)
        assert stats.h_min == pytest.approx(1e-2) and stats.h_max == pytest.approx(1e-2)
    else:  # first same as last: 6 evaluations a step, and the first stage
        assert stats.rhs_evals == 6 * stats.accepted_steps + 1


def _numbered_check(seen):
    """A check that accepts every state and finds its call number and the
    state, each state it sees kept in seen."""
    def check(y):
        seen.append(y.copy())
        return None, (len(seen) - 1, y.copy())
    return check


def test_rk45_samples_carry_their_own_checks_finding(monkeypatch):
    # the end of a step is checked before the states read inside it: the
    # samples of the last step, which ends on t = 1, come in the other order
    # from their checks, and each still carries its own state's finding.
    # The check runs once per accepted step and once per interpolated sample
    reads, dense = [], ode.dense
    monkeypatch.setattr(ode, "dense", lambda *a: reads.append(a) or dense(*a))
    seen, stats, times = [], ode.Stats(), ode.sample_times(0.0, 1.0, 0.01)
    out = list(ode.rk45_states(oscillator, times, cos_sin(0.0), 1e-9, _numbered_check(seen),
                               stats))
    assert [t for t, _, _ in out] == list(times[1:])
    for t, y, (n, state) in out:
        assert np.array_equal(state, y) and np.array_equal(seen[n], y), t
    assert stats.rejected_steps == 0 and len(seen) == stats.accepted_steps + len(reads)
    numbers = [n for _, _, (n, _) in out]
    inside = [n for n in numbers if n > numbers[-1]]  # checked after the last step's end
    assert len(inside) >= 3 and numbers[-1 - len(inside):-1] == inside


def test_rk4_samples_carry_their_last_steps_finding():
    # ten steps per sample interval: a sample carries the finding of the
    # check of its own state, its interval's last step
    seen, stats, times = [], ode.Stats(), ode.sample_times(0.0, 1.0, 0.1)
    out = list(ode.rk4_states(oscillator, times, cos_sin(0.0), 1e-2, _numbered_check(seen),
                              stats))
    assert len(out) == 10 and len(seen) == stats.accepted_steps == 100
    for k, (t, y, (n, state)) in enumerate(out):
        assert n == 10 * k + 9 and np.array_equal(state, y), t


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.8])
def test_continuous_extension_has_order_4(theta):
    # one step from the exact state: the interpolant's local error is
    # O(h^5), so each halving of h divides it by about 32
    errors = []
    for h in (0.2, 0.1, 0.05):
        y0 = cos_sin(0.0)
        _, _, stages = ode.dp_step(oscillator, 0.0, y0, h, oscillator(0.0, y0))
        errors.append(np.max(np.abs(ode.dense(y0, h, stages, theta) - cos_sin(theta * h))))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((4.7 <= orders) & (orders <= 5.5)), orders


def sqrt_end(t, y):  # y' = -1/(2y), y(0) = 1: y = sqrt(1 - t) ends at t* = 1
    return -1 / (2 * y)


def positive(y):
    return None if y[0] > 0 else "y <= 0", None


def _model(f, t1, check=lambda y: (None, None)):
    """rk45 at tol 1e-9 from y(0) = 1 to t1 over 11 samples."""
    stats = ode.Stats()
    times = ode.sample_times(0.0, t1, t1 / 10)
    assert len(times) == 11
    out, end = run(ode.rk45_states(f, times, np.array([1.0]), 1e-9, check, stats))
    return [float(t) for t, _ in out], end, stats


def test_square_root_singularity_stalls_at_its_end():
    # the check refuses y <= 0.  ROADMAP direction 13 (name how a run
    # ends) changes this pin: today the steps shrink to 1e-16 and the run
    # ends with the stall
    times, end, stats = _model(sqrt_end, 2.0, positive)
    assert end == ("step_failure", "step 1e-16 no longer advances t = 1.00000001")
    assert times == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])
    assert (stats.rhs_evals, stats.accepted_steps, stats.rejected_steps) == (4357, 317, 409)
    assert stats.rejections == {"error_norm": 391, "y <= 0": 18}


def test_finite_time_blow_up_trips_the_norm_cap():
    # y' = y^2: y = 1 / (1 - t) blows up at t* = 1.  ROADMAP direction 13
    # changes this pin: today the norm cap ends it, at t* to 1e-8
    times, end, stats = _model(lambda t, y: y * y, 2.0)
    assert end == ("blow_up", "coefficient norm 1.04e+08 at t = 1")
    assert times == pytest.approx([0.2, 0.4, 0.6, 0.8])
    assert (stats.rhs_evals, stats.accepted_steps, stats.rejected_steps) == (2887, 480, 0)


def test_polynomial_growth_is_reported_as_blow_up():
    # y' = 3y / (1 + t): y = (1 + t)^3 is finite at every t, yet passes the
    # cap 1e8 at t = 463.2.  ROADMAP direction 13 changes this pin: today
    # the run ends as blow_up at the first step past it
    times, end, stats = _model(lambda t, y: 3 * y / (1 + t), 1000.0)
    assert end == ("blow_up", "coefficient norm 1.03e+08 at t = 468.262")
    assert times == pytest.approx([100.0, 200.0, 300.0, 400.0])
    assert (stats.rhs_evals, stats.accepted_steps, stats.rejected_steps) == (1777, 295, 0)


def test_rk4_refused_state_ends_the_run():
    # the fixed-step integrator does not retry: the step check's refusal
    # of y <= 0 past t* = 1 ends the run, counted as one rejection
    stats, times = ode.Stats(), ode.sample_times(0.0, 2.0, 0.2)
    out, end = run(ode.rk4_states(sqrt_end, times, np.array([1.0]), 1e-2, positive, stats))
    assert end == ("step_failure", "fixed-step state check failed at t = 1.01: y <= 0")
    assert [t for t, _ in out] == list(times[1:6])
    assert (stats.rhs_evals, stats.accepted_steps, stats.rejections) == (404, 100, {"y <= 0": 1})


# finding 11's three models and the harmonic oscillator, each stopped
# before its end: (f, t1, y(0), bound on the gap to DOP853 over max(|y|, 1)).
# Near the square root's end y' = -1/(2y) reaches -5 at t = 0.99, and the
# gap grows to about 1e-7 there
_CROSS_CHECKED = {
    "cubic": (lambda t, y: 3 * y / (1 + t), 10.0, [1.0], 1e-8),
    "blow-up": (lambda t, y: y * y, 0.9, [1.0], 1e-8),
    "square-root": (sqrt_end, 0.99, [1.0], 1e-6),
    "oscillator": (oscillator, 10.0, [1.0, 0.0], 1e-8),
}


@pytest.mark.parametrize("name", _CROSS_CHECKED)
def test_rk45_follows_dop853_on_the_scalar_models(name):
    # scipy's DOP853 at rtol 1e-13 is an integrator of its own, which the
    # package does not use: rk45 at tol 1e-9 meets it at every sample
    scipy_integrate = pytest.importorskip("scipy.integrate")
    f, t1, y0, bound = _CROSS_CHECKED[name]
    times = ode.sample_times(0.0, t1, t1 / 10)
    out, end = run(ode.rk45_states(f, times, np.array(y0), 1e-9, lambda y: (None, None),
                                   ode.Stats()))
    assert end == ("completed", None) and len(out) == 10
    ref = scipy_integrate.solve_ivp(f, (0.0, t1), y0, method="DOP853", rtol=1e-13, atol=1e-13,
                                    t_eval=[t for t, _ in out]).y.T
    for (t, y), want in zip(out, ref):
        assert np.max(np.abs(y - want)) <= bound * max(np.max(np.abs(want)), 1.0), t

