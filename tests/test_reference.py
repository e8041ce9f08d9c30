"""External reference for the degenerate flow: scipy's DOP853 on the same
packed right-hand side, and the orders the fixed-step integrators show.

The orders are measured from a state at t = 0.1, away from the singular
seed at t = 1e-4: steps that start at the seed show an order between 1 and 2.
The continuous extension of rk45 is measured against DOP853's own.
"""

import numpy as np
import pytest

scipy_integrate = pytest.importorskip("scipy.integrate")

from hitchinflow import flow as fl  # noqa: E402
from hitchinflow import ode  # noqa: E402


def _reference(rhs, t0, t1, y0):
    return scipy_integrate.solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=1e-13,
                                     atol=1e-13).y[:, -1]


@pytest.fixture(scope="module")
def n11():
    problem = fl.n11_problem()
    seed = fl.startup_seed(problem, 1.0, 1e-4)
    return problem, seed, lambda t, y: fl._rhs_packed(problem, y, 1.0)


def test_rk45_end_state_is_within_1e_7_of_dop853(n11):
    problem, seed, rhs = n11
    last = fl.integrate(fl.FlowConfig(t_end=0.5), seed).samples[-1]
    assert last.t == 0.5
    got = problem.pack(last.data["w"], last.data["f"] * last.data["s"])
    want = _reference(rhs, seed.t, 0.5, problem.pack(seed.w, seed.f * seed.s))
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-7


def _observed_order(step, rhs, y0, t0, span, n):
    """log2 of the end-state error ratio at n and 2n fixed steps."""
    want = _reference(rhs, t0, t0 + span, y0)
    errors = []
    for m in (n, 2 * n):
        h, y = span / m, y0
        for i in range(m):
            y = step(rhs, t0 + i * h, y, h)
        errors.append(np.max(np.abs(y - want)))
    return np.log2(errors[0] / errors[1])


def test_fixed_step_orders_from_a_state_at_t_0_1(n11):
    problem, seed, rhs = n11
    y = _reference(rhs, seed.t, 0.1, problem.pack(seed.w, seed.f * seed.s))
    dp5 = lambda f, t, y, h: ode.dp_step(f, t, y, h, f(t, y))[0]  # the 5th-order solution
    assert 3.7 <= _observed_order(ode.rk4_step, rhs, y, 0.1, 0.1, 5) <= 4.3
    assert _observed_order(dp5, rhs, y, 0.1, 0.1, 5) >= 4.3


def test_continuous_extension_order_from_a_state_at_t_0_1(n11):
    # the interpolant at the midpoint of the last of n and 2n Dormand-Prince
    # steps from t = 0.1 to 0.2, against DOP853's dense output there
    problem, seed, rhs = n11
    y0 = _reference(rhs, seed.t, 0.1, problem.pack(seed.w, seed.f * seed.s))
    want = scipy_integrate.solve_ivp(rhs, (0.1, 0.2), y0, method="DOP853", rtol=1e-13,
                                     atol=1e-13, dense_output=True).sol
    errors = []
    for m in (5, 10):
        h, y = 0.1 / m, y0
        for i in range(m):
            y_step, t = y, 0.1 + i * h
            y, _, stages = ode.dp_step(rhs, t, y_step, h, rhs(t, y_step))
        mid = ode.dense(y_step, h, stages, 0.5)
        errors.append(np.max(np.abs(mid - want(0.2 - h / 2))))
    assert np.log2(errors[0] / errors[1]) >= 3.7
