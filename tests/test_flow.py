from dataclasses import fields, replace

import numpy as np
import pytest

from hitchinflow import flow as fl
from hitchinflow import ode
from hitchinflow import stable
from hitchinflow.errors import (
    DimensionMismatch,
    NotProportional,
    PreconditionFailed,
    ProjectionFailure,
    UnstableForm,
)
from hitchinflow.flow import (
    DegenerateFlowState,
    FlowConfig,
    GenericFlowState,
    cocal_residual,
    deform_state,
    flat7_problem,
    generic_problem,
    generic_rhs,
    generic_state_from_split,
    integrate,
    mirror_seed,
    n11_problem,
    smoothness_check,
    startup_seed,
    torsion_residual,
)
from hitchinflow.forms import KForm, form_pairing, pullback, wedge
from hitchinflow.g2spin7 import bundle_Phi, model_phi, seven_structure
from hitchinflow.homogeneous import HomogeneousSpace, space
from hitchinflow.stable import classify_pair

from oracles import (
    calabi_time,
    classify_pair_oracle,
    degenerate_monitors_oracle,
    degenerate_rhs_oracle,
    degenerate_split_oracle,
    ending_spread,
    fd_generic_rhs,
    fd_star_jacobian,
    grid_clipped_rk45,
    jacobian_generic_rhs,
    relative_gap,
    split_rhs_oracle,
    star_derivative,
    star_phi_oracle,
    torsion_residual_oracle,
    wedge_solve_oracle,
)


# ------------------------------------------------------------ smoothness
def test_smoothness_values_n11():
    p = n11_problem()
    sp = space("n11")
    # primitive fiber generator: c = -2, not smooth
    sm = smoothness_check(sp, p.omega0, p.rho0, 6, 1.0)
    assert sm.c == pytest.approx(-2.0, abs=1e-12) and not sm.ok
    # squared bundle: c = -1, smooth
    sm = smoothness_check(sp, p.omega0, p.rho0, 6, 0.5)
    assert sm.c == pytest.approx(-1.0, abs=1e-12) and sm.ok
    # orientation flip changes the sign of c
    sm = smoothness_check(sp, p.omega0, p.rho0, 6, -0.5)
    assert sm.c == pytest.approx(1.0, abs=1e-12) and sm.ok
    assert sm.c_is_integer


def test_smoothness_not_proportional():
    p = n11_problem()
    sp = space("n11")
    bad_rho = p.rho0 + 0.3 * KForm.basis(7, (0, 2, 3))
    with pytest.raises(NotProportional):
        smoothness_check(sp, p.omega0, bad_rho, 6, 1.0)


# --------------------------------------------------------------- startup
def test_startup_seed_values():
    p = n11_problem()
    seed = startup_seed(p, 1.0, 1e-4)
    assert seed.f == pytest.approx(1e-4)
    assert seed.t == pytest.approx(1e-4)
    # for this family pi(d rho0) = 0 so the omega seed is omega0 itself
    assert np.max(np.abs(seed.omega_form(False).coeffs - p.omega0.coeffs)) < 1e-14
    # and wdot0 ^ omega0 = pi(d rho0) holds trivially
    drho = p.space.d(p.rho0)
    assert p.to_dist(p.pi(drho)).max_abs() < 1e-14


def test_startup_rejects_wrong_c():
    p = n11_problem(bundle="unsquared")
    with pytest.raises(PreconditionFailed) as err:
        startup_seed(p, -2.0, 1e-4)
    assert err.value.condition == "positive_c"
    # flipped primitive fiber: c = +2 > 0 but |c| != 1, no smooth extension
    flipped = fl.DegenerateProblem(p.space, 6, -1.0, p.omega0, p.rho0)
    with pytest.raises(PreconditionFailed) as err:
        startup_seed(flipped, 2.0, 1e-4)
    assert err.value.condition == "smoothness_norm"


def test_startup_rejects_non_structure():
    p = n11_problem()
    bad = fl.DegenerateProblem(p.space, 6, -0.5, p.omega0, 2.0 * p.rho0)
    with pytest.raises(PreconditionFailed) as err:
        startup_seed(bad, 1.0, 1e-4)
    assert err.value.condition == "classification"


@pytest.mark.parametrize("which", ["omega0", "rho0"])
def test_problem_refuses_a_nan_form(which):
    # the nan comes after a nonzero coefficient, where a max that skips
    # nan would not see it
    p = n11_problem()
    forms = {"omega0": p.omega0, "rho0": p.rho0}
    coeffs = forms[which].coeffs.copy()
    coeffs[-1] = np.nan
    forms[which] = KForm(7, forms[which].degree, coeffs)
    with pytest.raises(ValueError):
        fl.DegenerateProblem(p.space, 6, -0.5, forms["omega0"], forms["rho0"])


def test_startup_rejects_a_family_beyond_float_range():
    # a^2 = 1e300 makes omega0^3 overflow: a precondition failure, not an
    # OverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PreconditionFailed) as err:
            startup_seed(n11_problem(a=1e150), 1.0, 1e-4)
    assert err.value.condition == "classification"


def test_startup_rejects_nonclosed_omega():
    # perturb omega into the invariant direction e35+e46: the pair fails
    # classification, so fix rho accordingly through a GL map is overkill;
    # instead verify the cocalibration gate directly with a hand-built
    # problem using an equivariant shear that keeps the pair valid.
    p = n11_problem()
    sp = p.space
    # equivariant map on m: z2' = z2 + 0.4 z3 in the complex planes
    # (commutes with the isotropy rotation), identity elsewhere
    M = np.eye(7)
    M[2, 4] = M[3, 5] = 0.4
    from hitchinflow.forms import pullback

    om2 = pullback(M, p.omega0)
    rho2 = pullback(M, p.rho0)
    cls = classify_pair(fl.restrict(om2, p.dist_axes), fl.restrict(rho2, p.dist_axes))
    assert cls.ok  # still a structure
    dww = wedge(sp.d(om2), om2)
    assert dww.max_abs() > 1e-6  # no longer cocalibration-compatible
    bad = fl.DegenerateProblem(sp, 6, -0.5, om2, rho2)
    with pytest.raises(PreconditionFailed) as err:
        startup_seed(bad, 1.0, 1e-4)
    assert err.value.condition == "cocalibration"


# ---------------------------------------------------------- right-hand side
def test_degenerate_rhs_f0_limit():
    p = n11_problem()
    seed = startup_seed(p, 1.0, 1e-4)
    state0 = DegenerateFlowState(0.0, 0.0, seed.w, seed.s, p)
    fdot, wdot, sdot = split_rhs_oracle(state0)
    assert fdot == pytest.approx(1.0, abs=1e-12)
    assert sdot.max_abs() == 0.0


def test_degenerate_rhs_wdot_equation():
    p = n11_problem()
    seed = startup_seed(p, 1.0, 1e-2)
    fdot, wdot, sdot = split_rhs_oracle(seed)
    om6 = seed.omega_form()
    rho6 = seed.rho_form()
    lhs = wedge(wdot, om6)
    drho7 = p.space.d(p.from_dist(rho6))
    rhs = p.to_dist(p.pi(drho7 + seed.f * wedge(seed.omega_form(False), p.de_phi())))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def test_degenerate_rhs_flat_model():
    p = flat7_problem()
    seed = startup_seed(p, 1.0, 0.2)
    fdot, wdot, sdot = split_rhs_oracle(seed)
    assert fdot == pytest.approx(1.0, abs=1e-13)
    assert wdot.max_abs() < 1e-13
    assert sdot.max_abs() < 1e-13


def _kernel_states():
    """Packed states (problem, y) on which the kernel is checked: three
    samples along an n11 family trajectory and the flat su3/su12 seeds."""
    p = n11_problem(a=1.3, b=-0.8, c_param=1.1, theta=0.7)
    cfg = FlowConfig(space="n11", t_end=0.3, integrator="rk45-adaptive", tol=1e-9, sample_dt=0.1)
    traj = integrate(cfg, startup_seed(p, 1.0, 1e-4))
    states = [traj.state_at(i) for i in (1, 2, 3)]
    states += [startup_seed(flat7_problem(name), 1.0, 0.2) for name in ("su3", "su12")]
    return [(st.problem, st.problem.pack(st.w, st.f * st.s)) for st in states]


def _split_J(split):
    """J = K(S6) / root, the split's J as the step check read it before the
    frame's metric table."""
    return stable.k_endomorphism(KForm(6, 3, split.S6)) / split.root


@pytest.mark.parametrize(
    "index", range(5), ids=["n11-t0.1", "n11-t0.2", "n11-t0.3", "su3", "su12"]
)
def test_kernel_matches_kform_oracle(index):
    problem, y = _kernel_states()[index]
    _, om6, rho6, f, J = degenerate_split_oracle(problem, y, 1.0)
    split = fl._derive_split(problem, y, 1.0)
    assert abs(split.f - f) <= 1e-12 * abs(f)
    assert relative_gap(_split_J(split), J) <= 1e-12
    assert relative_gap(split.om6, om6.coeffs) <= 1e-12
    assert relative_gap(split.rho6, rho6.coeffs) <= 1e-12
    # the step check's metric from the frame's cubic table, against G =
    # omega(., J .) of stable's rule
    G = fl._split_class(problem.operators(), y, split)[3]
    assert relative_gap(G, stable._metric_matrix(split.om6, J, split.sign)) <= 1e-13
    velocity = fl._rhs_packed(problem, y, 1.0)
    assert relative_gap(velocity, degenerate_rhs_oracle(problem, y, 1.0)) <= 1e-12
    # the closed-form omega velocity, with and without the split's bivector,
    # and the kernel's, composed with the frame's tables, against the LAPACK
    # solve of omega's wedge matrix
    tau = (problem.operators().rho.dot(split.rho6) + split.f * split.f_parts)[:15]
    want = wedge_solve_oracle(split.om6, tau)  # 0 on the flat seeds, which stand still
    for got in (stable.solve_wedge_coeffs(split.om6, tau, split.bivector),
                stable.solve_wedge_coeffs(split.om6, tau)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    nw = len(problem.w_basis().forms)
    want = problem.w_basis().pinv @ problem.from_dist(KForm(6, 2, want)).coeffs
    assert np.max(np.abs(velocity[:nw] - want)) <= 1e-13 * np.max(np.abs(want))


def test_kernel_makes_no_minors_call_and_builds_no_kform(monkeypatch):
    # J*S comes from the gradient of lambda, so an evaluation computes no
    # minors (no pullback) and builds no form
    from hitchinflow import linalg

    problem, y = _kernel_states()[0]
    fl._rhs_packed(problem, y, 1.0)  # the operators are built on first use
    minors_calls, kforms = [], []
    minors, post_init = linalg.minors, KForm.__post_init__
    monkeypatch.setattr(linalg, "minors", lambda m, k: minors_calls.append(k) or minors(m, k))
    monkeypatch.setattr(
        KForm, "__post_init__", lambda self: kforms.append(self) or post_init(self)
    )
    fl._rhs_packed(problem, y, 1.0)
    assert minors_calls == []
    assert kforms == []


def test_a_generic_and_a_degenerate_point_ask_for_no_float_minors(monkeypatch):
    # float pullbacks contract tensors: the Grams of the pairing and the
    # star and solve_dstar's inverse Gram build no compound matrix, so a
    # generic point (integrate, torsion_residual) and a degenerate point
    # (integrate with its sample monitors) make no float linalg.minors call
    from hitchinflow import linalg

    float_calls, minors = [], linalg.minors
    monkeypatch.setattr(
        linalg, "minors", lambda m, k: (m.dtype != object and float_calls.append(k)) or minors(m, k)
    )
    seed = generic_state_from_split(generic_problem("n11"), n11_problem(), 1.0)
    generic = integrate(FlowConfig(space="n11", t_end=0.05, tol=1e-9), seed)
    torsion_residual(generic)
    seed = startup_seed(n11_problem(), 1.0, 1e-4)
    degenerate = integrate(FlowConfig(t_end=0.1, tol=1e-9, sample_dt=0.05), seed)
    assert generic.stop_reason == degenerate.stop_reason == "completed"
    assert float_calls == []


def test_kernel_solves_for_the_omega_velocity_without_a_linear_solve(monkeypatch):
    # the split reads omega's bivector off the frame's quadratic table, and
    # omega^3 and the closed-form inverse of alpha -> alpha ^ omega reuse
    # it through the frame's tables: an evaluation makes no LAPACK solve
    # and builds no wedge matrix of omega, so it contracts no table of stable
    problem, y = _kernel_states()[0]
    sp = fl._derive_split(problem, y, 1.0)
    assert relative_gap(sp.bivector, stable._omega_bivector(sp.om6)) <= 1e-14
    tables, solves = [], []
    contract, solve = stable.contract, np.linalg.solve
    monkeypatch.setattr(stable, "contract", lambda t, *v: tables.append(t) or contract(t, *v))
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(a) or solve(*a))
    fl._rhs_packed(problem, y, 1.0)
    assert tables == []
    assert solves == []


def test_problems_on_one_frame_share_its_tables():
    # the kernel's tables depend on the frame (space, e_phi_index,
    # e_phi_scale) alone: family points share them, and tables built from
    # another point's problem are the same
    p, q = n11_problem(1.2, -0.9, 1.1, 0.4), n11_problem(1.4, 1.0, -0.95, 2.0)
    assert p.operators() is q.operators()
    fresh = fl._Operators.build(q)
    for fld in fields(fresh):
        assert np.array_equal(getattr(fresh, fld.name), getattr(p.operators(), fld.name))
    for other in (n11_problem(1.2, -0.9, 1.1, 0.4, bundle="unsquared"), flat7_problem()):
        assert other.operators() is not p.operators()


@pytest.mark.parametrize("integrator", ["rk4-fixed", "rk45-adaptive"])
def test_degenerate_run_splits_each_state_once(monkeypatch, integrator):
    # the rhs and the step check of one state share its split: one
    # _derive_split per rhs evaluation (the first reads the seed's), plus
    # one for the check of rk4's last step, which no rhs reads; a sample
    # that rk45 reads inside a step is a state no rhs saw, with a split of
    # its own.  A sample reads its class from what its step check found:
    # stable.classify_coeffs runs once per step check, plus once for the
    # seed's split and once for bundle_Phi's pair in the seed's g8 check
    calls, inside, checks, classified = [], [], [], []
    derive, dense, classify = fl._derive_split, ode.dense, stable.classify_coeffs
    monkeypatch.setattr(fl, "_derive_split", lambda *a: calls.append(a) or derive(*a))
    monkeypatch.setattr(ode, "dense", lambda *a: inside.append(a) or dense(*a))
    monkeypatch.setattr(stable, "classify_coeffs", lambda *a: classified.append(a) or classify(*a))
    flow_of = fl._degenerate_flow

    def counted(seed):
        flow = flow_of(seed)
        return replace(flow, check=lambda y: checks.append(y) or flow.check(y))

    monkeypatch.setattr(fl, "_degenerate_flow", counted)
    # to t = 0.2 rk45's last step holds samples (t_end 0.1: none)
    cfg = FlowConfig(t_end=0.2, integrator=integrator, step=2e-3, sample_dt=0.01)
    seed = startup_seed(n11_problem(a=1.2, b=-0.9, c_param=1.1, theta=0.4), 1.0, 1e-4)
    classified.clear()
    traj = integrate(cfg, seed)
    assert traj.stop_reason == "completed"
    counts = (len(calls), traj.stats["rhs_evals"], len(inside), len(classified), len(checks))
    assert counts == ((401, 400, 0, 102, 100) if integrator == "rk4-fixed" else
                      (85, 67, 18, 31, 29))
    assert len(calls) == traj.stats["rhs_evals"] + len(inside) + (integrator == "rk4-fixed")
    assert len(classified) == len(checks) + 2


def test_generic_run_builds_one_seven_structure_per_state(monkeypatch):
    calls = []
    seven = fl.seven_structure
    monkeypatch.setattr(fl, "seven_structure", lambda phi: calls.append(phi) or seven(phi))
    p = n11_problem(a=1.2, b=-0.9, c_param=1.1, theta=0.4)
    gp = generic_problem("n11")
    cfg = FlowConfig(t_end=0.02, integrator="rk45-adaptive", tol=1e-9, sample_dt=0.01)
    traj = integrate(cfg, generic_state_from_split(gp, p, 0.3))
    assert traj.stop_reason == "completed"
    assert len(calls) <= traj.stats["rhs_evals"] + 2


# ------------------------------------------------------------- integration
def test_rk4_stats_count_four_evaluations_per_step():
    p = n11_problem()
    cfg = FlowConfig(space="n11", t_end=0.05, integrator="rk4-fixed", step=1e-3, sample_dt=0.01)
    traj = integrate(cfg, startup_seed(p, 1.0, 1e-4))
    steps = sum(max(1, round(dt / cfg.step)) for dt in np.diff(traj.times()))
    assert traj.stats["accepted_steps"] == steps
    assert traj.stats["rhs_evals"] == 4 * steps
    assert traj.stats["rejected_steps"] == 0
    assert 0 < traj.stats["h_min"] <= traj.stats["h_max"] <= cfg.step * 1.01


def test_rk45_stats_reuse_the_last_stage():
    # first same as last: 6 evaluations per attempted step, plus the first
    # stage of the seed; the last stage of a step starts the next, and a
    # rejected attempt's first stage the retry
    p = n11_problem()
    cfg = FlowConfig(space="n11", t_end=0.2, integrator="rk45-adaptive", tol=1e-9, sample_dt=0.02)
    traj = integrate(cfg, startup_seed(p, 1.0, 1e-4))
    st = traj.stats
    assert st["rhs_evals"] == 6 * (st["accepted_steps"] + st["rejected_steps"]) + 1
    assert 0 < st["h_min"] <= st["h_max"]


def test_flat_model_exact_linear():
    p = flat7_problem()
    seed = startup_seed(p, 1.0, 1e-4)
    cfg = FlowConfig(space="flat7", t_end=0.4, integrator="rk4-fixed", step=1e-3, sample_dt=0.05)
    traj = integrate(cfg, seed)
    assert traj.stop_reason == "completed"
    assert np.max(np.abs(traj.series("f") - traj.times())) < 1e-12
    assert np.max(traj.monitor("cocal_residual")) == 0.0
    assert np.max(torsion_residual(traj)) < 1e-10


def test_flat_su12_g8_signature():
    p = flat7_problem("su12")
    sm = fl.problem_smoothness(p)
    assert sm.c == pytest.approx(1.0)
    seed = startup_seed(p, 1.0, 1e-3)
    cfg = FlowConfig(space="flat7", t_end=0.2, integrator="rk4-fixed", step=1e-3, sample_dt=0.05)
    traj = integrate(cfg, seed)
    sigs = {s.monitors["g8_signature"] for s in traj.samples}
    assert sigs == {(4, 4)}
    assert {s.monitors["class"] for s in traj.samples} == {"SU12"}


def test_n11_short_run_monitors():
    p = n11_problem()
    seed = startup_seed(p, 1.0, 1e-4)
    cfg = FlowConfig(space="n11", t_end=0.2, integrator="rk45-adaptive", tol=1e-9, sample_dt=0.02)
    traj = integrate(cfg, seed)
    assert traj.stop_reason == "completed"
    assert np.max(traj.monitor("cocal_residual")) < 1e-10
    assert np.max(traj.monitor("normalization_residual")) < 1e-10
    assert {s.monitors["g8_signature"] for s in traj.samples} == {(8, 0)}


def test_rk4_deterministic_bitwise():
    p = n11_problem()
    seed = startup_seed(p, 1.0, 1e-4)
    cfg = FlowConfig(space="n11", t_end=0.05, integrator="rk4-fixed", step=1e-3, sample_dt=0.01)
    t1 = integrate(cfg, seed)
    t2 = integrate(cfg, seed)
    for a, b in zip(t1.samples, t2.samples):
        assert a.data["f"] == b.data["f"]
        assert np.array_equal(a.data["w"], b.data["w"])
        assert np.array_equal(a.data["s"], b.data["s"])


def test_norm_of_s_is_conserved():
    p = n11_problem()
    seed = startup_seed(p, 1.0, 1e-4)
    cfg = FlowConfig(space="n11", t_end=0.4, integrator="rk45-adaptive", tol=1e-9, sample_dt=0.05)
    traj = integrate(cfg, seed)
    for i in range(len(traj.samples)):
        st = traj.state_at(i)
        cls = classify_pair(st.omega_form(), st.rho_form())
        val = float(form_pairing(cls.metric, st.s_form(), st.s_form()))
        assert abs(val - 4.0) < 1e-10


def test_theta_equivariance_short():
    theta = 0.3
    cfg = FlowConfig(space="n11", t_end=0.2, integrator="rk45-adaptive", tol=1e-9, sample_dt=0.05)
    tr0 = integrate(cfg, startup_seed(n11_problem(theta=0.0), 1.0, 1e-4))
    tr1 = integrate(cfg, startup_seed(n11_problem(theta=theta), 1.0, 1e-4))
    for i in range(len(tr0.samples)):
        d0 = deform_state(tr0.state_at(i), theta)
        st1 = tr1.state_at(i)
        assert abs(d0.f - st1.f) < 1e-9
        assert np.max(np.abs(d0.w - st1.w)) < 1e-9
        assert np.max(np.abs(d0.s - st1.s)) < 1e-9


def test_reflection_small():
    p = n11_problem()
    fwd = integrate(
        FlowConfig(space="n11", t_end=0.15, integrator="rk45-adaptive", tol=1e-10, sample_dt=0.03),
        startup_seed(p, 1.0, 1e-4),
    )
    bwd = integrate(
        FlowConfig(space="n11", t_end=-0.15, integrator="rk45-adaptive", tol=1e-10, sample_dt=0.03),
        mirror_seed(p, 1.0, 1e-4),
    )
    ff, fb = fwd.series("f"), bwd.series("f")
    assert np.max(np.abs(np.abs(fb) - ff)) < 1e-9


def test_blowup_reported():
    # drive the flat model with a huge seed so coefficients cross the bound
    p = flat7_problem()
    seed = startup_seed(p, 1.0, 1e-4)
    big = DegenerateFlowState(seed.t, seed.f, 1e9 * seed.w, seed.s, p)
    cfg = FlowConfig(space="flat7", t_end=0.2, integrator="rk4-fixed", step=1e-2, sample_dt=0.1)
    traj = integrate(cfg, big)
    assert traj.stop_reason == "blow_up"
    # the cap is checked on every step: the run stops at the first step
    # over it, before its sample interval ends at t = 0.1001
    assert traj.stop_cause.endswith("at t = 0.0101") and len(traj.samples) == 1


def test_rk45_blowup_reported():
    # the same seed under rk45: the norm is checked on every accepted step,
    # so the run stops at the first one, not in a cascade of rejections
    p = flat7_problem()
    seed = startup_seed(p, 1.0, 1e-4)
    big = DegenerateFlowState(seed.t, seed.f, 1e9 * seed.w, seed.s, p)
    cfg = FlowConfig(space="flat7", t_end=0.2, integrator="rk45-adaptive", sample_dt=0.1)
    traj = integrate(cfg, big)
    assert traj.stop_reason == "blow_up"
    assert traj.stats["rejected_steps"] == 0 and len(traj.samples) == 1


# ------------------------------------------------ rk45 continuous extension
def test_continuous_extension_ends_on_the_step():
    p = n11_problem(a=1.2, b=-0.9, c_param=1.1, theta=0.4)
    last = integrate(FlowConfig(t_end=0.1), startup_seed(p, 1.0, 1e-4)).samples[-1]
    y, h = p.pack(last.data["w"], last.data["f"] * last.data["s"]), 0.05
    rhs = lambda t, y: fl._rhs_packed(p, y, 1.0)
    y5, _, stages = ode.dp_step(rhs, 0.1, y, h, rhs(0.1, y))
    for theta, want in ((0.0, y), (1.0, y5)):
        got = ode.dense(y, h, stages, theta)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "params",
    [(1.2, -0.9, 1.1, 0.4), (-1.55, 1.3, -0.95, 2.9), (0.93, 1.58, -1.4, 5.1),
     (np.sqrt(2.0), 1.0, 1.0, 0.0)],
    ids=["box-1", "box-2", "box-3", "calabi"],
)
def test_rk45_samples_match_the_grid_clipped_oracle(params):
    # the grid-clipped integrator is independent of the interpolant: each
    # of its samples ends a step, where the continuous extension reads most
    # of the new ones inside a step, at 0.6 of its rhs evaluations or less
    p = n11_problem(*params)
    seed, cfg = startup_seed(p, 1.0, 1e-4), FlowConfig(t_end=0.5)
    traj = integrate(cfg, seed)
    assert traj.stop_reason == "completed"
    flow = fl._degenerate_flow(seed)
    times = ode.sample_times(seed.t, cfg.t_end, cfg.sample_dt)
    states, stats = grid_clipped_rk45(flow.rhs, lambda y: flow.check(y)[0], flow.y0, times,
                                      cfg.tol)
    assert np.array_equal(traj.times(), times)
    assert traj.stats["rhs_evals"] <= 0.6 * stats.rhs_evals
    for smp, want in zip(traj.samples, states, strict=True):
        got = p.pack(smp.data["w"], smp.data["f"] * smp.data["s"])
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


def test_rk45_steps_ignore_the_sample_grid():
    seed = startup_seed(n11_problem(a=1.2, b=-0.9, c_param=1.1, theta=0.4), 1.0, 1e-4)
    fine, coarse = (integrate(FlowConfig(t_end=0.5, sample_dt=dt), seed) for dt in (0.01, 0.5))
    assert len(fine.samples) == 51 and len(coarse.samples) == 2
    for key in ("accepted_steps", "rhs_evals"):
        assert fine.stats[key] == coarse.stats[key]
    assert np.array_equal(fine.samples[-1].data["w"], coarse.samples[-1].data["w"])


def test_rk45_interpolated_state_failing_its_check_stops_the_run(monkeypatch):
    # a state read inside a step that has no split ends the run at its
    # sample time, with the samples of the steps before it
    monkeypatch.setattr(ode, "dense", lambda y, h, stages, theta: np.full_like(y, np.nan))
    seed = startup_seed(n11_problem(a=1.2, b=-0.9, c_param=1.1, theta=0.4), 1.0, 1e-4)
    traj = integrate(FlowConfig(t_end=0.1), seed)
    assert traj.stop_reason == "step_failure"
    assert traj.stop_cause == "interpolated state check failed at t = 0.0201: UnstableForm"
    assert traj.samples[-1].t == pytest.approx(0.0101)


def test_rk45_step_budget_ends_the_run(monkeypatch):
    hs, accept = [], ode.Stats.accept
    monkeypatch.setattr(ode, "MAX_RK45_STEPS", 5)
    monkeypatch.setattr(ode.Stats, "accept", lambda st, h: hs.append(h) or accept(st, h))
    seed = startup_seed(n11_problem(), 1.0, 1e-4)
    traj = integrate(FlowConfig(t_end=0.5), seed)
    assert traj.stop_reason == "step_budget" and traj.stats["accepted_steps"] == len(hs) == 5
    assert traj.stop_cause.startswith("5 accepted steps at t = ")
    assert len(traj.samples) > 1 and traj.samples[-1].t <= seed.t + sum(hs) + 1e-12


# ------------------------------------------------------------ generic flow
def _star_phi(state) -> np.ndarray:
    return seven_structure(state.phi_form()).star_phi.coeffs


def test_generic_stationary_abelian():
    gp = generic_problem("abelian7")
    _, _, pinv3 = gp.basis(3)
    x0 = pinv3 @ model_phi("su3").coeffs
    st = GenericFlowState(0.0, x0, gp)
    assert np.max(np.abs(generic_rhs(st))) == 0.0
    assert cocal_residual(gp.space, _star_phi(st)) == 0.0
    traj = integrate(FlowConfig(space="abelian7", t_end=0.3, sample_dt=0.1), st)
    assert all(np.array_equal(s.data["x"], x0) for s in traj.samples)
    assert np.max(torsion_residual(traj)) < 1e-12


@pytest.mark.parametrize(
    "params,f",
    [
        ({}, 1.0),
        ({"a": 1.3, "b": -0.8, "c_param": 1.1, "theta": 0.7}, 0.3),
        ({"a": -0.6, "b": 1.6, "c_param": 0.9, "theta": 4.0}, 1.0),
    ],
)
def test_generic_jacobian_matches_finite_differences(params, f):
    # the closed-form star-Jacobian against the central-difference oracle;
    # at h = 1e-5 the oracle's own error is about 1e-10 relative here; the
    # closed-form inverse against the solve with that Jacobian
    gp = generic_problem("n11")
    st = generic_state_from_split(gp, n11_problem(**params), f)
    _, mat3, _ = gp.basis(3)
    _, _, pinv4 = gp.basis(4)
    closed = pinv4 @ star_derivative(seven_structure(st.phi_form())) @ mat3
    assert relative_gap(closed, fd_star_jacobian(gp, st.x, 1e-5)) <= 1e-7
    assert relative_gap(generic_rhs(st), fd_generic_rhs(st, 1e-5)) <= 1e-7
    assert relative_gap(generic_rhs(st), jacobian_generic_rhs(st)) <= 1e-13


def test_generic_equivariance():
    from hitchinflow import linalg

    gp = generic_problem("n11")
    dp = n11_problem()
    seed = generic_state_from_split(gp, dp, 1.0)
    _, mat3, pinv3 = gp.basis(3)
    L3 = gp.space.lie_matrix(6, 3)
    T = linalg.expm(0.4 * L3)
    tx = pinv3 @ (T @ (mat3 @ seed.x))
    lhs = generic_rhs(GenericFlowState(0.0, tx, gp))
    rhs = pinv3 @ (T @ (mat3 @ generic_rhs(seed)))
    assert np.max(np.abs(lhs - rhs)) < 1e-7


def test_generic_cocalibration_examples():
    gp = generic_problem("n11")
    dp = n11_problem()
    seed = generic_state_from_split(gp, dp, 1.0)
    assert cocal_residual(gp.space, _star_phi(seed)) < 1e-12
    # randomly perturbed state is not cocalibrated
    rng = np.random.default_rng(2)
    pert = GenericFlowState(0.0, seed.x + 0.1 * rng.normal(size=len(seed.x)), gp)
    assert cocal_residual(gp.space, _star_phi(pert)) > 1e-3


def test_generic_cocal_preserved_short():
    gp = generic_problem("n11")
    dp = n11_problem()
    seed = generic_state_from_split(gp, dp, 1.0)
    cfg = FlowConfig(space="n11", t_end=0.3, integrator="rk45-adaptive", tol=1e-9, sample_dt=0.05)
    traj = integrate(cfg, seed)
    assert traj.stop_reason == "completed"
    assert np.max(traj.monitor("cocal_residual")) < 1e-8


def test_generic_matches_degenerate_flow():
    # the generic flow from split initial data must reproduce the
    # degenerate flow (same geometry in different coordinates)
    dp = n11_problem()
    eps = 1e-3
    dseed = startup_seed(dp, 1.0, eps)
    gcfg = FlowConfig(space="n11", t_end=0.2, integrator="rk45-adaptive", tol=1e-10, sample_dt=0.05)
    dtraj = integrate(gcfg, dseed)
    gp = generic_problem("n11")
    # build the generic seed from the degenerate state at t = eps
    st0 = dtraj.state_at(0)
    phi0 = st0.phi_form()
    _, mat3, pinv3 = gp.basis(3)
    gseed = GenericFlowState(eps, pinv3 @ phi0.coeffs, gp)
    gtraj = integrate(gcfg, gseed)
    for i in (1, len(dtraj.samples) - 1):
        phi_d = dtraj.state_at(i).phi_form().coeffs
        phi_g = gtraj.state_at(i).phi_form().coeffs
        assert np.max(np.abs(phi_d - phi_g)) < 1e-6


def test_richardson_startup_accuracy():
    p = n11_problem()
    cfg = FlowConfig(
        space="n11", integrator="rk45-adaptive", tol=1e-11, sample_dt=0.05, startup_epsilon=2e-4
    )
    dev2 = fl.richardson_deviation(p, 1.0, cfg, 0.1)
    cfg4 = FlowConfig(
        space="n11", integrator="rk45-adaptive", tol=1e-11, sample_dt=0.05, startup_epsilon=4e-4
    )
    dev4 = fl.richardson_deviation(p, 1.0, cfg4, 0.1)
    # halving epsilon should shrink the deviation by about 4 (second order)
    assert dev4 / dev2 == pytest.approx(4.0, rel=0.35)


@pytest.mark.parametrize("integrator,setting", [("rk4", {"step": 2e-3}), ("rk45", {"tol": 1e-9})])
def test_calabi_member_stays_on_its_ansatz(integrator, setting):
    """The family member (a, b, c, theta) = (sqrt 2, 1, 1, 0), an exact
    reference solution of the degenerate flow.

    Its omega0 = 2 e12 + e34 - e56 is closed, de^phi = 4 omega0, pi(d rho0)
    = 0 and L_{e_phi} rho0 = J*rho0 = s0.  On the ansatz omega = u omega0,
    rho = u^{3/2} rho0 (J is scale-free, so s = u^{3/2} s0, and rho ^ J*rho
    = (2/3) omega^3 holds for every u) the two flow equations
    omega' ^ omega = pi(d rho) + f omega ^ de^phi and (f s)' = L_{e_phi} rho
    - f pi(d omega) both lie along omega0^2 and s0, so the ansatz closes:
    u' = 4 f and (f u^{3/2})' = u^{3/2}.  With u = 1 at f = 0 these give the
    first integral 8 f^2 u^3 = u^4 - 1, the Calabi ansatz of a Ricci-flat
    Kaehler metric on a line bundle over a Kaehler-Einstein base, holonomy
    SU(4) in Spin(7).  The seed's first-order error, 8 epsilon^2 relative
    in the first integral, is carried along by the flow.
    """
    p = n11_problem(np.sqrt(2.0), 1.0, 1.0, 0.0)
    seed = startup_seed(p, 1.0, 1e-4)
    cfg = FlowConfig(t_end=1.0, integrator=integrator, sample_dt=0.05, **setting)
    traj = integrate(cfg, seed)
    assert traj.stop_reason == "completed" and traj.samples[-1].t == 1.0
    w0 = p.w_basis().coords(p.omega0.coeffs, "omega0")
    on = w0 != 0
    for smp in traj.samples:
        w, s, f = smp.data["w"], smp.data["s"], smp.data["f"]
        ratios = w[on] / w0[on]
        u = ratios[0]
        assert np.max(np.abs(ratios - u)) <= 1e-14 * u
        assert not w[~on].any()
        want_s = u**1.5 * seed.s
        assert np.max(np.abs(s - want_s)) <= 1e-14 * np.max(np.abs(want_s))
        assert abs(8 * f * f * u**3 - (u**4 - 1)) <= 1e-7 * u**4
        assert smp.monitors["class"] == "SU3" and smp.monitors["g8_signature"] == (8, 0)


@pytest.mark.parametrize("integrator,setting", [("rk4", {"step": 2e-3}), ("rk45", {"tol": 1e-9})])
def test_calabi_member_keeps_its_exact_time(integrator, setting):
    # on the Calabi member t(u) is known by quadrature (oracles.calabi_time);
    # the seed's own sample has u = 1, because the first-order seed lacks
    # the 2 epsilon^2 in u, so the check starts at the next sample
    pytest.importorskip("scipy.integrate")
    p = n11_problem(np.sqrt(2.0), 1.0, 1.0, 0.0)
    cfg = FlowConfig(t_end=1.0, integrator=integrator, sample_dt=0.05, **setting)
    traj = integrate(cfg, startup_seed(p, 1.0, 1e-4))
    assert traj.stop_reason == "completed" and traj.samples[-1].t == 1.0
    w0 = p.w_basis().coords(p.omega0.coeffs, "omega0")
    lead = np.flatnonzero(w0)[0]
    for smp in traj.samples[1:]:
        assert abs(calabi_time(smp.data["w"][lead] / w0[lead]) - smp.t) <= 2e-7


@pytest.mark.parametrize("integrator", ["rk4-fixed", "rk45-adaptive"])
def test_kernel_projection_check_escapes_integrate(monkeypatch, integrator):
    # the frame's L_{e_phi} on 3-forms broken by a term along e^127, which
    # has a leg on the fiber axis: the S velocity leaves the invariant span,
    # and the kernel's own leak check must stop the run at the first rhs
    p = n11_problem(a=1.2, b=-0.9, c_param=1.1, theta=0.4)
    seed = startup_seed(p, 1.0, 1e-4)
    stray = np.outer(KForm.basis(7, (0, 1, 6)).coeffs, p.rho0.coeffs)
    lie = HomogeneousSpace.lie_matrix
    with monkeypatch.context() as mp:
        mp.setattr(HomogeneousSpace, "lie_matrix",
                   lambda sp, i, k: lie(sp, i, k) + (stray if k == 3 else 0.0))
        broken = fl._Operators.build(p)
    monkeypatch.setattr(fl.DegenerateProblem, "operators", lambda self: broken)
    calls, rhs = [], fl._rhs_packed
    monkeypatch.setattr(fl, "_rhs_packed", lambda *a: calls.append(a) or rhs(*a))
    with pytest.raises(ProjectionFailure, match="s velocity"):
        integrate(FlowConfig(t_end=0.05, integrator=integrator, sample_dt=0.01), seed)
    assert len(calls) == 1


@pytest.mark.parametrize("integrator", ["rk4-fixed", "rk45-adaptive"])
def test_projection_failure_escapes_integrate(monkeypatch, integrator):
    # a velocity outside the invariant subspace, or operands of different
    # dimensions, are defects: in either flow they must surface at once,
    # not be retried as rejected steps
    gp = generic_problem("abelian7")
    generic_seed = GenericFlowState(0.0, gp.basis(3)[2] @ model_phi("su3").coeffs, gp)
    degenerate_seed = startup_seed(flat7_problem(), 1.0, 1e-4)

    def projection_failure():
        fl._check_leak(1.0, 1.0, "test velocity")

    def dimension_mismatch():
        wedge(KForm.zero(6, 1), KForm.zero(7, 1))

    cases = [
        ("_rhs_packed", degenerate_seed, projection_failure, ProjectionFailure),
        ("generic_rhs", generic_seed, projection_failure, ProjectionFailure),
        ("_rhs_packed", degenerate_seed, dimension_mismatch, DimensionMismatch),
    ]
    cfg = FlowConfig(t_end=0.05, integrator=integrator, sample_dt=0.01)
    for rhs_name, seed, fail, error in cases:
        calls = []

        def broken_rhs(*args):
            calls.append(args)
            fail()

        with monkeypatch.context() as mp:
            mp.setattr(fl, rhs_name, broken_rhs)
            with pytest.raises(error):
                integrate(cfg, seed)
        assert len(calls) == 1, (rhs_name, error)


def test_rk45_counts_rejections_by_cause():
    # this family point degenerates at t ~ 0.428 and rejects steps there;
    # every rejection is counted under one cause
    p = n11_problem(a=1.3992, b=-0.6387, c_param=0.6567, theta=0.3112)
    cfg = FlowConfig(space="n11", t_end=0.5, integrator="rk45-adaptive", tol=1e-9)
    st = integrate(cfg, startup_seed(p, 1.0, 1e-4)).stats
    assert st["rejected_steps"] > 0
    assert sum(st["rejections"].values()) == st["rejected_steps"]
    assert all(n > 0 for n in st["rejections"].values())


def test_rk45_stops_when_the_step_no_longer_advances_time():
    # this family point degenerates at t ~ 0.428: the adaptive step
    # shrinks until t + h == t, which must end the run, not stall it
    p = n11_problem(a=1.3992, b=-0.6387, c_param=0.6567, theta=0.3112)
    cfg = FlowConfig(space="n11", t_end=0.5, integrator="rk45-adaptive", tol=1e-9)
    traj = integrate(cfg, startup_seed(p, 1.0, 1e-4))
    assert traj.stop_reason == "step_failure"
    assert "no longer advances t" in traj.stop_cause
    assert 0.42 < traj.samples[-1].t < 0.43


# ------------------------------------------------------ step and sample checks
def _n11_run(integrator, t_end=0.3):
    p = n11_problem(a=1.3, b=-0.8, c_param=1.1, theta=0.7)
    cfg = FlowConfig(space="n11", t_end=t_end, integrator=integrator, step=2e-3, sample_dt=0.02)
    return integrate(cfg, startup_seed(p, 1.0, 1e-4))


def _split_of_pair(om6, rho6, f=1.0):
    """A split made from a pair directly, with rho = -J*S/f as the kernel
    has it, for pairs the flow's normalization would refuse as well, and
    the flat frame's tables and packed state (w, S) it is read with."""
    J, sign, jrho, _ = stable.pair_coeffs(om6.coeffs, rho6.coeffs)
    S6, om3 = -sign * f * jrho, stable.omega_cube(om6.coeffs)
    root = np.sqrt(abs(stable.lambda_invariant(KForm(6, 3, S6))))
    p = flat7_problem()
    y = p.pack(p.w_basis().coords(p.from_dist(om6).coeffs, "omega"),
               p.s_basis().coords(p.from_dist(KForm(6, 3, S6)).coeffs, "S"))
    sp = fl._Split(om6.coeffs, rho6.coeffs, S6, f, sign, -root if om3 < 0 else root, om3)
    return p.operators(), y, sp


@pytest.mark.parametrize("integrator", ["rk4-fixed", "rk45-adaptive"])
def test_split_class_matches_classify_pair_on_every_step(monkeypatch, integrator):
    splits = []
    split_class = fl._split_class
    monkeypatch.setattr(fl, "_split_class", lambda *a: splits.append(a) or split_class(*a))
    traj = _n11_run(integrator, t_end=0.1)
    assert len(splits) >= traj.stats["accepted_steps"] >= 5
    for ops, y, sp in splits:
        want = classify_pair_oracle(KForm(6, 2, sp.om6), KForm(6, 3, sp.rho6)).tag
        assert split_class(ops, y, sp)[0] is want is stable.StructureClass.SU3


def test_split_class_on_the_flat_su12_seed():
    p = flat7_problem("su12")
    seed = startup_seed(p, 1.0, 1e-3)
    y = p.pack(seed.w, seed.f * seed.s)
    sp = fl._derive_split(p, y, 1.0)
    assert fl._split_class(p.operators(), y, sp)[0] is stable.StructureClass.SU12
    want = classify_pair_oracle(seed.omega_form(), seed.rho_form())
    assert want.tag is stable.StructureClass.SU12


def _e(*idx):
    return KForm.basis(6, [i - 1 for i in idx])


@pytest.mark.parametrize(
    "case,want",
    [
        ("su3", "SU3"),
        ("su12", "SU12"),
        ("sl3r", "SL3R"),
        ("omega^3=0", "NotAStructure"),
        ("omega^rho!=0", "NotAStructure"),
        ("2rho", "NotAStructure"),
    ],
)
def test_split_class_matches_classify_pair_on_model_and_failing_pairs(case, want):
    om, rho = stable.model_pair("su3")
    if case in ("su3", "su12", "sl3r"):
        om, rho = stable.model_pair(case)
    elif case == "omega^3=0":
        om = om - _e(5, 6)
    elif case == "omega^rho!=0":
        rho = rho + 1e-3 * _e(1, 2, 3)
    else:
        rho = 2.0 * rho
    cls = classify_pair_oracle(om, rho)
    assert cls.tag.value == want
    new = classify_pair(om, rho)
    assert (new.tag, new.diagnostics) == (cls.tag, cls.diagnostics)
    if case == "omega^rho!=0":
        assert cls.diagnostics == "omega ^ rho != 0"
    if case == "2rho":
        assert cls.diagnostics == "normalization J*rho ^ rho != (2/3) omega^3"
    for f in (1.0, 0.3):
        ops, y, sp = _split_of_pair(om, rho, f)
        tag, why, _, G = fl._split_class(ops, y, sp)
        assert tag is cls.tag
        # the rule with stable's metric from J gives the same tag and reason
        jrho = (-sp.sign / f) * sp.S6
        want = stable.classify_coeffs(sp.om6, sp.rho6, _split_J(sp), sp.sign, jrho, sp.om3)
        assert (tag, why) == want[:2]
        if G is not None:
            assert relative_gap(G, want[3]) <= 1e-13


def test_bundle_phi_metric_is_g7_plus_dr2():
    # g8 of the 8-form construction against the metric of phi alone: the
    # 7-dimensional frame has e_phi = scale e_7, the 8-dimensional one e_phi
    traj = _n11_run("rk45-adaptive")
    p = traj.problem
    axes = [*p.dist_axes, p.e_phi_index]
    T = np.diag([1.0] * 6 + [p.e_phi_scale])
    for i, sample in enumerate(traj.samples):
        st = traj.state_at(i)
        g7 = seven_structure(KForm(7, 3, sample.data["phi"])).g7.matrix
        want = np.eye(8)
        want[:7, :7] = T @ g7[np.ix_(axes, axes)] @ T
        g8 = bundle_Phi(st.f, st.omega_form(), st.rho_form())[1]
        assert np.max(np.abs(g8.matrix - want)) < 1e-10


# runs that end in a step failure at a singular end, where the condition
# number of phi's metric reaches 5e3 to 3e5: (a, b, c_param) and the run
_SINGULAR_ENDS = {
    "n11-0.6-rk45": ((0.6, 0.6, 1.6), {"integrator": "rk45", "sample_dt": 0.002, "t_end": 0.3}),
    "n11-0.6-rk4": ((0.6, 0.6, 1.6),
                    {"integrator": "rk4", "step": 1e-3, "sample_dt": 0.002, "t_end": 0.3}),
    "n11-1,2,1-rk45": ((1.0, 2.0, 1.0), {"integrator": "rk45", "sample_dt": 0.002, "t_end": 0.8}),
    "n11-1.40-rk45": ((1.40, 0.64, 0.66), {"integrator": "rk45"}),
}


@pytest.mark.parametrize("case", ["n11-rk45", "n11-rk4", "flat-su12", *_SINGULAR_ENDS])
def test_sample_monitors_match_the_kform_oracle(case):
    if case == "flat-su12":
        cfg = FlowConfig(space="flat7", t_end=0.2, integrator="rk4", step=1e-3, sample_dt=0.05)
        traj = integrate(cfg, startup_seed(flat7_problem("su12"), 1.0, 1e-3))
    elif case in _SINGULAR_ENDS:
        params, settings = _SINGULAR_ENDS[case]
        traj = integrate(FlowConfig(**settings), startup_seed(n11_problem(*params), 1.0, 1e-4))
        assert traj.stop_reason == "step_failure"
    else:
        traj = _n11_run("rk45-adaptive" if case == "n11-rk45" else "rk4-fixed")
    n = len(traj.samples)
    # the stacked pass against the per-state oracle on every sample of a run
    # (the rk4 (0.6, 0.6, 1.6) run to its stop at t = 0.2591 too); the
    # oracle takes about 5 ms a sample, so the other singular runs check
    # their first sample and their last 6, where phi's metric degenerates
    every = case not in _SINGULAR_ENDS or case == "n11-0.6-rk4"
    for i in range(n) if every else [0, *range(n - 6, n)]:
        sample = traj.samples[i]
        want = degenerate_monitors_oracle(traj.state_at(i))
        got = sample.monitors
        size = np.max(np.abs(sample.data["star_phi"]))
        assert abs(got["cocal_residual"] - want["cocal_residual"]) <= 1e-14 * size
        assert abs(got["normalization_residual"] - want["normalization_residual"]) <= 1e-14
        assert (got["class"], got["g8_signature"]) == (want["class"], want["g8_signature"])
        # *phi from the split is the Hodge dual of phi, which g7's signature
        # finds stable up to the singular end
        seven = seven_structure(KForm(7, 3, sample.data["phi"]))
        assert seven.ok
        star = seven.star_phi.coeffs
        assert np.max(np.abs(sample.data["star_phi"] - star)) <= 1e-12 * np.max(np.abs(star))


def test_torsion_residual_matches_the_oracle():
    traj = _n11_run("rk45-adaptive")
    assert np.max(np.abs(torsion_residual(traj) - torsion_residual_oracle(traj))) <= 1e-10
    with pytest.raises(ValueError):  # second-order differences need 3 samples
        torsion_residual(replace(traj, samples=traj.samples[:2]))
    # a generic run off the cocalibrated slice, where |d(*phi)| is not ~ 0
    gp = generic_problem("n11")
    seed = generic_state_from_split(gp, n11_problem(), 1.0)
    rng = np.random.default_rng(2)
    pert = GenericFlowState(0.0, seed.x + 0.1 * rng.normal(size=len(seed.x)), gp)
    gtraj = integrate(FlowConfig(space="n11", t_end=0.05, sample_dt=0.0125), pert)
    assert np.min(gtraj.monitor("cocal_residual")) > 1e-3
    assert np.max(np.abs(torsion_residual(gtraj) - torsion_residual_oracle(gtraj))) <= 1e-10


def _sample(flow, t, y):
    """The sample of one state: the stacked pass over a stack of one."""
    return flow.samples([(t, y, flow.check(y)[1])])[0]


def test_one_seven_structure_per_sample_and_none_in_torsion(monkeypatch):
    traj = _n11_run("rk45-adaptive", t_end=0.1)
    flow = fl._degenerate_flow(traj.state_at(0))
    st = traj.state_at(2)
    calls = []
    count = lambda phi: calls.append(phi) or seven_structure(phi)
    monkeypatch.setattr(fl, "seven_structure", count)
    torsion_residual(traj)
    assert calls == []
    # the degenerate sample builds phi and *phi from the split
    _sample(flow, st.t, st.problem.pack(st.w, st.f * st.s))
    assert calls == []
    gp = generic_problem("abelian7")
    gseed = GenericFlowState(0.0, gp.basis(3)[2] @ model_phi("su3").coeffs, gp)
    calls.clear()
    gflow = fl._generic_flow(gseed)
    _sample(gflow, 0.0, gseed.x)  # the seed's structure, built with the flow
    assert len(calls) == 1


def test_degenerate_sample_builds_star_phi_once(monkeypatch):
    # *phi = omega^2/2 + f e^phi ^ s comes from the frame's tables, with no
    # wedge: the sample stores it and its cocal_residual reads the same rows
    traj = _n11_run("rk45-adaptive", t_end=0.1)
    flow = fl._degenerate_flow(traj.state_at(0))
    st = traj.state_at(2)
    calls, cocal = [], []
    wedge_of = fl.wedge
    monkeypatch.setattr(fl, "wedge", lambda *forms: calls.append(1) or wedge_of(*forms))
    monkeypatch.setattr(fl, "cocal_residual", lambda *a: cocal.append(1) or cocal_residual(*a))
    got = _sample(flow, st.t, st.problem.pack(st.w, st.f * st.s))
    assert calls == [] and len(cocal) == 1
    assert got.monitors == traj.samples[2].monitors


def test_a_run_monitors_its_samples_in_one_stacked_pass(monkeypatch):
    # one cocal_residual for the run and one pullback per S-basis form,
    # whatever the number of samples
    calls, cocal = [], []
    monkeypatch.setattr(fl, "pullback", lambda *a: calls.append(1) or pullback(*a))
    monkeypatch.setattr(fl, "cocal_residual", lambda *a: cocal.append(1) or cocal_residual(*a))
    traj = _n11_run("rk4-fixed")
    assert len(traj.samples) == 16
    assert len(cocal) == 1 and len(calls) == len(traj.problem.s_basis().forms)
    # a run of more samples than a pass takes is passed over in parts, with
    # the same samples
    monkeypatch.setattr(fl, "_PASS_ROWS", 5)
    cocal.clear()
    parts = _n11_run("rk4-fixed")
    assert len(cocal) == 4
    for got, want in zip(parts.samples, traj.samples, strict=True):
        assert got.t == want.t and got.monitors == want.monitors
        assert all(np.array_equal(got.data[k], want.data[k]) for k in want.data)


def test_generic_stacked_cocal_residual_is_the_per_sample_one():
    gp = generic_problem("n11")
    seed = generic_state_from_split(gp, n11_problem(1.2, -0.9, 1.1, 0.4), 1.0)
    rng = np.random.default_rng(2)
    pert = GenericFlowState(0.0, seed.x + 0.1 * rng.normal(size=len(seed.x)), gp)
    for start in (seed, pert):  # cocalibrated, and not
        traj = integrate(FlowConfig(space="n11", t_end=0.05, sample_dt=0.0125), start)
        assert len(traj.samples) == 5
        for i, sample in enumerate(traj.samples):
            star = seven_structure(traj.state_at(i).phi_form()).star_phi
            assert np.array_equal(sample.data["star_phi"], star.coeffs)
            want = gp.space.d(star).max_abs()
            assert abs(sample.monitors["cocal_residual"] - want) <= 1e-15 * star.max_abs()


@pytest.mark.parametrize(
    "index", range(5), ids=["n11-t0.1", "n11-t0.2", "n11-t0.3", "su3", "su12"]
)
def test_tabled_star_phi_matches_the_wedge_oracle(index):
    # the sample's *phi and the cocal_residual read from it, against the
    # two 7-dimensional wedges that built *phi before the frame's tables
    problem, y = _kernel_states()[index]
    flow = fl._degenerate_flow(startup_seed(problem, 1.0, 0.2 if index > 2 else 1e-4))
    sample = _sample(flow, 0.0, y)
    state = DegenerateFlowState(0.0, sample.data["f"], sample.data["w"], sample.data["s"], problem)
    want = star_phi_oracle(state)
    assert relative_gap(sample.data["star_phi"], want.coeffs) <= 1e-14
    cocal = problem.space.d(want).max_abs()
    assert abs(sample.monitors["cocal_residual"] - cocal) <= 1e-14 * want.max_abs()


def test_first_sample_must_reproduce_the_seed_reference():
    # at epsilon = 1e-7 the g8 of bundle_Phi is degenerate in floats (f^2 =
    # 1e-14): the first sample's (8, 0), from the split's metric, cannot
    # reproduce the reference's missing signature
    p = n11_problem()
    cfg = FlowConfig(space="n11", t_end=0.05, integrator="rk45-adaptive")
    with pytest.raises(PreconditionFailed) as err:
        integrate(cfg, startup_seed(p, 1.0, 1e-7))
    assert err.value.condition == "seed_reference"


def test_integrate_refuses_a_seed_whose_split_is_no_structure():
    # omega ^ rho != 0: no class for the step check to keep, and no metric
    # for the samples to read
    seed = startup_seed(flat7_problem(), 1.0, 1e-3)
    w = seed.w.copy()
    w[1] += 5.0
    with pytest.raises(PreconditionFailed) as err:
        integrate(FlowConfig(space="flat7", t_end=0.05), replace(seed, w=w))
    assert err.value.condition == "classification"
    assert "omega ^ rho != 0" in str(err.value)


def test_integrate_refuses_an_unstable_generic_seed():
    # phi = 0 has no metric: refused like a degenerate seed that is no
    # structure, before any step
    gp = generic_problem("n11")
    seed = GenericFlowState(0.0, np.zeros(len(gp.basis(3).forms)), gp)
    with pytest.raises(PreconditionFailed) as err:
        integrate(FlowConfig(t_end=0.05), seed)
    assert err.value.condition == "classification"


def _checked_states(monkeypatch, seed, cfg):
    """Every state the step check of a run sees, refused ones included:
    trial states, ends of steps and interpolated samples."""
    states, flow_of = [], fl._degenerate_flow

    def collecting(seed):
        flow = flow_of(seed)
        return replace(flow, check=lambda y: states.append(y) or flow.check(y))

    monkeypatch.setattr(fl, "_degenerate_flow", collecting)
    traj = integrate(cfg, seed)
    monkeypatch.undo()
    return traj, states


def _singular_tail():
    # (1.2, 1.0001, 1) from its sample at t = 17.5 to its stall
    seed = startup_seed(n11_problem(1.2, 1.0001, 1.0), 1.0, 1e-4)
    traj = integrate(FlowConfig(t_end=17.5, tol=1e-9, sample_dt=17.5 - 1e-4), seed)
    return traj.state_at(len(traj.samples) - 1), FlowConfig(t_end=18, tol=1e-9, sample_dt=0.5)


_TABLED_CHECK_RUNS = {
    "n11-0.6-rk45": lambda: (startup_seed(n11_problem(0.6, 0.6, 1.6), 1.0, 1e-4),
                             FlowConfig(**_SINGULAR_ENDS["n11-0.6-rk45"][1])),
    "n11-0.6-rk4": lambda: (startup_seed(n11_problem(0.6, 0.6, 1.6), 1.0, 1e-4),
                            FlowConfig(**_SINGULAR_ENDS["n11-0.6-rk4"][1])),
    "n11-1.2,1.0001,1-tail": _singular_tail,
    "n11-1.2,-0.95,1.1-rk4": lambda: (startup_seed(n11_problem(1.2, -0.95, 1.1, 0.4), 1.0, 1e-4),
                                      FlowConfig(t_end=0.5, integrator="rk4", step=2e-3)),
    "n11-1.2,-0.95,1.1-rk45": lambda: (startup_seed(n11_problem(1.2, -0.95, 1.1, 0.4), 1.0, 1e-4),
                                       FlowConfig(t_end=0.5, tol=1e-9)),
}


@pytest.mark.parametrize("case", _TABLED_CHECK_RUNS)
def test_tabled_step_check_matches_the_rule_on_every_state(monkeypatch, case):
    # on every state a run's step check sees, the frame's metric table and
    # stable's rule with G = omega(., J .) from J = K(S6) / root give the
    # same tag and reason, and the same G to 1e-13 wherever both compute it
    seed, cfg = _TABLED_CHECK_RUNS[case]()
    traj, states = _checked_states(monkeypatch, seed, cfg)
    assert traj.stop_reason == ("completed" if "1.1" in case else "step_failure")
    problem, ops = seed.problem, seed.problem.operators()
    reasons = set()
    for y in states:
        try:
            sp = fl._derive_split(problem, y, 1.0)
        except UnstableForm:  # the split refuses the state before any check
            continue
        tag, why, _, G = fl._split_class(ops, y, sp)
        want = stable.classify_coeffs(sp.om6, sp.rho6, _split_J(sp), sp.sign,
                                      (-sp.sign / sp.f) * sp.S6, sp.om3)
        assert (tag, why) == want[:2]
        if G is not None and want[3] is not None:
            assert relative_gap(G, want[3]) <= 1e-13
        reasons.add(why if why or tag is stable.StructureClass.SU3 else tag.value)
    if case == "n11-1.2,1.0001,1-tail":
        assert "no longer advances t = 17.88" in traj.stop_cause
        assert "associated metric is degenerate" in reasons
    if case == "n11-0.6-rk4":
        assert traj.stop_cause == "fixed-step state check failed at t = 0.2591: class SU12"
        assert "SU12" in reasons


def test_step_check_names_each_refusal():
    # (1.2, 1.0001, 1) lies just off b = c, below the complete surface
    # a^2 = b^2 + c^2: its run ends where the split's metric degenerates,
    # and every rejected step is counted under the reason the step check
    # gave (53 rejections, 2,533 rhs evaluations). With s scaled by
    # 1 + k 2^-52 for |k| <= 2 it ends at the same 9 printed digits
    # (test_rounding_moves_the_pinned_endings_by_less_than_their_tolerance)
    seed = startup_seed(n11_problem(1.2, 1.0001, 1.0), 1.0, 1e-4)
    traj = integrate(FlowConfig(t_end=20, tol=1e-9, sample_dt=0.5), seed)
    assert traj.stop_reason == "step_failure" and "no longer advances" in traj.stop_cause
    assert abs(float(traj.stop_cause.rsplit("= ", 1)[1]) - 17.8804774) <= 1e-7 * 17.8804774
    rejections = traj.stats["rejections"]
    assert set(rejections) == {"associated metric is degenerate"}
    assert sum(rejections.values()) == traj.stats["rejected_steps"]


def test_the_b_equals_c_line_keeps_its_symmetry_to_the_bit():
    # on b = c the flow keeps w(e34) = -w(e56): the kernel's rhs keeps it in
    # every bit, at every sample and in every velocity, so (1.2, 1, 1),
    # below the complete surface, does not end where rounding would break it
    problem = n11_problem(1.2, 1.0, 1.0)
    labels = problem.basis_labels(2)
    i, j = labels.index("e34"), labels.index("e56")
    traj = integrate(FlowConfig(t_end=40, tol=1e-9, sample_dt=1), startup_seed(problem, 1.0, 1e-4))
    assert traj.stop_reason == "completed" and len(traj.samples) == 41
    for k in range(len(traj.samples)):
        st = traj.state_at(k)
        velocity = fl._rhs_packed(problem, problem.pack(st.w, st.f * st.s), 1.0)
        assert st.w[i] + st.w[j] == 0 and velocity[i] + velocity[j] == 0, st.t


def test_the_b_equals_c_line_below_the_surface_runs_on():
    # with the symmetry kept, (1.2, 1, 1) completes to t = 60 (2,749 rhs
    # evaluations) with no rejected step
    seed = startup_seed(n11_problem(1.2, 1.0, 1.0), 1.0, 1e-4)
    traj = integrate(FlowConfig(t_end=60, tol=1e-9, sample_dt=0.5), seed)
    assert traj.stop_reason == "completed"
    assert traj.stats["rejected_steps"] == 0


@pytest.mark.parametrize(
    "params,t_star", [((1.3, 1.02, 1.0), 16.7753336), ((1.5, 1.0, 1.0), 2.91078589)]
)
def test_endings_that_rounding_does_not_move(params, t_star):
    # off b = c, or above the complete surface a^2 = b^2 + c^2, a run ends
    # where omega^3 -> 0, at a time every kernel tried gives to 9 digits;
    # (1.5, 1, 1) ends at the same 9 printed digits with s scaled by
    # 1 + k 2^-52 for |k| <= 2
    # (test_rounding_moves_the_pinned_endings_by_less_than_their_tolerance)
    seed = startup_seed(n11_problem(*params), 1.0, 1e-4)
    traj = integrate(FlowConfig(t_end=20, tol=1e-9, sample_dt=5), seed)
    assert traj.stop_reason == "step_failure" and "no longer advances" in traj.stop_cause
    assert abs(float(traj.stop_cause.rsplit("= ", 1)[1]) - t_star) <= 1e-7 * t_star
    rejections = traj.stats["rejections"]
    assert rejections.get("DegenerateOmega", 0) > 0
    assert set(rejections) <= {"DegenerateOmega", "error_norm"}


@pytest.mark.parametrize(
    "params,sample_dt,t_star",
    [((1.2, 1.0001, 1.0), 0.5, 17.8804774), ((1.5, 1.0, 1.0), 5, 2.91078589)],
)
def test_rounding_moves_the_pinned_endings_by_less_than_their_tolerance(params, sample_dt, t_star):
    # the endings pinned to 1e-7 relative above, rerun from seeds whose s
    # differs in its last bit, move by at most a tenth of that tolerance:
    # those pins measure the flow, not rounding
    config = FlowConfig(t_end=20, tol=1e-9, sample_dt=sample_dt)
    ends = ending_spread(n11_problem(*params), config, (-1, 0, 1))
    times = [t for t, _, _ in ends]
    assert {reason for _, reason, _ in ends} == {"step_failure"}
    assert max(times) - min(times) <= 0.1 * 1e-7 * t_star
    assert abs(times[1] - t_star) <= 1e-7 * t_star


@pytest.mark.parametrize(
    "flow,name,bad",
    [("degenerate", name, bad) for name in ("f", "w", "s") for bad in (np.inf, np.nan)]
    + [("generic", "x", np.inf), ("generic", "x", np.nan), ("generic", "t", np.nan)],
)
def test_integrate_refuses_a_non_finite_seed(flow, name, bad):
    # refused before any numpy call on the seed could warn or fail later
    if flow == "degenerate":
        seed = startup_seed(n11_problem(), 1.0, 1e-4)
    else:
        gp = generic_problem("n11")
        seed = generic_state_from_split(gp, n11_problem(), 1.0)
    value = getattr(seed, name)
    if isinstance(value, np.ndarray):
        value = value.copy()
        value[-1] = bad
    else:
        value = bad
    with pytest.raises(PreconditionFailed) as err:
        integrate(FlowConfig(space="n11", t_end=0.05), replace(seed, **{name: value}))
    assert err.value.condition == "finite_seed"


def test_cached_basis_keeps_bases_with_and_without_the_fiber_apart():
    p = n11_problem()
    full = fl._cached_basis(p, 3)
    cut = fl._cached_basis(p, 3, p.e_phi_index)
    assert len(cut.forms) < len(full.forms)
    assert fl._cached_basis(p, 3) is full and fl._cached_basis(p, 3, p.e_phi_index) is cut
