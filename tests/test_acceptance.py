"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Tolerances are pinned here and nowhere else."""

import time

import numpy as np
import pytest

from hitchinflow import flow as fl
from hitchinflow.errors import PreconditionFailed
from hitchinflow.flow import (
    FlowConfig,
    deform_state,
    generic_problem,
    generic_state_from_split,
    integrate,
    mirror_seed,
    n11_problem,
    smoothness_check,
    startup_seed,
    torsion_residual,
)
from hitchinflow.forms import pullback, wedge
from hitchinflow.g2spin7 import SevenClass, metric_vol_from_phi, model_phi
from hitchinflow.homogeneous import invariant_basis, space
from hitchinflow.stable import (
    StructureClass,
    assoc_J,
    assoc_metric,
    classify_pair,
    k_endomorphism,
    model_pair,
)
from hitchinflow.verify import verify_identities


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ----------------------------------------------------------------- 1
def test_criterion_1_exact_identity_suite():
    t0 = time.perf_counter()
    checks = verify_identities()
    elapsed = time.perf_counter() - t0
    n_ok = sum(c.passed for c in checks)
    failures = [c.name for c in checks if not c.passed]
    ok = n_ok == len(checks) and elapsed < 10.0
    _report(
        1,
        ok,
        f"exact identity suite {n_ok}/{len(checks)} in {elapsed:.2f}s"
        + (f"; failing: {failures}" if failures else ""),
    )


# ----------------------------------------------------------------- 2
def test_criterion_2_equivariance_500_trials():
    rng = np.random.default_rng(515)
    t0 = time.perf_counter()
    tol = 1e-8
    worst = 0.0
    models = {
        "su3": StructureClass.SU3,
        "su12": StructureClass.SU12,
        "sl3r": StructureClass.SL3R,
    }
    pairs = {name: model_pair(name) for name in models}
    js = {name: k_endomorphism(pairs[name][1]) for name in models}
    g0 = {name: np.asarray(assoc_metric(*pairs[name]).matrix, float) for name in models}
    names = list(models)
    for trial in range(500):
        name = names[trial % 3]
        om, rho = pairs[name]
        A = rng.normal(size=(6, 6))
        if abs(np.linalg.det(A)) < 0.05:
            continue
        omA, rhoA = pullback(A, om), pullback(A, rho)
        # i-map equivariance (signed by orientation for the raw map)
        JA = assoc_J(rhoA)
        want = np.sign(np.linalg.det(A)) * np.linalg.inv(A) @ assoc_J(rho) @ A
        scale = max(1.0, float(np.max(np.abs(want))))
        worst = max(worst, float(np.max(np.abs(JA - want))) / scale)
        # j-map equivariance at the pair level (fully equivariant)
        gA = np.asarray(assoc_metric(omA, rhoA).matrix, float)
        wantg = A.T @ g0[name] @ A
        worst = max(worst, float(np.max(np.abs(gA - wantg))) / max(1.0, np.max(np.abs(wantg))))
        # orbit classification is stable
        out = classify_pair(omA, rhoA)
        if out.tag is not models[name]:
            _report(2, False, f"classification flipped on trial {trial} ({name})")
        # 7-dimensional classification stability
        if trial % 5 == 0:
            A7 = rng.normal(size=(7, 7))
            if abs(np.linalg.det(A7)) < 0.05:
                continue
            _, _, k1 = metric_vol_from_phi(pullback(A7, model_phi("su3")))
            _, _, k2 = metric_vol_from_phi(pullback(A7, model_phi("sl3r")))
            if k1 is not SevenClass.G2 or k2 is not SevenClass.G2_STAR:
                _report(2, False, f"7-dim classification flipped on trial {trial}")
    elapsed = time.perf_counter() - t0
    ok = worst < tol and elapsed < 60.0
    _report(2, ok, f"500 GL trials, worst equivariance residual {worst:.2e} in {elapsed:.1f}s")


# ----------------------------------------------------------------- 3
def test_criterion_3_ce_calculus():
    sp = space("n11")
    jac = sp.algebra.jacobi_residual()
    rng = np.random.default_rng(99)
    dd = 0.0
    for k in (1, 2, 3):
        basis = invariant_basis(sp, k)
        mat = np.stack([b.form.coeffs for b in basis], axis=1)
        from hitchinflow.forms import KForm

        f = KForm(7, k, mat @ rng.normal(size=len(basis)))
        dd = max(dd, sp.d(sp.d(f)).max_abs())
    p = n11_problem()
    sm = smoothness_check(sp, p.omega0, p.rho0, 6, 1.0)
    c_err = abs(sm.c - (-2.0))
    dww = 0.0
    from hitchinflow.forms import KForm

    e = lambda *idx: KForm.from_terms(7, len(idx), {tuple(i - 1 for i in idx): 1})
    for _ in range(100):
        a2, b2, c2 = rng.uniform(0.1, 3.0, size=3)
        om = a2 * e(1, 2) + b2 * e(3, 4) - c2 * e(5, 6)
        dww = max(dww, wedge(sp.d(om), om).max_abs())
    ok = jac < 1e-12 and dd < 1e-12 and sm.fit_residual < 1e-10 and c_err < 1e-12 and dww < 1e-12
    _report(
        3,
        ok,
        f"jacobi {jac:.1e}, d^2 {dd:.1e}, c = {sm.c} (err {c_err:.1e}, "
        f"fit {sm.fit_residual:.1e}), max |d omega ^ omega| {dww:.1e} over 100 draws",
    )


# ----------------------------------------------------------------- 4
def _matched_torsion_ratio(traj_coarse, traj_fine):
    tc, tf = traj_coarse.times(), traj_fine.times()
    rc, rf = torsion_residual(traj_coarse), torsion_residual(traj_fine)
    pairs = []
    for i in range(1, len(tc) - 1):
        j = int(np.argmin(np.abs(tf - tc[i])))
        if abs(tf[j] - tc[i]) < 1e-10 and 0 < j < len(tf) - 1:
            pairs.append((rc[i], rf[j]))
    return max(c for c, _ in pairs) / max(f for _, f in pairs)


def test_criterion_4_generic_flow():
    t0 = time.perf_counter()
    gp = generic_problem("n11")
    dp = n11_problem()
    seed = generic_state_from_split(gp, dp, 1.0)
    assert fl.cocal_residual(seed) < 1e-10
    cfg = FlowConfig(space="n11", t_end=1.0, integrator="rk45-adaptive", tol=1e-9, sample_dt=0.02)
    traj = integrate(cfg, seed)
    cocal_max = float(np.max(traj.monitor("cocal_residual")))
    cfg2 = FlowConfig(space="n11", t_end=1.0, integrator="rk45-adaptive", tol=1e-9, sample_dt=0.01)
    traj2 = integrate(cfg2, seed)
    ratio = _matched_torsion_ratio(traj, traj2)
    elapsed = time.perf_counter() - t0
    ok = (
        traj.stop_reason in ("completed", "blow_up")
        and cocal_max < 1e-6
        and 3.5 <= ratio <= 4.5
        and elapsed < 300.0
    )
    _report(
        4,
        ok,
        f"{traj.stop_reason} at t = {traj.times()[-1]:.2f}, cocal max {cocal_max:.2e}, "
        f"torsion ratio {ratio:.2f} in {elapsed:.1f}s",
    )


# ----------------------------------------------------------------- 5
def test_criterion_5_degenerate_flow():
    t0 = time.perf_counter()
    p = n11_problem(a=1.0, b=1.0, c_param=1.0, theta=0.0, bundle="squared")
    sm = fl.problem_smoothness(p)
    assert sm.ok and abs(abs(sm.c) - 1.0) < 1e-12
    eps = 1e-4
    seed = startup_seed(p, sm.c, eps)
    cfg = FlowConfig(
        space="n11", t_end=0.5, integrator="rk45-adaptive", tol=1e-9,
        sample_dt=0.005, startup_epsilon=eps,
    )
    traj = integrate(cfg, seed)
    sigs = {s.monitors["g8_signature"] for s in traj.samples}
    ts, fs = traj.times(), traj.series("f")
    early = [abs(fs[i] / ts[i] - 1.0) for i in (1, 2)]
    rich = fl.richardson_deviation(
        p, sm.c, FlowConfig(space="n11", integrator="rk45-adaptive", tol=1e-10,
                            sample_dt=0.05, startup_epsilon=eps), 0.3
    )
    # unsquared bundle rejected with c = -2
    pu = n11_problem(bundle="unsquared")
    smu = fl.problem_smoothness(pu)
    rejected = (not smu.ok) and abs(smu.c - (-2.0)) < 1e-12
    try:
        startup_seed(pu, smu.c, eps)
        rejected = False
    except PreconditionFailed:
        pass
    elapsed = time.perf_counter() - t0
    ok = (
        traj.stop_reason == "completed"
        and sigs == {(8, 0)}
        and early[0] < 1e-3
        and early[1] < 1e-3
        and early[0] < early[1]  # the ratio approaches 1 as t -> 0
        and rich < 1e-6
        and rejected
        and elapsed < 300.0
    )
    _report(
        5,
        ok,
        f"completed t = 0.5, g8 sig {sigs}, orbit ratio errors {early[0]:.1e} < {early[1]:.1e}, "
        f"richardson {rich:.1e}, unsquared c = {smu.c} rejected, in {elapsed:.1f}s",
    )


# ----------------------------------------------------------------- 6
def test_criterion_6_uniqueness_proxy():
    t0 = time.perf_counter()
    p = n11_problem()
    eps = 1e-4
    seed = startup_seed(p, 1.0, eps)
    cfg45 = FlowConfig(space="n11", t_end=0.5, integrator="rk45-adaptive", tol=1e-9, sample_dt=0.01)
    cfg4 = FlowConfig(space="n11", t_end=0.5, integrator="rk4-fixed", step=1e-4, sample_dt=0.01)
    tr45 = integrate(cfg45, seed)
    tr4 = integrate(cfg4, seed)
    sup = 0.0
    for a, b in zip(tr45.samples, tr4.samples):
        assert abs(a.t - b.t) < 1e-12
        sup = max(
            sup,
            abs(a.data["f"] - b.data["f"]),
            float(np.max(np.abs(a.data["w"] - b.data["w"]))),
            float(np.max(np.abs(a.data["s"] - b.data["s"]))),
        )
    # reflection: the analytic continuation to -t has f(-t) = f(t) (as
    # geometric fiber length; the signed continuation is odd)
    bwd = integrate(
        FlowConfig(space="n11", t_end=-0.5, integrator="rk45-adaptive", tol=1e-9, sample_dt=0.01),
        mirror_seed(p, 1.0, eps),
    )
    refl = 0.0
    fb = bwd.series("f")
    ff = tr45.series("f")
    for i in range(min(len(fb), len(ff))):
        if abs(bwd.times()[i] + tr45.times()[i]) < 1e-12:
            refl = max(refl, abs(abs(fb[i]) - ff[i]))
    elapsed = time.perf_counter() - t0
    ok = sup < 1e-6 and refl < 1e-6 and elapsed < 300.0
    _report(
        6,
        ok,
        f"rk4(h=1e-4) vs rk45 sup {sup:.2e}, reflection |f(-t)| vs f(t) {refl:.2e} in {elapsed:.1f}s",
    )


# ----------------------------------------------------------------- 7
def test_criterion_7_theta_equivariance():
    t0 = time.perf_counter()
    cfg = FlowConfig(space="n11", t_end=0.5, integrator="rk45-adaptive", tol=1e-9, sample_dt=0.02)
    thetas = (0.0, 0.3, 1.0)
    trajs = {}
    for theta in thetas:
        seed = startup_seed(n11_problem(theta=theta), 1.0, 1e-4)
        trajs[theta] = integrate(cfg, seed)
    f0 = trajs[0.0].series("f")
    f_dev = max(float(np.max(np.abs(trajs[th].series("f") - f0))) for th in thetas[1:])
    commute = 0.0
    for theta in thetas[1:]:
        for i in range(0, len(trajs[0.0].samples), 5):
            d = deform_state(trajs[0.0].state_at(i), theta)
            st = trajs[theta].state_at(i)
            commute = max(
                commute,
                abs(d.f - st.f),
                float(np.max(np.abs(d.w - st.w))),
                float(np.max(np.abs(d.s - st.s))),
            )
    elapsed = time.perf_counter() - t0
    ok = f_dev < 1e-6 and commute < 1e-6 and elapsed < 300.0
    _report(
        7,
        ok,
        f"f-series deviation {f_dev:.2e}, flow/deform commutator {commute:.2e} "
        f"over theta in {thetas} in {elapsed:.1f}s",
    )
