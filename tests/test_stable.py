from fractions import Fraction

import numpy as np
import pytest

from hitchinflow.errors import DegenerateOmega, UnstableForm
from hitchinflow.forms import KForm, pullback, volume_form, wedge
from hitchinflow.stable import (
    StructureClass,
    assoc_J,
    assoc_metric,
    classify_pair,
    iota,
    k_endomorphism,
    lambda_invariant,
    model_pair,
    pair_coeffs,
    pair_structure,
    signature_class,
    solve_wedge_coeffs,
    solve_wedge_omega,
    theta_deform,
    theta_rotation_matrix,
)

from oracles import classify_pair_oracle


def _random_glplus(rng, dim=6):
    while True:
        A = rng.normal(size=(dim, dim))
        d = np.linalg.det(A)
        if abs(d) > 0.1:
            return A if d > 0 else A[:, [1, 0] + list(range(2, dim))]


# ------------------------------------------------------- K and lambda
def test_k_zero_form():
    assert np.max(np.abs(k_endomorphism(KForm.zero(6, 3)))) == 0.0


def test_k_model_values_exact():
    _, rho = model_pair("su3", exact=True)
    K = k_endomorphism(rho)
    lam = lambda_invariant(rho).value
    assert lam == Fraction(-4)
    assert np.all(K @ K == np.diag([Fraction(-4)] * 6))
    assert K[1, 0] == Fraction(-2)  # K e1 = -2 e2


def test_k_equivariance(rng):
    # K_{A* rho} = det(A) A^{-1} K A, both sides computed independently
    _, rho = model_pair("su3")
    K0 = k_endomorphism(rho)
    for _ in range(20):
        A = rng.normal(size=(6, 6))
        lhs = k_endomorphism(pullback(A, rho))
        rhs = np.linalg.det(A) * np.linalg.inv(A) @ K0 @ A
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_lambda_signs_and_decomposable():
    assert lambda_invariant(model_pair("su3", exact=True)[1]).value < 0
    assert lambda_invariant(model_pair("sl3r", exact=True)[1]).value > 0
    assert lambda_invariant(KForm.basis(6, (0, 1, 2), exact=True)).value == 0


def test_lambda_scales_with_reference_volume():
    _, rho = model_pair("su3")
    lam1 = lambda_invariant(rho, volume_form(6, 1.0)).value
    lam2 = lambda_invariant(rho, volume_form(6, 2.0)).value
    # halving vol doubles K, so lambda picks up (1/s)^{-2} = s^2 for vol -> vol/s
    assert lam2 == pytest.approx(lam1 / 4)


# ------------------------------------------------------------- assoc_J
def test_assoc_J_model_values():
    J = assoc_J(model_pair("su3", exact=True)[1])
    assert J[1, 0] == Fraction(-1) and J[0, 1] == Fraction(1)
    assert np.all(J @ J == -np.eye(6, dtype=object))
    Jpc = assoc_J(model_pair("sl3r", exact=True)[1])
    assert Jpc[1, 0] == Fraction(1)
    assert np.all(Jpc @ Jpc == np.eye(6, dtype=object))


def test_assoc_J_unstable_raises():
    with pytest.raises(UnstableForm):
        assoc_J(KForm.basis(6, (0, 1, 2)))


def test_assoc_J_vol_rescale_and_orientation():
    _, rho = model_pair("su3")
    J1 = assoc_J(rho, volume_form(6, 1.0))
    J2 = assoc_J(rho, volume_form(6, 3.7))
    assert np.max(np.abs(J1 - J2)) < 1e-12
    Jneg = assoc_J(rho, volume_form(6, -1.0))
    assert np.max(np.abs(J1 + Jneg)) < 1e-12


def test_J_squares_on_random_orbit_points(rng):
    for name, sign in (("su3", -1), ("sl3r", 1)):
        _, rho = model_pair(name)
        for _ in range(10):
            A = rng.normal(size=(6, 6))
            if abs(np.linalg.det(A)) < 0.1:
                continue
            J = assoc_J(pullback(A, rho))
            assert np.max(np.abs(J @ J - sign * np.eye(6))) < 1e-10


# ----------------------------------------------------------- assoc_metric
def test_metric_model_tables():
    g = assoc_metric(*model_pair("su3", exact=True))
    assert np.all(g.matrix == np.eye(6, dtype=object) + Fraction(0))
    g12 = assoc_metric(*model_pair("su12", exact=True))
    assert np.all(g12.matrix == np.diag([Fraction(x) for x in (-1, -1, -1, -1, 1, 1)]))
    gpc = assoc_metric(*model_pair("sl3r", exact=True))
    assert np.all(gpc.matrix == np.diag([Fraction(x) for x in (1, -1, 1, -1, 1, -1)]))


def test_metric_equivariance_oriented(rng):
    om, rho = model_pair("su3")
    g0 = assoc_metric(om, rho).matrix
    for _ in range(20):
        A = _random_glplus(rng)
        g1 = assoc_metric(pullback(A, om), pullback(A, rho)).matrix
        want = A.T @ g0 @ A
        assert np.max(np.abs(g1 - want)) < 1e-8 * max(1.0, np.max(np.abs(want)))


# ------------------------------------------------------------- classify
def test_classify_models():
    assert classify_pair(*model_pair("su3")).tag is StructureClass.SU3
    assert classify_pair(*model_pair("su12")).tag is StructureClass.SU12
    assert classify_pair(*model_pair("sl3r")).tag is StructureClass.SL3R


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_classify_pair_builds_k_once_and_pulls_back_once(monkeypatch, exact):
    from hitchinflow import stable

    calls = []
    for name in ("k_endomorphism", "pullback"):
        fn = getattr(stable, name)
        monkeypatch.setattr(
            stable, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a)
        )
    assert classify_pair(*model_pair("sl3r", exact=exact)).tag is StructureClass.SL3R
    assert sorted(calls) == ["k_endomorphism", "pullback"]


def test_classify_rejects_bad_normalization():
    om, rho = model_pair("su3")
    out = classify_pair(om, 2.0 * rho)
    assert out.tag is StructureClass.NOT_A_STRUCTURE
    assert "normalization" in out.diagnostics


def test_classify_reports_a_degenerate_omega_before_taking_an_exact_root():
    # lambda = -6 for this exact rho, so J = K/sqrt 6 has no rational
    # entries: the degenerate omega is reported without asking for one
    _, rho = model_pair("su3", exact=True)
    rho = rho + Fraction(1, 2) * KForm.basis(6, (0, 2, 4), exact=True)
    out = classify_pair(KForm.basis(6, (0, 1), exact=True), rho)
    assert out.tag is StructureClass.NOT_A_STRUCTURE
    assert out.diagnostics == "omega is degenerate (omega^3 = 0)"
    assert out.lambda_value == -6


@pytest.mark.parametrize("tilt", [(), (0, 2)])
def test_classify_reports_an_irrational_exact_j_as_its_float_copy_does(tilt):
    # lambda = -6: J = K/sqrt 6 is irrational, so J*rho ^ rho = q/6^(3/2)
    # cannot equal the rational (2/3) omega^3; the exact pair reports that
    # (or, with omega tilted by e^13, the omega ^ rho check before it)
    # exactly as the float copy does, instead of raising for the root
    out = {}
    for exact in (True, False):
        om, rho = model_pair("su3", exact=exact)
        rho = rho + KForm.basis(6, (0, 2, 4), exact=exact) / 2
        if tilt:
            om = om + KForm.basis(6, tilt, exact=exact)
        out[exact] = classify_pair(om, rho)
    assert out[True].tag is out[False].tag is StructureClass.NOT_A_STRUCTURE
    assert out[True].diagnostics == out[False].diagnostics
    assert out[True].diagnostics == ("omega ^ rho != 0" if tilt else
                                     "normalization J*rho ^ rho != (2/3) omega^3")
    assert out[True].lambda_value == out[False].lambda_value == -6


def test_classify_rejects_bad_compatibility():
    om, rho = model_pair("su3")
    bad = om + 0.5 * KForm.basis(6, (0, 2))
    out = classify_pair(bad, rho)
    assert out.tag is StructureClass.NOT_A_STRUCTURE


def test_classify_stable_under_conjugation(rng):
    for name, tag in (("su3", StructureClass.SU3), ("su12", StructureClass.SU12),
                      ("sl3r", StructureClass.SL3R)):
        om, rho = model_pair(name)
        for _ in range(25):
            A = rng.normal(size=(6, 6))
            if abs(np.linalg.det(A)) < 0.1:
                continue
            out = classify_pair(pullback(A, om), pullback(A, rho))
            assert out.tag is tag, f"{name}: {out.diagnostics}"


@pytest.mark.parametrize("name", ["su3", "su12", "sl3r"])
def test_classify_pair_matches_the_oracle(rng, name):
    # GL(6) conjugates of a model in both orientations, each also with a
    # wrong normalization and off omega ^ rho = 0: same tag, reason,
    # lambda and signature as the KForm oracle, and the same J bit for bit
    om0, rho0 = model_pair(name)
    e123 = KForm.basis(6, (0, 1, 2))
    for _ in range(8):
        A = _random_glplus(rng)
        A = A if rng.random() < 0.5 else A[:, [1, 0, 2, 3, 4, 5]]
        om, rho = pullback(A, om0), pullback(A, rho0)
        for pair in ((om, rho), (om, 2.0 * rho), (om, rho + 1e-3 * e123)):
            got, want = classify_pair(*pair), classify_pair_oracle(*pair)
            assert (got.tag, got.diagnostics) == (want.tag, want.diagnostics)
            assert (got.lambda_value, got.signature) == (want.lambda_value, want.signature)
            if want.ok:
                assert np.array_equal(got.J, want.J)
                scale = np.max(np.abs(want.metric.matrix))
                assert np.max(np.abs(got.metric.matrix - want.metric.matrix)) <= 1e-12 * scale
    assert classify_pair(om0, rho0).tag is StructureClass[name.upper()]


@pytest.mark.parametrize("name", ["su3", "su12", "sl3r"])
def test_pair_structure_jrho_is_the_pullback(rng, name):
    # the J*rho that pair_structure returns is pullback(J, rho) for its
    # sign-resolved J, in both scalar modes; pair_coeffs gives the same
    # J and J*rho in coefficient space, and nu = 1 on normalized pairs
    J, _, _, jrho = pair_structure(*model_pair(name, exact=True))
    assert np.array_equal(jrho.coeffs, pullback(J, model_pair(name, exact=True)[1]).coeffs)
    om0, rho0 = model_pair(name)
    for _ in range(5):
        A = _random_glplus(rng)
        A = A if rng.random() < 0.5 else A[:, [1, 0, 2, 3, 4, 5]]  # both orientations
        om, rho = pullback(A, om0), pullback(A, rho0)
        J, _, sign, jrho = pair_structure(om, rho)
        assert np.array_equal(jrho.coeffs, pullback(J, rho).coeffs)
        Jc, sign_c, jrho_c, nu = pair_coeffs(om.coeffs, rho.coeffs)
        assert sign_c == sign
        assert np.max(np.abs(Jc - J)) <= 1e-12 * np.max(np.abs(J))
        assert np.max(np.abs(jrho_c - jrho.coeffs)) <= 1e-12 * jrho.max_abs()
        assert nu == pytest.approx(1.0, rel=1e-10)


def test_signature_class_needs_the_signature_and_the_sign_of_lambda():
    want = {((6, 0), -1): "SU3", ((2, 4), -1): "SU12", ((3, 3), 1): "SL3R"}
    for sig in ((6, 0), (2, 4), (3, 3), (4, 2), (0, 6)):
        for sign in (-1, 1):
            tag = signature_class(sig, sign).value
            assert tag == want.get((sig, sign), "NotAStructure"), (sig, sign)


def test_pair_coeffs_refuses_unstable_rho():
    om, _ = model_pair("su3")
    with pytest.raises(UnstableForm):
        pair_coeffs(om.coeffs, KForm.basis(6, (0, 1, 2)).coeffs)


def test_solve_wedge_coeffs_matches_kform_solve(rng):
    om, _ = model_pair("su12")
    om = pullback(_random_glplus(rng), om)
    tau = KForm(6, 4, rng.normal(size=15))
    alpha = solve_wedge_coeffs(om.coeffs, tau.coeffs)
    assert np.max(np.abs(wedge(KForm(6, 2, alpha), om).coeffs - tau.coeffs)) < 1e-10
    assert np.array_equal(solve_wedge_omega(om, tau).coeffs, alpha)
    with pytest.raises(DegenerateOmega):
        solve_wedge_coeffs(KForm.basis(6, (0, 1)).coeffs, tau.coeffs)


def test_classify_family_member():
    e = lambda *idx: KForm.from_terms(6, len(idx), {tuple(i - 1 for i in idx): 1})
    om0 = e(1, 2) + e(3, 4) - e(5, 6)
    rho0 = -e(1, 3, 5) - e(1, 4, 6) - e(2, 3, 6) + e(2, 4, 5)
    out = classify_pair(om0, rho0)
    assert out.tag is StructureClass.SU3
    assert np.max(np.abs(out.metric.matrix - np.eye(6))) < 1e-12


# ---------------------------------------------------------- theta_deform
def test_theta_zero_is_identity():
    om, rho = model_pair("su3")
    om2, rho2 = theta_deform(om, rho, 0.0)
    assert np.max(np.abs(rho2.coeffs - rho.coeffs)) < 1e-15


def test_theta_matches_basis_change_and_preserves_class():
    om, rho = model_pair("su3")
    theta = 2 * np.pi / 3
    _, rho_t = theta_deform(om, rho, theta)
    via_matrix = pullback(theta_rotation_matrix(theta), rho)
    assert np.max(np.abs(rho_t.coeffs - via_matrix.coeffs)) < 1e-12
    out = classify_pair(om, rho_t)
    assert out.tag is StructureClass.SU3
    # A_theta stabilizes omega and the metric: same structure data
    assert np.max(np.abs(out.metric.matrix - np.eye(6))) < 1e-12


def test_theta_preserves_metric_generic():
    om, rho = model_pair("su12")
    om2, rho2 = theta_deform(om, rho, 0.37)
    g = assoc_metric(om2, rho2)
    g0 = assoc_metric(om, rho)
    assert np.max(np.abs(np.asarray(g.matrix, float) - np.asarray(g0.matrix, float))) < 1e-10
    assert classify_pair(om2, rho2).tag is StructureClass.SU12


def test_theta_para_case_stays_sl3r():
    om, rho = model_pair("sl3r")
    om2, rho2 = theta_deform(om, rho, 0.8)
    assert classify_pair(om2, rho2).tag is StructureClass.SL3R


def test_theta_rejects_non_structure():
    om, rho = model_pair("su3")
    with pytest.raises(UnstableForm):
        theta_deform(om, 2.0 * rho, 0.3)


# ------------------------------------------------------------------ iota
def test_iota_model():
    om, _ = model_pair("su3")
    sigma = 0.5 * wedge(om, om)
    out = iota(sigma)
    assert np.max(np.abs(out.coeffs - om.coeffs)) < 1e-12


def test_iota_sign_hint():
    om, _ = model_pair("su3")
    sigma = 0.5 * wedge(om, om)
    out = iota(sigma, sign_hint=-1.0 * om)
    assert np.max(np.abs(out.coeffs + om.coeffs)) < 1e-12


def test_iota_roundtrip_random(rng):
    for _ in range(15):
        om = KForm(6, 2, rng.normal(size=15))
        om3 = wedge(wedge(om, om), om)
        if abs(om3.coeffs[0]) < 1e-2:
            continue
        back = iota(0.5 * wedge(om, om), sign_hint=om)
        assert np.max(np.abs(back.coeffs - om.coeffs)) < 1e-9 * max(1.0, om.max_abs())


def test_iota_rejects_non_square():
    with pytest.raises(UnstableForm):
        iota(KForm.basis(6, (0, 1, 2, 3)))


# ------------------------------------------------------ solve_wedge_omega
def test_solve_wedge_trivial_cases():
    om, _ = model_pair("su3")
    out = solve_wedge_omega(om, wedge(om, om))
    assert np.max(np.abs(out.coeffs - om.coeffs)) < 1e-12
    zero = solve_wedge_omega(om, KForm.zero(6, 4))
    assert zero.max_abs() < 1e-14


def test_solve_wedge_roundtrip(rng):
    om, _ = model_pair("su3")
    for _ in range(10):
        alpha = KForm(6, 2, rng.normal(size=15))
        back = solve_wedge_omega(om, wedge(alpha, om))
        assert np.max(np.abs(back.coeffs - alpha.coeffs)) < 1e-10


def test_solve_wedge_degenerate():
    degenerate = KForm.basis(6, (0, 1))  # omega^3 = 0
    with pytest.raises(DegenerateOmega):
        solve_wedge_omega(degenerate, KForm.zero(6, 4))


# --------------------------------------------------- invariant identities
def test_compatibility_and_normalization_after_deform():
    om, rho = model_pair("su3")
    for theta in (0.3, 1.2):
        om2, rho2 = theta_deform(om, rho, theta)
        cls = classify_pair(om2, rho2)
        assert cls.ok
        jr = pullback(cls.J, rho2)
        lhs = wedge(jr, rho2)
        rhs = (2.0 / 3.0) * wedge(wedge(om2, om2), om2)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-10
        assert wedge(om2, rho2).max_abs() < 1e-10
