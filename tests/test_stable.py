from fractions import Fraction

import numpy as np
import pytest

from hitchinflow import stable
from hitchinflow.errors import DegenerateOmega, UnstableForm
from hitchinflow.forms import KForm, pullback, wedge
from hitchinflow.linalg import increasing_tuples
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
)

from oracles import (
    classify_pair_oracle,
    dense_pullback,
    theta_rotation_matrix,
    wedge_solve_oracle,
)


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
    lam = lambda_invariant(rho)
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
    assert lambda_invariant(model_pair("su3", exact=True)[1]) < 0
    assert lambda_invariant(model_pair("sl3r", exact=True)[1]) > 0
    assert lambda_invariant(KForm.basis(6, (0, 1, 2), exact=True)) == 0


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
def test_classify_pair_builds_k_once_and_makes_no_pullback(monkeypatch, exact):
    # J*rho comes from the gradient of lambda, not from pulling rho back by J
    from hitchinflow import forms, linalg, stable

    calls = []
    for module, name in ((stable, "k_endomorphism"), (forms, "pullback"), (linalg, "minors")):
        fn = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a)
        )
    assert classify_pair(*model_pair("sl3r", exact=exact)).tag is StructureClass.SL3R
    assert calls == ["k_endomorphism"]


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


@pytest.mark.parametrize(
    "omega_scale,rho_scale,reason",
    [(1e103, 1.0, "omega^3 is out of float range"), (1.0, 1e80, "rho is out of float range")],
)
def test_classify_reports_coefficients_beyond_float_range(omega_scale, rho_scale, reason):
    # max|omega|^3 and max|rho|^4 leave the float range: a failure in the
    # returned value, not an OverflowError
    om, rho = model_pair("su3")
    with np.errstate(over="ignore", invalid="ignore"):
        out = classify_pair(om * omega_scale, rho * rho_scale)
    assert out.tag is StructureClass.NOT_A_STRUCTURE
    assert out.diagnostics == reason


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


def test_conjugates_keep_the_normalization_far_inside_its_bound(rng):
    # the conjugates of test_classify_stable_under_conjugation (the same
    # draws) and of acceptance 2 (seed 515, the 7 x 7 draw of every fifth
    # trial skipped): J*rho ^ rho = (2/3) omega^3 to 1e-12 relative, a
    # hundredth of the 1e-10 that classify_pair allows, so that bound
    # does not decide any of these classifications
    trials = []
    for name in ("su3", "su12", "sl3r"):
        trials += [(name, A) for A in rng.normal(size=(25, 6, 6)) if abs(np.linalg.det(A)) >= 0.1]
    acc = np.random.default_rng(515)
    for trial in range(500):
        A = acc.normal(size=(6, 6))
        if abs(np.linalg.det(A)) >= 0.05:
            trials.append((("su3", "su12", "sl3r")[trial % 3], A))
            if trial % 5 == 0:
                acc.normal(size=(7, 7))
    worst = 0.0
    for name, A in trials:
        om, rho = (pullback(A, x) for x in model_pair(name))
        num = wedge(classify_pair(om, rho).jrho, rho).coeffs[0]
        om3 = wedge(wedge(om, om), om).coeffs[0]
        worst = max(worst, abs(num - 2 / 3 * om3) / max(abs(num), abs(om3)))
    assert len(trials) > 500 and worst <= 1e-12, worst


@pytest.mark.parametrize("name", ["su3", "su12", "sl3r"])
def test_classify_pair_matches_the_oracle(rng, name):
    # GL(6) conjugates of a model in both orientations, each also with a
    # wrong normalization and off omega ^ rho = 0: same tag, reason,
    # lambda and signature as the KForm oracle, and J to 1e-13 relative
    # (K / sqrt|lambda| with lambda from Euler's identity, not tr(K^2)/6)
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
                assert np.abs(got.J - want.J).max() <= 1e-13 * np.abs(want.J).max()
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
        assert np.max(np.abs(jrho.coeffs - pullback(J, rho).coeffs)) <= 1e-13 * jrho.max_abs()
        Jc, sign_c, jrho_c, nu = pair_coeffs(om.coeffs, rho.coeffs)
        assert sign_c == sign
        assert np.max(np.abs(Jc - J)) <= 1e-12 * np.max(np.abs(J))
        assert np.max(np.abs(jrho_c - jrho.coeffs)) <= 1e-12 * jrho.max_abs()
        assert nu == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("name", ["su3", "su12", "sl3r"])
def test_gradient_jrho_is_the_dense_pullback(rng, name):
    # J*rho from the gradient of lambda is the dense pullback of rho by the
    # sign-resolved J: within 1e-13 relative on GL(6) conjugates in both
    # orientations, and equal as Fractions on the exact model and on its
    # integer conjugates (sqrt|lambda| scales by |det A|, so J stays rational)
    om0, rho0 = model_pair(name)
    for flip in (False, True) * 4:
        A = _random_glplus(rng)
        A = A[:, [1, 0, 2, 3, 4, 5]] if flip else A
        om, rho = pullback(A, om0), pullback(A, rho0)
        J, _, jrho, _ = pair_coeffs(om.coeffs, rho.coeffs)
        want = dense_pullback(J, rho).coeffs
        assert np.max(np.abs(jrho - want)) <= 1e-13 * np.max(np.abs(want))
    om0, rho0 = model_pair(name, exact=True)
    for A in [np.eye(6, dtype=int)] + [rng.integers(-2, 3, size=(6, 6)) for _ in range(4)]:
        if round(np.linalg.det(A)) == 0:
            continue
        om, rho = pullback(A, om0), pullback(A, rho0)
        J, _, jrho, _ = pair_coeffs(om.coeffs, rho.coeffs)
        assert all(isinstance(c, Fraction) for c in jrho)
        assert list(jrho) == list(dense_pullback(J, rho).coeffs)


def test_pair_coeffs_normalization_on_acceptance_2_trials():
    # acceptance 2's 500 GL(6) trials (the same draws, including the 7x7
    # ones): the gradient J*rho keeps nu within 1e-12 of 1
    rng = np.random.default_rng(515)
    pairs = {name: model_pair(name) for name in ("su3", "su12", "sl3r")}
    worst = 0.0
    for trial in range(500):
        om, rho = pairs[("su3", "su12", "sl3r")[trial % 3]]
        A = rng.normal(size=(6, 6))
        if abs(np.linalg.det(A)) < 0.05:
            continue
        nu = pair_coeffs(pullback(A, om).coeffs, pullback(A, rho).coeffs)[3]
        worst = max(worst, abs(nu - 1.0))
        if trial % 5 == 0:
            rng.normal(size=(7, 7))
    assert worst <= 1e-12


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


def test_max_abs_of_an_exact_array_builds_no_fraction(monkeypatch):
    # the scale of the exact checks reads the largest and smallest entry:
    # max|x| as a float, with no Fraction built, and np.abs(x).max() on floats
    x = np.array([Fraction(1, 3), Fraction(-7, 2), Fraction(0), Fraction(5, 4)], dtype=object)
    y = -x[[0, 3]]
    built, new = [], Fraction.__new__
    counting = lambda cls, *a, **k: built.append(a) or new(cls, *a, **k)
    monkeypatch.setattr(Fraction, "__new__", counting)
    assert (stable._max_abs(x), stable._max_abs(y)) == (3.5, 1.25)
    monkeypatch.undo()
    assert built == []
    assert stable._max_abs(np.array([0.5, -2.0, 1.5])) == 2.0


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


def test_iota_canonical_sign():
    # of +-omega, the one whose first nonzero coefficient is positive
    om, _ = model_pair("su3")
    out = iota(0.5 * wedge(-1.0 * om, -1.0 * om))
    assert np.max(np.abs(out.coeffs - om.coeffs)) < 1e-12
    first = next(c for c in out.coeffs if c != 0)
    assert first > 0


def test_iota_roundtrip_random(rng):
    for _ in range(15):
        om = KForm(6, 2, rng.normal(size=15))
        om3 = wedge(wedge(om, om), om)
        if abs(om3.coeffs[0]) < 1e-2:
            continue
        back = iota(0.5 * wedge(om, om))
        err = min(np.max(np.abs(back.coeffs - s * om.coeffs)) for s in (1.0, -1.0))
        assert err < 1e-9 * max(1.0, om.max_abs())


@pytest.mark.parametrize("name", ["su3", "su12", "sl3r"])
def test_iota_is_equivariant_and_refuses_minus_a_half_square(rng, name):
    # iota(A* sigma) = +-A* iota(sigma) for A in GL(6); -omega^2/2 is no
    # half-square of a real 2-form
    om, _ = model_pair(name)
    sigma = 0.5 * wedge(om, om)
    for _ in range(20):
        A = rng.normal(size=(6, 6))
        got, want = iota(pullback(A, sigma)).coeffs, pullback(A, iota(sigma)).coeffs
        err = min(np.max(np.abs(got - s * want)) for s in (1.0, -1.0))
        assert err <= 1e-9 * max(1.0, np.max(np.abs(want)))
    with pytest.raises(UnstableForm):
        iota(-1.0 * sigma)
    # the det floor is scale-free: small and large half-squares round-trip
    for scale in (1e-6, 1e-3, 1e3):
        w = om * scale
        got = iota(0.5 * wedge(w, w)).coeffs
        assert min(np.max(np.abs(got - s * w.coeffs)) for s in (1.0, -1.0)) <= 1e-12 * scale
        with pytest.raises(UnstableForm):
            iota(-0.5 * wedge(w, w))


@pytest.mark.parametrize("eps", [1e-4, 1e-8])
def test_iota_returns_a_2form_with_a_small_skew_pair(eps):
    # the dual bivector of e12 + e34 + eps e56 has det eps^4: no floor on
    # det B refuses it, the half-square residual decides
    om = KForm.basis(6, (0, 1)) + KForm.basis(6, (2, 3)) + eps * KForm.basis(6, (4, 5))
    assert np.max(np.abs(iota(0.5 * wedge(om, om)).coeffs - om.coeffs)) <= 1e-12
    with pytest.raises(UnstableForm):  # a singular dual bivector
        iota(KForm.basis(6, (0, 1, 2, 3)) + 1e-20 * KForm.basis(6, (2, 3, 4, 5)))


def test_iota_rejects_non_square():
    with pytest.raises(UnstableForm):
        iota(KForm.basis(6, (0, 1, 2, 3)))


def test_iota_rejects_a_4form_beyond_float_range():
    # max|sigma|^3 overflows and det B is inf: UnstableForm, no OverflowError
    om, _ = model_pair("su3")
    with pytest.raises(UnstableForm, match="float range"):
        iota(0.5 * wedge(om, om) * 1e206)


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
    exact = KForm.basis(6, (0, 1), exact=True) + KForm.basis(6, (2, 3), exact=True)
    with pytest.raises(DegenerateOmega):
        solve_wedge_omega(exact, KForm.zero(6, 4, exact=True))


def test_closed_form_wedge_solve_is_as_accurate_as_lapack(rng):
    # on random GL(6) conjugates of the model 2-forms the closed form and the
    # LAPACK solve of omega's wedge matrix M agree within 1e-15 cond(M),
    # relative: both are backward stable, and neither is closer than that
    for name in ("su3", "su12", "sl3r"):
        om, _ = model_pair(name)
        for _ in range(50):
            omega = pullback(rng.normal(size=(6, 6)), om).coeffs
            tau = rng.normal(size=15)
            mat = np.stack([wedge(KForm.basis(6, t), KForm(6, 2, omega)).coeffs
                            for t in increasing_tuples(6, 2)], axis=1)
            want = wedge_solve_oracle(omega, tau)
            gap = np.max(np.abs(solve_wedge_coeffs(omega, tau) - want)) / np.max(np.abs(want))
            assert gap <= 1e-15 * np.linalg.cond(mat)


@pytest.mark.parametrize("name", ["su3", "su12", "sl3r"])
def test_solve_wedge_omega_is_exact_on_fractions(rng, name):
    # one formula for floats and Fractions: exact forms give an exact alpha
    # with alpha ^ omega = tau, with no cast to floats
    om, _ = model_pair(name, exact=True)
    A = rng.integers(-3, 4, size=(6, 6))
    while round(np.linalg.det(A)) == 0:
        A = rng.integers(-3, 4, size=(6, 6))
    omega = pullback(A, om)
    tau = KForm(6, 4, np.array([Fraction(int(n), int(d)) for n, d in
                                zip(rng.integers(-9, 10, 15), rng.integers(1, 7, 15))], dtype=object))
    alpha = solve_wedge_omega(omega, tau)
    assert alpha.exact and all(type(c) is Fraction for c in alpha.coeffs)
    assert np.array_equal(wedge(alpha, omega).coeffs, tau.coeffs)
    assert np.array_equal(solve_wedge_omega(om, wedge(om, om)).coeffs, om.coeffs)


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
