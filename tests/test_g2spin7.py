import warnings
from fractions import Fraction

import numpy as np
import pytest

from hitchinflow.errors import NonpositiveF, UnstableForm
from hitchinflow.forms import (
    KForm,
    SymBilinear,
    embed,
    form_pairing,
    hodge,
    interior,
    pullback,
    restrict,
    wedge,
)
from hitchinflow.g2spin7 import (
    EightClass,
    SevenClass,
    build_Phi,
    build_phi,
    bundle_Phi,
    metric_vol_from_phi,
    assoc_4form,
    model_phi,
    model_seven,
    seven_structure,
    solve_dstar,
)
from hitchinflow.stable import classify_pair, model_pair

from oracles import as_exact, fd_jacobian, metric_vol_oracle, relative_gap, star_derivative


def _e7(exact=False):
    return KForm.basis(7, [6], exact=exact)


# ------------------------------------------------------------ build_phi
@pytest.mark.parametrize(
    "name,klass", [("su3", SevenClass.G2), ("su12", SevenClass.G2_STAR), ("sl3r", SevenClass.G2_STAR)]
)
def test_build_phi_model_classes(name, klass):
    om, rho = model_pair(name)
    s = build_phi(om, rho, _e7())
    assert s.klass is klass


def test_build_phi_rejects_unstable():
    om, rho = model_pair("su3")
    with pytest.raises(UnstableForm):
        build_phi(0.0 * om, 0.0 * rho, _e7())


# --------------------------------------------------- metric_vol_from_phi
def test_metric_vol_model_tables_exact():
    expect = {
        "su3": (Fraction(1), Fraction(1), (7, 0)),
        "su12": (Fraction(1), Fraction(1), (3, 4)),
        "sl3r": (Fraction(-1), Fraction(-1), (3, 4)),
    }
    for name, (vol_c, g77, sig) in expect.items():
        g7, vol7, klass = metric_vol_from_phi(model_phi(name, exact=True))
        assert klass is not SevenClass.NOT_STABLE
        assert vol7.coeffs[0] == vol_c
        assert g7.matrix[6, 6] == g77
        assert g7.signature() == sig


def test_metric_vol_quarter_identity():
    for name, sign in (("su3", 1), ("su12", 1), ("sl3r", -1)):
        om, rho = model_pair(name, exact=True)
        cls = classify_pair(om, rho)
        jr = pullback(cls.J, rho)
        quarter = wedge(wedge(embed(jr, 7), embed(rho, 7)), _e7(True)) * Fraction(1, 4)
        _, vol7, _ = metric_vol_from_phi(model_phi(name, exact=True))
        assert all(vol7.coeffs == (sign * quarter).coeffs)


@pytest.mark.parametrize("name", ["su3", "su12", "sl3r"])
def test_metric_vol_matches_wedge_oracle(name, rng):
    # GL(7) pullbacks: integer matrices keep det(B)^(1/9) rational
    for _ in range(2):
        A = rng.integers(-2, 3, size=(7, 7)) + 3 * np.eye(7, dtype=int)
        phi = pullback(as_exact(A), model_phi(name, exact=True))
        g7, vol7, _ = metric_vol_from_phi(phi)
        g_want, vol_want = metric_vol_oracle(phi)
        assert np.all(g7.matrix == g_want) and vol7.coeffs[0] == vol_want
    # in floats det(B)^(1/9) amplifies the last bits of B by cond(B), so
    # compare B = g7 vol7 itself
    for _ in range(5):
        phi = pullback(np.eye(7) + 0.4 * rng.normal(size=(7, 7)), model_phi(name))
        g7, vol7, _ = metric_vol_from_phi(phi)
        g_want, vol_want = metric_vol_oracle(phi)
        assert relative_gap(g7.matrix * vol7.coeffs[0], g_want * vol_want) <= 1e-14


@pytest.mark.parametrize("name", ["su3", "su12"])
def test_metric_vol_classifies_well_conditioned_conjugates(name):
    # diagonal conjugates whose g7 = A^T g0 A has k eigenvalues at 1/cond:
    # stable, as g7's signature says, where a floor on det B / max|B|^7 (a
    # product of eigenvalue ratios) refuses conditions of 4.7e3
    g0, _, klass = metric_vol_from_phi(model_phi(name))
    for k in (3, 4, 6):
        for cond in (4.7e3, 1e6):
            A = np.diag([cond**-0.5] * k + [1.0] * (7 - k))
            g7, _, got = metric_vol_from_phi(pullback(A, model_phi(name)))
            assert got is klass
            want = A.T @ g0.matrix @ A
            assert relative_gap(g7.matrix, want) <= 1e-10


def test_metric_vol_unstable_returns_not_stable():
    g7, vol7, klass = metric_vol_from_phi(KForm.basis(7, (0, 1, 2)))
    assert klass is SevenClass.NOT_STABLE and g7 is None and vol7 is None


def test_metric_vol_exact_beyond_float_range_of_roots():
    # det B = a^9 with a = 2^60 + 1: its 9-th root is found in ints, past
    # where a float guess of the root can be rounded back exactly
    a = 2**60 + 1
    mat = as_exact(np.diag([a, 1, 1, 1, 1, 1, 1]))
    g7, vol7, klass = metric_vol_from_phi(pullback(mat, model_phi("su3", exact=True)))
    assert klass is SevenClass.G2
    assert vol7.coeffs[0] == a and type(vol7.coeffs[0]) is Fraction
    assert np.all(g7.matrix == as_exact(np.diag([a * a, 1, 1, 1, 1, 1, 1])))


def test_metric_vol_scales_correctly(rng):
    # under phi -> s^3 phi (a frame rescaling) g7 scales by s^2, vol7 by s^7
    phi = model_phi("su3")
    s = 1.37
    g1, v1, _ = metric_vol_from_phi(phi)
    g2, v2, _ = metric_vol_from_phi(s**3 * phi)
    assert np.max(np.abs(g2.matrix - s**2 * g1.matrix)) < 1e-9
    assert abs(v2.coeffs[0] - s**7 * v1.coeffs[0]) < 1e-9


def test_classification_gl_stable(rng):
    # conjugating the compact model never yields the split class and
    # conversely (smoke-sized here; the acceptance suite runs 500)
    phi_c = model_phi("su3")
    phi_s = model_phi("sl3r")
    for _ in range(50):
        A = rng.normal(size=(7, 7))
        if abs(np.linalg.det(A)) < 0.1:
            continue
        _, _, k1 = metric_vol_from_phi(pullback(A, phi_c))
        _, _, k2 = metric_vol_from_phi(pullback(A, phi_s))
        assert k1 is SevenClass.G2
        assert k2 is SevenClass.G2_STAR


def test_restriction_reproduces_assoc_metric():
    for name, eta_len in (("su3", 1.0), ("su12", 1.0), ("sl3r", -1.0)):
        om, rho = model_pair(name)
        s = build_phi(om, rho, _e7())
        g6 = np.asarray(classify_pair(om, rho).metric.matrix, dtype=float)
        assert np.max(np.abs(np.asarray(s.g7.matrix, float)[:6, :6] - g6)) < 1e-9
        assert np.asarray(s.g7.matrix, float)[6, 6] == pytest.approx(eta_len)


# ------------------------------------------------------------ assoc_4form
def test_assoc_4form_closed_forms():
    for name, sign in (("su3", 1), ("su12", 1), ("sl3r", -1)):
        om, rho = model_pair(name, exact=True)
        cls = classify_pair(om, rho)
        jr = pullback(cls.J, rho)
        s = model_seven(name, exact=True)
        expect = sign * (
            wedge(_e7(True), embed(jr, 7)) + embed(wedge(om, om), 7) * Fraction(1, 2)
        )
        assert all(assoc_4form(s).coeffs == expect.coeffs)


def test_assoc_4form_norm_check():
    # |(e7/|e7|) . *phi|^2_g = 4 on all three models
    for name in ("su3", "su12", "sl3r"):
        s = model_seven(name)
        e7v = np.zeros(7)
        e7v[6] = 1.0  # unit length up to sign in all three cases
        contracted = interior(e7v, s.star_phi)
        val = form_pairing(s.g7, contracted, contracted)
        assert abs(abs(float(val)) - 4.0) < 1e-12


def test_assoc_4form_equals_hodge(rng):
    phi = model_phi("su3")
    A = rng.normal(size=(7, 7))
    phi2 = pullback(A, phi)
    s = seven_structure(phi2)
    assert np.max(np.abs(s.star_phi.coeffs - hodge(s.g7, s.vol7, s.phi).coeffs)) < 1e-8


# -------------------------------------------------------------- build_Phi
def test_build_Phi_models():
    for name, klass in (
        ("su3", EightClass.SPIN7),
        ("su12", EightClass.SPIN034),
        ("sl3r", EightClass.SPIN034),
    ):
        s = model_seven(name, exact=True)
        eight = build_Phi(s)
        assert eight.klass is klass
        # vol8 = (1/14) Phi ^ Phi = e8 ^ vol7 (expanded by the wedge oracle
        # elsewhere; frozen here)
        expect = wedge(KForm.basis(8, [7], exact=True), embed(s.vol7, 8))
        assert all(eight.vol8.coeffs == expect.coeffs)


def test_build_Phi_spin7_vol8_value():
    eight = build_Phi(model_seven("su3", exact=True))
    # the Spin(7) model has vol8 = -e^{1..8} in this frame ordering
    assert eight.vol8.coeffs[0] == Fraction(-1)
    assert sum(c != 0 for c in eight.vol8.coeffs) == 1


def test_build_Phi_self_duality():
    for name in ("su3", "su12", "sl3r"):
        s = model_seven(name, exact=True)
        eight = build_Phi(s)
        g8 = np.zeros((8, 8), dtype=object) + Fraction(0)
        g8[:7, :7] = s.g7.matrix
        g8[7, 7] = Fraction(1)
        sd = hodge(SymBilinear(g8), eight.vol8, eight.Phi)
        assert all(sd.coeffs == eight.Phi.coeffs)


# -------------------------------------------------------------- bundle_Phi
def test_bundle_phi_reproduces_model():
    om, rho = model_pair("su3")
    Phi, g8 = bundle_Phi(1.0, om, rho)
    eight = build_Phi(model_seven("su3"))
    assert np.max(np.abs(Phi.coeffs - np.asarray(eight.Phi.coeffs, float))) < 1e-12
    assert np.max(np.abs(g8.matrix - np.eye(8))) < 1e-12


def test_bundle_phi_fiber_length():
    om, rho = model_pair("su3")
    _, g8 = bundle_Phi(2.0, om, rho)
    assert g8.matrix[6, 6] == pytest.approx(4.0)
    assert g8.matrix[7, 7] == pytest.approx(1.0)


def test_bundle_phi_rho_recovery():
    om, rho = model_pair("su3")
    f = 1.7
    Phi, _ = bundle_Phi(f, om, rho)
    er = np.zeros(8)
    er[7] = 1.0
    rec = interior(er, Phi) - f * wedge(KForm.basis(8, [6]), embed(om, 8))
    assert np.max(np.abs(rec.coeffs - embed(rho, 8).coeffs)) < 1e-12
    # and omega recovery: (1/f) e_phi . (e_r . Phi) = omega
    ephi = np.zeros(8)
    ephi[6] = 1.0
    om_rec = (1.0 / f) * interior(ephi, interior(er, Phi))
    assert np.max(np.abs(om_rec.coeffs - embed(om, 8).coeffs)) < 1e-12


def test_bundle_phi_su12_signature():
    om, rho = model_pair("su12")
    _, g8 = bundle_Phi(1.0, om, rho)
    assert g8.signature() == (4, 4)


def test_bundle_phi_rejects_nonpositive_f():
    om, rho = model_pair("su3")
    with pytest.raises(NonpositiveF):
        bundle_Phi(0.0, om, rho)


def test_bundle_phi_rejects_invalid_pair():
    om, rho = model_pair("su3")
    with pytest.raises(UnstableForm):
        bundle_Phi(1.0, om, 2.0 * rho)


# ------------------------------------------------------------ star derivative
@pytest.mark.parametrize("name", ["su3", "su12", "sl3r"])
def test_star_derivative_matches_finite_differences(name, rng):
    # full 35-dimensional space, GL(7) pullbacks of G2 and both G2* models;
    # the oracle's truncation error at h = 1e-5 is below 1e-6 relative
    def star(x):
        return seven_structure(KForm(7, 3, x)).star_phi.coeffs

    for _ in range(2):
        phi = pullback(np.eye(7) + 0.3 * rng.normal(size=(7, 7)), model_phi(name))
        s = seven_structure(phi)
        closed = star_derivative(s)
        assert relative_gap(closed, fd_jacobian(star, phi.coeffs, 1e-5)) <= 1e-5
        # *phi is homogeneous of degree 4/3 in phi
        assert np.allclose(closed @ phi.coeffs, (4.0 / 3.0) * s.star_phi.coeffs, atol=1e-10)


@pytest.mark.parametrize("name", ["su3", "su12", "sl3r"])
def test_solve_dstar_inverts_the_jacobian(name, rng):
    # the closed-form inverse against the Jacobian matrix of the oracle, on
    # conjugates I + 0.1 N of G2 and both G2* models and random 4-forms
    for _ in range(50):
        s = seven_structure(pullback(np.eye(7) + 0.1 * rng.normal(size=(7, 7)), model_phi(name)))
        beta = KForm(7, 4, rng.normal(size=35))
        xi = solve_dstar(s, beta)
        assert relative_gap(star_derivative(s) @ xi.coeffs, beta.coeffs) <= 1e-13
        # *phi is homogeneous of degree 4/3 in phi
        assert relative_gap(solve_dstar(s, s.star_phi).coeffs, 0.75 * s.phi.coeffs) <= 1e-13


def test_star_derivative_rejects_unstable():
    with pytest.raises(UnstableForm):
        solve_dstar(seven_structure(KForm.zero(7, 3)), KForm.zero(7, 4))


def test_seven_structure_beyond_float_range_is_not_ok():
    # det B ~ max|B|^7 leaves the float range: not stable, with no
    # OverflowError and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not seven_structure(model_phi("su3") * 1e20).ok
