from fractions import Fraction
from math import comb

import numpy as np
import pytest

from hitchinflow.errors import DegenerateMetric, DegreeOverflow, DimensionMismatch
from hitchinflow.forms import (
    KForm,
    SymBilinear,
    contract,
    derivation_matrix,
    embed,
    form_pairing,
    hodge,
    hodge_matrices,
    increasing_tuples,
    interior,
    interior_tensor,
    pullback,
    restrict,
    volume_form,
    wedge,
    wedge_tensor,
)
from hitchinflow.linalg import as_exact
from hitchinflow.stable import model_pair

from oracles import dense_hodge, dense_pairing, dense_pullback, wedge_eval


def E(*idx, dim=6, exact=False):
    return KForm.basis(dim, [i - 1 for i in idx], exact=exact)


# ---------------------------------------------------------------- wedge
def test_wedge_basis_case():
    assert wedge(E(1), E(2)).term((0, 1)) == 1.0


def test_wedge_nilpotent():
    assert wedge(E(1), E(1)).is_zero()


def test_wedge_triple_omega_su3():
    om, _ = model_pair("su3", exact=True)
    om3 = wedge(wedge(om, om), om)
    expect = volume_form(6, 6, exact=True)
    assert all(om3.coeffs == expect.coeffs)


def test_wedge_against_evaluation_oracle(rng):
    a = KForm(6, 2, rng.normal(size=15))
    b = KForm(6, 3, rng.normal(size=20))
    w = wedge(a, b)
    for _ in range(8):
        vs = [rng.normal(size=6) for _ in range(5)]
        lhs = float(w(*vs))
        rhs = wedge_eval(a, b, vs)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_wedge_graded_commutativity():
    # exact on basis forms, for all degree combinations in dim 6
    for p in range(0, 4):
        for q in range(0, 4):
            if p + q > 6:
                continue
            for ti in increasing_tuples(6, p)[:4]:
                for tj in increasing_tuples(6, q)[:4]:
                    a, b = KForm.basis(6, ti), KForm.basis(6, tj)
                    lhs = wedge(a, b)
                    rhs = (-1) ** (p * q) * wedge(b, a)
                    assert np.array_equal(lhs.coeffs, rhs.coeffs)


def test_wedge_bilinear_associative(rng):
    a = KForm(6, 1, rng.normal(size=6))
    b = KForm(6, 2, rng.normal(size=15))
    c = KForm(6, 2, rng.normal(size=15))
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12
    two = wedge(a, b + c)
    assert np.max(np.abs(two.coeffs - (wedge(a, b) + wedge(a, c)).coeffs)) < 1e-12


def test_wedge_errors():
    with pytest.raises(DimensionMismatch):
        wedge(KForm.zero(6, 1), KForm.zero(7, 1))
    with pytest.raises(DegreeOverflow):
        wedge(KForm.zero(6, 4), KForm.zero(6, 3))


# ------------------------------------------------------------- interior
def test_interior_basis_case():
    e1 = np.eye(6)[0]
    out = interior(e1, E(1, 2))
    assert out.term((1,)) == 1.0 and out.max_abs() == 1.0


def test_interior_is_evaluation(rng):
    a = KForm(6, 3, rng.normal(size=20))
    v = rng.normal(size=6)
    out = interior(v, a)
    for _ in range(5):
        ws = [rng.normal(size=6) for _ in range(2)]
        assert abs(float(out(*ws)) - float(a(v, *ws))) < 1e-10


def test_interior_antiderivation(rng):
    a = KForm(6, 2, rng.normal(size=15))
    b = KForm(6, 2, rng.normal(size=15))
    v = rng.normal(size=6)
    lhs = interior(v, wedge(a, b))
    rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def test_interior_model_contractions():
    # e7 . phi_G2 = omega, e8 . Phi = phi
    from hitchinflow.g2spin7 import build_Phi, model_phi, model_seven

    om, _ = model_pair("su3", exact=True)
    phi = model_phi("su3", exact=True)
    e7 = np.zeros(7, dtype=object)
    e7[6] = Fraction(1)
    assert all(interior(e7, phi).coeffs == embed(om, 7).coeffs)
    eight = build_Phi(model_seven("su3", exact=True))
    e8 = np.zeros(8, dtype=object)
    e8[7] = Fraction(1)
    assert all(interior(e8, eight.Phi).coeffs == embed(phi, 8).coeffs)


def test_interior_rejects_degree_zero():
    with pytest.raises(DegreeOverflow):
        interior(np.zeros(6), KForm.zero(6, 0))


# -------------------------------------------------------- product tables
@pytest.mark.parametrize("n", [6, 7, 8])
def test_product_tensors_match_wedge_and_interior(n, rng):
    def form(k):  # thirds, so that a float anywhere in the exact path shows
        return KForm(n, k, as_exact(rng.integers(-4, 5, size=len(increasing_tuples(n, k)))) / 3)

    for p in range(1, n):
        for q in range(1, n - p + 1):
            a, b = form(p), form(q)
            W = wedge_tensor(n, p, q)
            assert all(contract(W, a.coeffs, b.coeffs) == wedge(a, b).coeffs)
            assert all(contract(W, b.coeffs) @ a.coeffs == wedge(a, b).coeffs)
            af, bf = a.to_float(), b.to_float()
            assert np.allclose(contract(W, af.coeffs, bf.coeffs), wedge(af, bf).coeffs, 0, 1e-12)
    for k in range(1, n + 1):
        a, v = form(k), as_exact(rng.integers(-4, 5, size=n))
        assert all(v @ contract(interior_tensor(n, k), a.coeffs) == interior(v, a).coeffs)
        assert all(interior_tensor(n, k)[2] @ a.to_float().coeffs == interior(np.eye(n)[2], a).coeffs)


# ------------------------------------------------------------- pullback
def test_pullback_identity_and_homogeneity():
    _, rho = model_pair("su3")
    assert np.array_equal(pullback(np.eye(6), rho).coeffs, rho.coeffs)
    quad = pullback(2.0 * np.eye(6), E(1, 2))
    assert quad.term((0, 1)) == pytest.approx(4.0)


def test_pullback_functorial(rng):
    a = KForm(6, 3, rng.normal(size=20))
    A = rng.normal(size=(6, 6))
    B = rng.normal(size=(6, 6))
    lhs = pullback(A @ B, a)
    rhs = pullback(B, pullback(A, a))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-10


def test_pullback_matches_evaluation(rng):
    from oracles import pullback_eval

    a = KForm(5, 2, rng.normal(size=10))
    A = rng.normal(size=(5, 5))
    out = pullback(A, a)
    for _ in range(5):
        vs = [rng.normal(size=5) for _ in range(2)]
        assert abs(float(out(*vs)) - pullback_eval(A, a, vs)) < 1e-10


def test_pullback_theta_rotation_gives_family():
    from hitchinflow.stable import classify_pair, theta_rotation_matrix

    om, rho = model_pair("su3")
    cls = classify_pair(om, rho)
    jr = pullback(cls.J, rho)
    for theta in (0.37, 2 * np.pi / 3):
        lhs = pullback(theta_rotation_matrix(theta), rho)
        rhs = float(np.cos(theta)) * rho + float(np.sin(theta)) * jr
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


# ---------------------------------------------------------------- hodge
def _metric(diag):
    return SymBilinear(np.diag(np.array(diag, dtype=float)))


def test_hodge_of_constant_is_volume():
    g = _metric([1] * 7)
    vol = volume_form(7, 1.0)
    one = KForm(7, 0, np.array([1.0]))
    assert np.array_equal(hodge(g, vol, one).coeffs, vol.coeffs)


def test_hodge_model_4form():
    from hitchinflow.stable import classify_pair

    om, rho = model_pair("su3", exact=True)
    cls = classify_pair(om, rho)
    jr = pullback(cls.J, rho)
    phi = wedge(embed(om, 7), KForm.basis(7, [6], exact=True)) + embed(rho, 7)
    g = SymBilinear(np.eye(7, dtype=object) + Fraction(0))
    star = hodge(g, volume_form(7, 1, exact=True), phi)
    expect = wedge(KForm.basis(7, [6], exact=True), embed(jr, 7)) + embed(
        wedge(om, om), 7
    ) * Fraction(1, 2)
    assert all(star.coeffs == expect.coeffs)


@pytest.mark.parametrize("diag", [[1] * 7, [1, -1, 1, -1, 1, -1, -1]])
def test_hodge_defining_pairing_identity(diag):
    # b ^ star(a) = <b, a> vol for all pairs of basis forms; the matrix
    # forms of the pairing and the star agree with form_pairing and hodge
    g = _metric(diag)
    vol = volume_form(7, 1.0)
    for k in (1, 2, 3):
        tups = increasing_tuples(7, k)
        gram = np.array(
            [[float(form_pairing(g, KForm.basis(7, t), KForm.basis(7, u))) for u in tups] for t in tups]
        )
        gram_m, star_m = hodge_matrices(g, vol, k)
        assert np.allclose(gram_m, gram, rtol=0, atol=1e-12)
        for i, t in enumerate(tups):
            a = KForm.basis(7, t)
            star = hodge(g, vol, a)
            assert np.allclose(star_m[:, i], star.coeffs, rtol=0, atol=1e-12)
            for j, u in enumerate(tups):
                b = KForm.basis(7, u)
                lhs = wedge(b, star)
                want = gram[j, i]
                assert abs(float(lhs.coeffs[0]) - want) < 1e-12


@pytest.mark.parametrize("diag,sdet", [([1] * 7, 1), ([1, -1, 1, -1, 1, -1, -1], 1)])
def test_hodge_squared_sign(diag, sdet):
    # star(star(a)) = (-1)^{k(n-k)} sign(det g) a, exhaustively on basis forms
    g = _metric(diag)
    vol = volume_form(7, 1.0)
    n = 7
    for k in range(0, n + 1):
        sign = (-1) ** (k * (n - k)) * sdet
        for t in increasing_tuples(n, k):
            a = KForm.basis(n, t)
            twice = hodge(g, vol, hodge(g, vol, a))
            assert np.max(np.abs(twice.coeffs - sign * a.coeffs)) < 1e-12


def test_hodge_rejects_degenerate_metric():
    g = SymBilinear(np.diag([1.0, 1, 1, 1, 1, 1, 0]))
    with pytest.raises(DegenerateMetric):
        hodge(g, volume_form(7, 1.0), KForm.basis(7, (0, 1, 2)))


def _exact_forms(rng, n, k):
    """A dense Fraction k-form with thirds and sevenths, a sparse one
    (about a quarter of it), and the zero form."""
    size = comb(n, k)
    nums, dens = rng.integers(-9, 10, size), rng.choice([1, 3, 7], size)
    dense = np.array([Fraction(int(p), int(q)) for p, q in zip(nums, dens)], dtype=object)
    sparse = dense.copy()
    sparse[rng.random(size) < 0.75] = Fraction(0)
    return [KForm(n, k, dense), KForm(n, k, sparse), KForm.zero(n, k, exact=True)]


@pytest.mark.parametrize("n", [6, 7, 8])
def test_exact_products_equal_dense_oracle(n, rng):
    # exact pairing, star and pullback skip zero coefficients; the values
    # must be the same Fractions as the dense products with the full Gram
    upper = as_exact(np.triu(rng.integers(-3, 4, size=(n, n)), 1)) / 3 + as_exact(np.eye(n))
    signs = as_exact(np.diag([1, -1] * (n // 2) + [1] * (n % 2))) * Fraction(2, 3)
    g = SymBilinear(upper.T @ signs @ upper)
    mat = as_exact(rng.integers(-4, 5, size=(n, n))) / 7
    vol = volume_form(n, Fraction(3, 2), exact=True)
    for k in (2, 3, 4):
        forms = _exact_forms(rng, n, k)
        for a in forms:
            pairs = ((hodge(g, vol, a), dense_hodge(g, vol, a)), (pullback(mat, a), dense_pullback(mat, a)))
            for got, want in pairs:
                assert np.all(got.coeffs == want.coeffs)
                assert all(type(c) is Fraction for c in got.coeffs)
            for b in forms:
                got = form_pairing(g, a, b)
                assert got == dense_pairing(g, a, b) and type(got) is Fraction


@pytest.mark.parametrize("n", [6, 7, 8])
def test_float_products_are_the_dense_expressions(n, rng):
    # floats keep the dense products bit for bit: the degenerate-flow
    # CSVs depend on the last bits of the pairing and the star
    A = rng.normal(size=(n, n))
    g = SymBilinear(A @ np.diag([1.0, -1.0] * (n // 2) + [1.0] * (n % 2)) @ A.T)
    vol = volume_form(n, 1.3)
    for k in (2, 3, 4):
        a, b = (KForm(n, k, rng.normal(size=comb(n, k))) for _ in range(2))
        assert form_pairing(g, a, b) == dense_pairing(g, a, b)
        assert np.array_equal(hodge(g, vol, a).coeffs, dense_hodge(g, vol, a).coeffs)
        assert np.array_equal(pullback(A, a).coeffs, dense_pullback(A, a).coeffs)


# ---------------------------------------------------- types and helpers
def test_symbilinear_checks_symmetry():
    with pytest.raises(ValueError):
        SymBilinear(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symbilinear_signature():
    assert _metric([1, -1, 1, -1, 1, -1, -1]).signature() == (3, 4)
    assert _metric([1] * 6).signature() == (6, 0)


def test_kform_coefficient_count_invariant():
    with pytest.raises(ValueError):
        KForm(6, 2, np.zeros(14))


def test_antisymmetry_of_term_lookup():
    a = E(1, 2)
    assert a.term((1, 0)) == -1.0


def test_embed_restrict_roundtrip(rng):
    a = KForm(6, 2, rng.normal(size=15))
    up = embed(a, 8, [0, 1, 2, 3, 4, 5])
    back = restrict(up, [0, 1, 2, 3, 4, 5])
    assert np.array_equal(back.coeffs, a.coeffs)


def test_volume_form_nonzero_required():
    v = volume_form(6, 0.0)
    assert v.is_zero()
    with pytest.raises(DegenerateMetric):
        hodge(_metric([1] * 6), v, KForm.basis(6, (0,)))


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("exact", [False, True])
def test_derivation_matrix_obeys_the_graded_leibniz_rule(p, exact):
    # D(a ^ b) = D a ^ b + (-1)^(p-1)deg(a) a ^ D b for the derivation with
    # random values on 1-forms, which it reproduces on 1-forms; thirds test
    # the exact lcm scaling
    rng = np.random.default_rng(p)
    n = 5
    images = rng.integers(-4, 5, size=(comb(n, p), n))
    images = as_exact(images) / 3 if exact else images / 3.0
    D = lambda f: KForm(n, f.degree + p - 1, derivation_matrix(images, p, f.degree) @ f.coeffs)
    for da, db in ((1, 1), (1, 2), (2, 2)):
        a, b = (KForm(n, d, rng.integers(-3, 4, size=comb(n, d)) * (Fraction(1) if exact else 1.0))
                for d in (da, db))
        lhs = D(wedge(a, b)).coeffs
        rhs = (wedge(D(a), b) + (-1) ** ((p - 1) * da) * wedge(a, D(b))).coeffs
        if exact:
            assert derivation_matrix(images, p, da).dtype == object and np.all(lhs == rhs)
        else:
            assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert np.all(derivation_matrix(images, p, 1) == images)  # D on 1-forms is the data
    assert derivation_matrix(images, p, 0).shape == (comb(n, p - 1), 1)
    assert not np.any(derivation_matrix(images, p, 0) != 0)


def test_derivation_matrix_refuses_exact_images_beyond_the_float_integers():
    # the shared float64 product is exact only below 2**53
    images = as_exact(np.full((5, 5), 2**52))
    with pytest.raises(ValueError, match="float64 integer range"):
        derivation_matrix(images, 1, 1)
