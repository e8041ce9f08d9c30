from fractions import Fraction
from math import comb, factorial, prod

import numpy as np
import pytest

from hitchinflow import linalg
from hitchinflow.errors import DegenerateMetric, DegreeOverflow, DimensionMismatch
from hitchinflow.forms import (
    KForm,
    SymBilinear,
    contract,
    derivation_matrix,
    embed,
    form_pairing,
    hodge,
    increasing_tuples,
    interior,
    interior_tensor,
    pullback,
    restrict,
    volume_form,
    wedge,
    wedge_tensor,
)
from hitchinflow.g2spin7 import SevenClass, metric_vol_from_phi, model_phi
from hitchinflow.stable import model_pair

from oracles import (
    as_exact,
    dense_hodge,
    dense_pairing,
    dense_pullback,
    fraction_contract,
    hodge_matrices,
    interior_table_oracle,
    metric_vol_oracle,
    reindex_oracle,
    scatter_interior,
    scatter_wedge,
    theta_rotation_matrix,
    wedge_eval,
    wedge_table_oracle,
)


def E(*idx, dim=6, exact=False):
    return KForm.basis(dim, [i - 1 for i in idx], exact=exact)


# ---------------------------------------------------------------- wedge
def test_wedge_basis_case():
    assert wedge(E(1), E(2)).term((0, 1)) == 1.0


def test_wedge_nilpotent():
    assert wedge(E(1), E(1)).is_zero()


def test_max_abs_is_nan_in_either_order():
    for coeffs in ([1.0, np.nan], [np.nan, 1.0]):
        assert np.isnan(KForm(2, 1, np.array(coeffs)).max_abs())
        assert not KForm(2, 1, np.array(coeffs)).is_zero()


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


@pytest.mark.parametrize("n,k", [(6, 3), (7, 3), (7, 4), (6, 2), (5, 1)])
def test_stacked_pullback_is_the_per_matrix_one_bit_for_bit(rng, n, k):
    # a stack of matrices gives the stack of coefficient rows, each with the
    # bits of its own matrix's pullback, for any leading axes
    a = KForm(n, k, rng.normal(size=comb(n, k)))
    mats = rng.normal(size=(3, 17, n, n))
    rows = pullback(mats, a)
    assert rows.shape == (3, 17, comb(n, k))
    for idx in np.ndindex(3, 17):
        assert np.array_equal(rows[idx], pullback(mats[idx], a).coeffs)
    assert np.array_equal(pullback(mats[0], a), rows[0])
    exact = KForm(n, k, np.array([Fraction(1)] * comb(n, k), dtype=object))
    with pytest.raises(DimensionMismatch):  # exact stacks are not taken
        pullback(np.full((2, n, n), Fraction(1), dtype=object), exact)
    with pytest.raises(DimensionMismatch):
        pullback(mats[..., :-1], a)


def test_pullback_matches_evaluation(rng):
    from oracles import pullback_eval

    a = KForm(5, 2, rng.normal(size=10))
    A = rng.normal(size=(5, 5))
    out = pullback(A, a)
    for _ in range(5):
        vs = [rng.normal(size=5) for _ in range(2)]
        assert abs(float(out(*vs)) - pullback_eval(A, a, vs)) < 1e-10


def test_pullback_theta_rotation_gives_family():
    from hitchinflow.stable import classify_pair

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
    (about a quarter of it), the zero form, a dense one with the coprime
    denominators 7, 9, 11 and 13, and one with a fifth of its coefficients
    nonzero: 14 of 70 on an 8-dimensional 4-form, as many as Phi has."""
    size = comb(n, k)
    nums, dens = rng.integers(-9, 10, size), rng.choice([1, 3, 7], size)
    dense = np.array([Fraction(int(p), int(q)) for p, q in zip(nums, dens)], dtype=object)
    sparse, fifth = dense.copy(), KForm.zero(n, k, exact=True).coeffs.copy()
    sparse[rng.random(size) < 0.75] = Fraction(0)
    fifth[rng.permutation(size)[: size // 5]] = [
        Fraction(int(p), int(q)) for p, q in zip(rng.choice([-5, -2, 1, 3, 7], size // 5),
                                                 rng.choice([7, 9, 11, 13], size // 5))]
    coprime = _coprime(rng, size)
    return [KForm(n, k, dense), KForm(n, k, sparse), KForm.zero(n, k, exact=True), KForm(n, k, coprime),
            KForm(n, k, fifth)]


def _coprime(rng, *shape):
    """Fractions with numerators in [-9, 9] and denominators 7, 9, 11, 13."""
    return as_exact(rng.integers(-9, 10, shape)) / as_exact(rng.choice([7, 9, 11, 13], shape))


def _all_fractions(values) -> bool:
    return all(type(c) is Fraction for c in np.asarray(values, dtype=object).flat)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_exact_products_equal_dense_oracle(n, rng):
    # exact pairing, star, pullback and the table products run in ints over
    # one denominator; the values must be the same Fractions as the dense
    # products with the full Gram and the Fraction scatter over the tables
    upper = as_exact(np.triu(rng.integers(-3, 4, size=(n, n)), 1)) / 3 + as_exact(np.eye(n))
    signs = as_exact(np.diag([1, -1] * (n // 2) + [1] * (n % 2))) * Fraction(2, 3)
    g = SymBilinear(upper.T @ signs @ upper)
    mats = (as_exact(rng.integers(-4, 5, size=(n, n))) / 7, _coprime(rng, n, n))
    vol = volume_form(n, Fraction(3, 2), exact=True)
    vectors = (_coprime(rng, n), as_exact(np.zeros(n, dtype=int)))
    for k in (2, 3, 4):
        forms = _exact_forms(rng, n, k)
        W, I = wedge_tensor(n, k, k), interior_tensor(n, k).transpose(1, 0, 2)
        for a in forms:
            pairs = [(hodge(g, vol, a), dense_hodge(g, vol, a))]
            pairs += [(pullback(mat, a), dense_pullback(mat, a)) for mat in mats]
            for got, want in pairs:
                assert np.all(got.coeffs == want.coeffs)
                assert _all_fractions(got.coeffs)
            for v in vectors:
                got, want = interior(v, a).coeffs, fraction_contract(I, v, a.coeffs)
                assert np.all(got == want) and _all_fractions(got)
                got = wedge(KForm(n, 1, v), a).coeffs
                assert np.all(got == fraction_contract(wedge_tensor(n, 1, k), v, a.coeffs))
                assert _all_fractions(got)
            for b in forms:
                got = form_pairing(g, a, b)
                assert got == dense_pairing(g, a, b) and type(got) is Fraction
                if 2 * k <= n:
                    for got, want in (
                        (wedge(a, b).coeffs, fraction_contract(W, a.coeffs, b.coeffs)),
                        (contract(W, b.coeffs), fraction_contract(W, b.coeffs)),
                    ):
                        assert np.all(got == want) and _all_fractions(got)
    if n == 7:  # B = C M C^T in ints against the 56-wedge loop
        for name, mat in zip(("su3", "su12", "sl3r"), (mats[1], mats[1], mats[0])):
            phi = pullback(mat, model_phi(name, exact=True))
            g7, vol7, _ = metric_vol_from_phi(phi)
            g_want, vol_want = metric_vol_oracle(phi)
            assert np.all(g7.matrix == g_want) and vol7.coeffs[0] == vol_want
            assert _all_fractions(g7.matrix) and _all_fractions(vol7.coeffs)
        assert metric_vol_from_phi(KForm.zero(7, 3, exact=True))[2] is SevenClass.NOT_STABLE


@pytest.mark.parametrize("n", [6, 7, 8])
def test_float_products_are_the_dense_expressions(n, rng):
    # the float pullback contracts a tensor where the dense products take
    # LAPACK minors, so the pairing, the star and the pullback agree with
    # them to 1e-13 of their size bound k! max|M|^k |a|_1 (|b|_1), M the
    # matrix they pull back by: g^-1 for the first two, whose minors cancel
    # when g is ill-conditioned; wedge and interior keep the bits of the
    # loop-table scatter
    A = rng.normal(size=(n, n))
    g = SymBilinear(A @ np.diag([1.0, -1.0] * (n // 2) + [1.0] * (n % 2)) @ A.T)
    vol = volume_form(n, 1.3)
    for k in (2, 3, 4):
        a, b = (KForm(n, k, rng.normal(size=comb(n, k))) for _ in range(2))
        size = lambda M, *forms: factorial(k) * np.abs(M).max() ** k * prod(
            np.abs(x.coeffs).sum() for x in forms
        )
        ginv = g.inverse()
        assert abs(form_pairing(g, a, b) - dense_pairing(g, a, b)) <= 1e-13 * size(ginv, a, b)
        star = hodge(g, vol, a).coeffs - dense_hodge(g, vol, a).coeffs
        assert np.abs(star).max() <= 1e-13 * 1.3 * size(ginv, a)
        pulled = pullback(A, a).coeffs - dense_pullback(A, a).coeffs
        assert np.abs(pulled).max() <= 1e-13 * size(A, a)
        for v in (rng.normal(size=n), np.eye(n)[k]):
            assert interior(v, a).coeffs.tobytes() == scatter_interior(v, a).tobytes()
        for q in range(n - k + 1):
            c = KForm(n, q, rng.normal(size=comb(n, q)))
            assert wedge(a, c).coeffs.tobytes() == scatter_wedge(a, c).tobytes()
        # as in contract, a float operand makes a float product: the exact
        # operands are cast to float first; an exact metric with float
        # forms, an exact form with a float metric, and both exact with a
        # float form or volume
        eg = SymBilinear(as_exact(np.diag(rng.integers(1, 4, n))) / 3)
        fg = SymBilinear(np.asarray(eg.matrix, dtype=float))
        ea = KForm(n, k, _coprime(rng, comb(n, k)))
        for m, fm, x, fx in ((eg, fg, a, a), (g, g, ea, ea.to_float()), (eg, fg, ea, ea.to_float())):
            got = form_pairing(m, x, b)
            assert type(got) is np.float64 and got == form_pairing(fm, fx, b)
            got = hodge(m, vol, x).coeffs
            assert got.dtype == float and np.array_equal(got, hodge(fm, vol, fx).coeffs)
        # the same rule for pullbacks and scalar products: the exact form by
        # the float matrix, the float form by an exact matrix, and scalars
        eA = as_exact(rng.integers(-3, 4, (n, n))) / 7
        fA = np.asarray(eA, dtype=float)
        for got, want in ((pullback(A, ea), pullback(A, ea.to_float())),
                          (pullback(eA, a), pullback(fA, a)),
                          (ea * 0.3, KForm(n, k, ea.to_float().coeffs * 0.3)),
                          (0.3 * ea, KForm(n, k, ea.to_float().coeffs * 0.3)),
                          (ea / 0.3, KForm(n, k, ea.to_float().coeffs * (1.0 / 0.3))),
                          (a * Fraction(1, 3), KForm(n, k, a.coeffs * (1 / 3))),
                          (a / Fraction(3), KForm(n, k, a.coeffs * (1.0 / 3))),
                          (ea + a, KForm(n, k, ea.to_float().coeffs + a.coeffs)),
                          (ea - a, KForm(n, k, ea.to_float().coeffs - a.coeffs))):
            assert got.coeffs.dtype == float and np.array_equal(got.coeffs, want.coeffs)
        # an int matrix with an exact form stays exact
        iA = rng.integers(-2, 3, (n, n))
        got = pullback(iA, ea).coeffs
        assert all(type(c) is Fraction for c in got) and list(got) == list(dense_pullback(iA, ea).coeffs)
    if n == 6:  # the exact su3 rho with the float Euclidean metric
        g, vol, rho = SymBilinear(np.eye(6)), volume_form(6, 1.0), model_pair("su3", exact=True)[1]
        got = hodge(g, vol, rho).coeffs
        assert got.dtype == float and np.array_equal(got, hodge(g, vol, rho.to_float()).coeffs)
        # a float matrix, scalar or form with the exact rho, an exact one with
        # the float rho; a numpy int scalar keeps the exact rho exact and
        # does not wrap around
        frho, third = rho.to_float(), as_exact(np.eye(6, dtype=int)) * Fraction(3, 10)
        for got, want in ((pullback(0.3 * np.eye(6), rho), pullback(0.3 * np.eye(6), frho)),
                          (pullback(third, frho), pullback(np.eye(6) * 0.3, frho)),
                          (rho * 0.3, KForm(6, 3, frho.coeffs * 0.3)),
                          (frho * Fraction(1, 3), KForm(6, 3, frho.coeffs * (1 / 3))),
                          (rho + frho, KForm(6, 3, frho.coeffs + frho.coeffs)),
                          (rho - frho, KForm(6, 3, frho.coeffs - frho.coeffs)),
                          (rho * np.int64(3) * 2**62, KForm(6, 3, rho.coeffs * (3 * 2**62)))):
            assert got.exact == want.exact and list(got.coeffs) == list(want.coeffs)


def test_bitmask_tables_are_the_sort_sign_loops():
    for n in range(1, 9):
        for p in range(n + 1):
            for q in range(n + 1):
                i, j, o, sign = wedge_table_oracle(n, p, q)
                want = np.zeros((comb(n, p + q), comb(n, p), comb(n, q)))
                want[o, i, j] = sign
                assert np.array_equal(wedge_tensor(n, p, q), want), (n, p, q)
        for k in range(1, n + 1):
            i, c, o, sign = interior_table_oracle(n, k)
            want = np.zeros((n, comb(n, k - 1), comb(n, k)))
            want[c, o, i] = sign
            assert np.array_equal(interior_tensor(n, k), want), (n, k)


# ---------------------------------------------------- types and helpers
def test_symbilinear_checks_symmetry():
    with pytest.raises(ValueError):
        SymBilinear(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # a nan passes a tolerance comparison and inf - inf warns: both refused
    for m in (np.diag([np.inf, 1.0]), np.array([[1.0, np.nan], [np.nan, 1.0]])):
        with pytest.raises(ValueError, match="non-finite"):
            SymBilinear(m)


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


def test_restrict_in_any_axis_order_is_the_pullback(rng):
    # new axis j is old axis axes[j]: the pullback by the matrix that
    # sends e_j to e_{axes[j]}, signs included; embed under a permuted map
    # is the pullback by the permutation matrix; floats and Fractions alike
    quarters = rng.integers(-5, 6, size=20) / 4.0
    axes, perm = [4, 0, 5, 2], [3, 5, 0, 4, 1, 2]
    inclusion = np.eye(6)[:, axes]
    for a in (KForm(6, 3, rng.normal(size=20)), KForm(6, 3, as_exact(quarters))):
        want = [float(a(*(inclusion @ np.eye(4)[list(t)].T).T)) for t in increasing_tuples(4, 3)]
        got = restrict(a, axes)
        assert got.exact == a.exact
        assert np.allclose(got.to_float().coeffs, want, rtol=0, atol=1e-12)
        back = embed(got, 6, axes)
        assert np.array_equal(back.coeffs, embed(restrict(a, sorted(axes)), 6, sorted(axes)).coeffs)
        moved = embed(a, 6, perm)
        assert moved.exact == a.exact
        assert np.array_equal(moved.coeffs, pullback(np.eye(6)[perm], a).coeffs)
        assert np.array_equal(restrict(moved, perm).coeffs, a.coeffs)


def test_embed_and_restrict_are_the_per_coefficient_loop(rng):
    # the signed index map against the sort_sign loop, bit for bit: floats
    # with zeros, -0.0, nan and inf (0.0 + sign * c keeps the loop's +0.0
    # where it skipped a zero), and Fractions with zeros; embeddings under
    # permuted and non-injective maps, restrictions in any axis order
    c = rng.normal(size=20)
    c[[1, 5, 9]], c[[2, 7, 11]], c[3], c[4] = 0.0, -0.0, np.nan, -np.inf
    q = as_exact(rng.integers(-3, 4, size=20)) / 7
    for a in (KForm(6, 3, c), KForm(6, 3, q), KForm(6, 3, -c), KForm.zero(6, 3, exact=True)):
        cases = [(embed(a, dim, m), dim, dict(enumerate(range(6) if m is None else m)))
                 for dim, m in ((6, None), (8, None), (6, [3, 5, 0, 4, 1, 2]), (8, [7, 1, 2, 0, 6, 4]),
                                (7, [0, 0, 1, 2, 3, 4]))]
        cases += [(restrict(a, axes), len(axes), {old: new for new, old in enumerate(axes)})
                  for axes in ([4, 0, 5, 2], [0, 1, 2, 3, 4, 5], [5, 3, 1], [2, 3, 4])]
        for got, dim, new_axis in cases:
            want = reindex_oracle(a, dim, new_axis)
            assert got.exact == want.exact == a.exact
            if a.exact:
                assert list(got.coeffs) == list(want.coeffs) and _all_fractions(got.coeffs)
            else:
                assert got.coeffs.tobytes() == want.coeffs.tobytes()


def test_exact_form_on_float_vectors_is_a_float():
    # a float vector makes a float value, as for products: not the Fraction
    # of the float's binary value; exact vectors (ints too) keep it exact
    rho = model_pair("su3", exact=True)[1]
    e = np.eye(6)
    got = rho(0.1 * e[0], e[2], e[4])  # a LAPACK determinant: 0.1 to rounding
    assert isinstance(got, float) and abs(got - 0.1) <= 1e-16
    tenth = as_exact(e[0]) * Fraction(1, 10)
    got = rho(tenth, as_exact(e[2]), e[4].astype(int))
    assert type(got) is Fraction and got == Fraction(1, 10)
    got = rho.to_float()(tenth, as_exact(e[2]), as_exact(e[4]))
    assert isinstance(got, float) and abs(got - 0.1) <= 1e-16


@pytest.mark.parametrize("exact", [False, True])
def test_metric_inverse_is_computed_once_and_read_only(exact, monkeypatch):
    m = as_exact(np.diag([2, -3, 5, 1])) / 7 + as_exact(np.eye(4, k=1) + np.eye(4, k=-1))
    g = SymBilinear(m if exact else np.asarray(m, dtype=float))
    want = linalg.inverse(g.matrix)
    calls, inverse = [], linalg.inverse
    monkeypatch.setattr(linalg, "inverse", lambda a: calls.append(a) or inverse(a))
    first = g.inverse()
    assert g.inverse() is first and len(calls) == 1
    assert not first.flags.writeable and np.array_equal(first, want)
    with pytest.raises(ValueError):
        first[0, 0] = 1


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
