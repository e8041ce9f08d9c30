import numpy as np
import pytest

from hitchinflow.errors import NotClosed
from hitchinflow.forms import KForm, embed, wedge
from hitchinflow.homogeneous import (
    InvariantForm,
    ReductiveSplit,
    ce_differential,
    check_reductive,
    invariant_basis,
    lie_derivative,
    pi_project,
    space,
    structure_constants,
    su3_basis,
)

from oracles import ce_d_oracle, h_action_oracle, lie_matrix_oracle


def _commutator_oracle(mats, i, j):
    """Independent bracket in the defining representation."""
    return mats[i] @ mats[j] - mats[j] @ mats[i]


def test_su3_constants_match_defining_representation():
    mats = su3_basis()
    p = structure_constants(mats)
    c = np.asarray(p.c, dtype=float)
    for i in range(8):
        for j in range(8):
            rebuilt = sum(c[k, i, j] * mats[k] for k in range(8))
            direct = _commutator_oracle(mats, i, j)
            assert np.max(np.abs(rebuilt - direct)) < 1e-12


def test_su3_frozen_bracket_values():
    c = space("n11").algebra.c
    # [e1,e2] = 4 e7; [e3,e4] = 2 e7 + e8; [e5,e6] = -2 e7 + e8; [e7,e8] = 0
    assert c[6, 0, 1] == 4 and all(c[k, 0, 1] == 0 for k in range(8) if k != 6)
    assert c[6, 2, 3] == 2 and c[7, 2, 3] == 1
    assert c[6, 4, 5] == -2 and c[7, 4, 5] == 1
    assert all(c[k, 6, 7] == 0 for k in range(8))
    assert c[1, 6, 0] == 1  # [e7, e1] = e2
    assert c[3, 7, 2] == 3  # [e8, e3] = 3 e4


def test_jacobi_residual_su3():
    assert space("n11").algebra.jacobi_residual() < 1e-12


def test_structure_constants_not_closed():
    rng = np.random.default_rng(1)
    with pytest.raises(NotClosed):
        structure_constants([rng.normal(size=(3, 3)), rng.normal(size=(3, 3))])


def test_reductive_splits():
    n11 = space("n11")
    assert check_reductive(n11.algebra, n11.split)
    flag = space("flag")
    assert check_reductive(flag.algebra, flag.split)
    # h = span(e1, e2) is not reductive: [e1, e7] = -e2 lands in h
    bad = ReductiveSplit(h=(0, 1), m=(2, 3, 4, 5, 6, 7))
    assert not check_reductive(space("n11").algebra, bad)


def test_invariant_basis_degree2_contents():
    sp = space("n11")
    basis = invariant_basis(sp, 2)
    assert len(basis) == 7
    mat = np.stack([b.form.coeffs for b in basis], axis=1)
    # e12, e34, e56 all lie in the span
    for idx in ((0, 1), (2, 3), (4, 5)):
        target = KForm.basis(7, idx).coeffs
        resid = target - mat @ np.linalg.lstsq(mat, target, rcond=None)[0]
        assert np.max(np.abs(resid)) < 1e-12


def test_invariant_basis_degree0_and_3():
    sp = space("n11")
    b0 = invariant_basis(sp, 0)
    assert len(b0) == 1 and b0[0].form.coeffs[0] == 1.0
    b3 = invariant_basis(sp, 3)
    assert len(b3) == 13
    mat = np.stack([b.form.coeffs for b in b3], axis=1)
    e = lambda *idx: KForm.from_terms(7, len(idx), {tuple(i - 1 for i in idx): 1})
    x0 = -e(1, 3, 5) - e(1, 4, 6) - e(2, 3, 6) + e(2, 4, 5)
    y0 = -e(1, 3, 6) + e(1, 4, 5) + e(2, 3, 5) + e(2, 4, 6)
    for target in (x0.coeffs, y0.coeffs):
        resid = target - mat @ np.linalg.lstsq(mat, target, rcond=None)[0]
        assert np.max(np.abs(resid)) < 1e-12


def test_invariant_forms_pass_invariance_check():
    sp = space("n11")
    for k in (1, 2, 3, 4):
        for b in invariant_basis(sp, k):
            InvariantForm(b.form, sp)  # raises if not invariant


def test_invariant_family_is_four_parametric():
    # forms with L_{e7} omega = 0, omega in the invariant 2-forms on the
    # distribution: span{e12, e34, e56} (3 params); 3-forms with
    # L_{e7} rho proportional to the rotation image: the (X0, Y0) plane
    # (amplitude + angle = 2 params, cut to 1 by the normalization against
    # omega) -- total 4 = (a, b, c, theta).
    sp = space("n11")
    b2 = invariant_basis(sp, 2)
    horiz = [b.form for b in b2 if all(6 not in t or c == 0 for t, c in zip(b.form.tuples(), b.form.coeffs))]
    L2 = sp.lie_matrix(6, 2)
    kept = [f for f in horiz if np.max(np.abs(L2 @ f.coeffs)) < 1e-12]
    assert len(kept) == 3
    b3 = invariant_basis(sp, 3)
    horiz3 = np.stack(
        [b.form.coeffs for b in b3 if all(6 not in t or c == 0 for t, c in zip(b.form.tuples(), b.form.coeffs))],
        axis=1,
    )
    assert horiz3.shape[1] == 8
    # eigenspace of L_{e7}^2 with eigenvalue -4 (rotation speed 2): X0,Y0 plane
    L3 = sp.lie_matrix(6, 3)
    M = np.linalg.pinv(horiz3) @ (L3 @ (L3 @ horiz3))
    eigs = np.linalg.eigvals(M)
    assert np.sum(np.abs(eigs + 4.0) < 1e-9) == 2


def test_ce_differential_abelian_and_dsquare():
    ab = space("abelian7")
    one = invariant_basis(ab, 1)
    for b in one:
        assert ab.d(b.form).max_abs() == 0.0
    sp = space("n11")
    rng = np.random.default_rng(7)
    for k in (1, 2, 3):
        basis = invariant_basis(sp, k)
        f = KForm(7, k, np.stack([b.form.coeffs for b in basis], axis=1) @ rng.normal(size=len(basis)))
        assert sp.d(sp.d(f)).max_abs() < 1e-12 * max(f.max_abs(), 1.0)


def test_ce_differential_wrapper():
    sp = space("n11")
    alpha = invariant_basis(sp, 2)[0]
    d_alpha = ce_differential(alpha)
    assert d_alpha.form.degree == 3


def test_domega_wedge_omega_vanishes_randomly():
    sp = space("n11")
    rng = np.random.default_rng(11)
    e = lambda *idx: KForm.from_terms(7, len(idx), {tuple(i - 1 for i in idx): 1})
    for _ in range(100):
        a2, b2, c2 = rng.uniform(0.2, 2.0, size=3)
        om = a2 * e(1, 2) + b2 * e(3, 4) - c2 * e(5, 6)
        assert wedge(sp.d(om), om).max_abs() < 1e-12


def test_lie_derivative_family_values():
    sp = space("n11")
    e = lambda *idx: KForm.from_terms(7, len(idx), {tuple(i - 1 for i in idx): 1})
    om0 = e(1, 2) + e(3, 4) - e(5, 6)
    x0 = -e(1, 3, 5) - e(1, 4, 6) - e(2, 3, 6) + e(2, 4, 5)
    y0 = -e(1, 3, 6) + e(1, 4, 5) + e(2, 3, 5) + e(2, 4, 6)
    assert lie_derivative(6, InvariantForm(om0, sp)).form.max_abs() == 0.0
    lrho = lie_derivative(6, InvariantForm(x0, sp)).form
    assert np.max(np.abs(lrho.coeffs - (-2.0) * y0.coeffs)) == 0.0


def test_lie_derivative_commutes_with_d():
    sp = space("n11")
    rng = np.random.default_rng(3)
    basis = invariant_basis(sp, 2)
    f = KForm(7, 2, np.stack([b.form.coeffs for b in basis], axis=1) @ rng.normal(size=len(basis)))
    alpha = InvariantForm(f, sp)
    lhs = ce_differential(lie_derivative(6, alpha)).form
    rhs = lie_derivative(6, ce_differential(alpha)).form
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def test_pi_projection_properties():
    sp = space("n11")
    e7f = KForm.basis(7, [6])
    beta = KForm.basis(7, (0, 1))
    # pi(e^phi ^ beta) = 0 when beta annihilates e_phi
    assert pi_project(wedge(e7f, beta), 6).max_abs() == 0.0
    # pi(beta) = beta when e_phi . beta = 0
    assert np.array_equal(pi_project(beta, 6).coeffs, beta.coeffs)
    # pi of the split ansatz recovers rho
    e = lambda *idx: KForm.from_terms(7, len(idx), {tuple(i - 1 for i in idx): 1})
    om0 = e(1, 2) + e(3, 4) - e(5, 6)
    x0 = -e(1, 3, 5) - e(1, 4, 6) - e(2, 3, 6) + e(2, 4, 5)
    ansatz = 1.3 * wedge(om0, e7f) + x0
    assert np.max(np.abs(pi_project(ansatz, 6).coeffs - x0.coeffs)) < 1e-12
    # idempotent on a generic invariant form
    rng = np.random.default_rng(5)
    basis = invariant_basis(sp, 3)
    f = KForm(7, 3, np.stack([b.form.coeffs for b in basis], axis=1) @ rng.normal(size=len(basis)))
    once = pi_project(f, 6)
    twice = pi_project(once, 6)
    assert np.max(np.abs(once.coeffs - twice.coeffs)) < 1e-14


def test_flag_space_invariant_two_forms():
    flag = space("flag")
    basis = invariant_basis(flag, 2)
    assert len(basis) == 3  # e12, e34, e56 only


def test_flat7_lie_value():
    fl = space("flat7")
    from hitchinflow.stable import model_pair

    _, rho = model_pair("su3")
    jr = KForm.from_terms(
        6, 3, {(0, 2, 5): -1, (0, 3, 4): -1, (1, 2, 4): -1, (1, 3, 5): 1}
    )
    lrho = lie_derivative(6, InvariantForm(embed(rho, 7), fl)).form
    assert np.max(np.abs(lrho.coeffs - embed(jr, 7).coeffs)) == 0.0


def _same_matrix(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and bool(np.all(got == want))


@pytest.mark.parametrize("name", ["n11", "flag", "abelian7", "flat7"])
def test_derivation_matrices_match_the_sign_loops(name):
    # d and the h-action from forms.derivation_matrix against the loops over
    # index tuples they replaced: equal entries and dtypes, floats and
    # Fractions, every degree; lie_matrix, which is float only, against
    # Cartan's formula on the loop-built d
    sp = space(name)
    for exact in (False, True):
        d = [ce_d_oracle(sp, k, exact) for k in range(sp.mdim + 1)]
        for k in range(sp.mdim + 1):
            assert _same_matrix(sp.d_matrix(k, exact), d[k]), (k, exact)
            for h in range(len(sp.split.h)):
                assert _same_matrix(sp.h_action_matrix(h, k, exact), h_action_oracle(sp, h, k, exact))
    d = [ce_d_oracle(sp, k) for k in range(sp.mdim + 1)]
    for k in range(sp.mdim + 1):
        for mpos in range(sp.mdim):
            assert _same_matrix(sp.lie_matrix(mpos, k), lie_matrix_oracle(sp, mpos, k, d)), (k, mpos)
