"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's coefficient-convolution code
paths: forms are treated as multilinear maps and products are expanded
over shuffles, so a bug in the dense tables cannot hide in the tests
that use them.  The finite-difference Jacobians are the exception: they
differentiate the library's own map phi -> *phi, which keeps them
independent of the closed-form derivative they are compared with.
``bareiss_det`` is the elimination the exact determinant used before
``linalg.minors`` took its place.  ``degenerate_split_oracle`` and
``degenerate_rhs_oracle`` are the KForm path of the degenerate flow that
the coefficient-space kernel replaced: they rebuild every form, restrict
and embed them, and pull back by J three times.  ``metric_vol_oracle`` is
the 56-wedge loop that built the 7-dimensional bilinear form B before
the product tables replaced it.  ``degenerate_monitors_oracle`` and
``torsion_residual_oracle`` are the KForm monitors and the torsion
residual that recomputed ``seven_structure`` per sample, before samples
took their checks from one 7-dimensional structure and stored *phi, and
before one stacked pass built a run's samples;
``star_phi_oracle`` is that stored *phi as two 7-dimensional wedges,
before the frame's tables built it;
now that a sample reads its class and metric from its split's
classification and builds *phi from the split, they are the routes
through ``classify_pair_oracle``, ``bundle_Phi`` and phi's own metric
that check it.
``dense_pairing``, ``dense_hodge`` and ``dense_pullback`` are the dense
products with the full compound matrix that ``form_pairing``, ``hodge``
and ``pullback`` computed before their exact branches skipped zero
coefficients and their float branches became tensor contractions.  For
floats they take ``lapack_minors``, the compound matrix of batched LAPACK
determinants that ``linalg.minors`` computed before.
``classify_pair_oracle`` is ``classify_pair`` as it was before the six-
dimensional structure rule became one coefficient-space core: KForm
wedges for omega^3, omega ^ rho and J*rho ^ rho, the metric from omega
evaluated on basis vectors, and an if/elif chain for the tags.
``ce_d_oracle`` and ``h_action_oracle`` are the sign loops over index
tuples that built the CE differential and the isotropy action before both
became ``forms.derivation_matrix`` of their values on 1-forms;
``lie_matrix_oracle`` is Cartan's formula on top of ``ce_d_oracle``.
``wedge_table_oracle`` and ``interior_table_oracle`` are the sort_sign
loops that built the product tables before bitmask parities did, and
``scatter_wedge`` and ``scatter_interior`` the ``np.add.at`` scatters
through them that ``wedge`` and ``interior`` ran before they became
``contract`` wrappers.  ``gauss_jordan_inverse`` is the elimination the
exact inverse used before the adjugate from ``linalg.minors``, and
``split_rhs_oracle`` is the split right-hand side (df/dt, dw/dt, ds/dt)
that ``flow`` exported before the packed kernel left it unused; like the
KForm rhs oracle it builds its own linear maps (``lie_e_phi`` and the
forms), not the tables that ``flow`` builds once per frame.
``wedge_solve_oracle`` is the 15 x 15 LAPACK solve of the wedge matrix
of omega that the degenerate flow ran before ``stable.solve_wedge_coeffs``
became a closed form; both rhs oracles solve with it.
``theta_rotation_matrix`` is the basis change that realizes the theta
deformation of the complex orbit, which ``stable`` exported although
only the tests used it.  ``fraction_contract`` is the exact branch of
``forms.contract`` before exact products ran in Python ints: a scatter
of Fraction products over the nonzero table entries.
``hodge_matrices``, ``star_derivative`` and ``jacobian_generic_rhs`` are
the generic-flow velocity as a Jacobian solve, before the closed-form
inverse ``g2spin7.solve_dstar`` replaced it: the 35 x 35 matrix
of D(*) from the Gram and Hodge-star matrices on 3-forms, restricted to
the invariant bases and solved against the coordinates of d phi.
``congruence_signature`` and ``fraction_nullspace`` are the exact
signature and nullspace as they ran in Fraction arithmetic, before both
followed ``linalg``'s int rule: a symmetric congruence with a pivot-pair
search on a zero diagonal, and Gauss-Jordan elimination on Fractions.
``ending_spread`` reruns a pinned ending from seeds whose s differs in
its last bits, to state how far rounding moves it.
``calabi_time`` is the exact time along the family's closed-form member,
by scipy quadrature.  ``_advance_rk45`` is the adaptive integrator as it
ran before samples were read from the Dormand-Prince continuous
extension: it clipped every step to the next sample time, and
``grid_clipped_rk45`` drives it over a sample grid as ``integrate`` did.
``as_exact`` builds exact test data, the Fraction array of an array-like
of ints, Fractions or floats; the package stopped needing it once
``linalg.scale_to_int`` read ints and Fractions as they are.  ``reindex_oracle`` is the
per-coefficient sort_sign loop that ``forms.embed`` and ``forms.restrict``
ran before a signed index map moved the coefficients.
"""

import itertools
import math
from dataclasses import replace
from fractions import Fraction
from math import comb, prod

import numpy as np

from hitchinflow import flow, linalg, ode
from hitchinflow.errors import NonpositiveF, UnstableForm
from hitchinflow.forms import (
    KForm,
    SymBilinear,
    contract,
    form_pairing,
    interior,
    interior_tensor,
    pullback,
    sort_sign,
    tuple_position,
    wedge,
    wedge_tensor,
)
from hitchinflow.g2spin7 import bundle_Phi, seven_structure
from hitchinflow.linalg import increasing_tuples
from hitchinflow.stable import (
    SixStructureClass,
    StructureClass,
    assoc_J,
    lambda_invariant,
    pair_structure,
)


def as_exact(a) -> np.ndarray:
    """Convert an array-like of ints/Fractions to an exact object array."""
    arr = np.array(a, dtype=object)
    flat = arr.reshape(-1)
    for i, x in enumerate(flat):
        flat[i] = x if type(x) is Fraction else Fraction(x)
    return flat.reshape(arr.shape)


def reindex_oracle(a, dim: int, new_axis: dict) -> KForm:
    """The form on R^dim with each e^I of a moved to e^{new_axis[I]}, one
    coefficient at a time; terms with an axis not in new_axis drop."""
    coeffs = KForm.zero(dim, a.degree, exact=a.exact).coeffs.copy()
    for c, t in zip(a.coeffs, a.tuples()):
        if c != 0 and all(i in new_axis for i in t):
            sign, srt = sort_sign(new_axis[i] for i in t)
            coeffs[tuple_position(dim, srt)] += sign * c
    return KForm(dim, a.degree, coeffs)


def _position(n: int, t: tuple) -> int:
    """Position of an increasing tuple in the lexicographic list."""
    return increasing_tuples(n, len(t)).index(t)


def perm_sign(perm) -> int:
    perm = list(perm)
    inv = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return (-1) ** inv


def bareiss_det(a) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = np.array([[Fraction(x) for x in row] for row in a], dtype=object)
    n = m.shape[0]
    sign = Fraction(1)
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k, k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r, k] != 0), None)
            if piv is None:
                return Fraction(0)
            m[[k, piv]] = m[[piv, k]]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i, j] = (m[i, j] * m[k, k] - m[i, k] * m[k, j]) / prev
        prev = m[k, k]
    return sign * m[n - 1, n - 1]


def lapack_minors(m, k: int) -> np.ndarray:
    """k-th compound matrix of a float m: the LAPACK determinants of its
    k x k submatrices over increasing k-tuples, gathered in one batch."""
    if k == 0:
        return np.full((1, 1), 1.0)
    idx = np.array(increasing_tuples(m.shape[0], k))
    flat = idx[:, None, :, None] * m.shape[0] + idx[None, :, None, :]
    with np.errstate(divide="ignore"):  # numpy's det takes log 0 on a singular block
        return np.linalg.det(np.take(m, flat))


def compound(m, k: int) -> np.ndarray:
    """``linalg.minors`` of an exact m, ``lapack_minors`` of a float one."""
    return linalg.minors(m, k) if m.dtype == object else lapack_minors(m, k)


def dense_pairing(g, a, b):
    """<a, b>_g = a @ minors(g^-1, k) @ b over every coefficient."""
    return a.coeffs @ compound(g.inverse(), a.degree) @ b.coeffs


def dense_hodge(g, vol, a):
    """Hodge star through the full Gram matrix: <e^J, a> for every J,
    read through the top-degree pairing."""
    paired = compound(g.inverse(), a.degree) @ a.coeffs
    top = wedge_tensor(a.dim, a.degree, a.dim - a.degree)[0]
    return KForm(a.dim, a.dim - a.degree, contract(top.T, paired) * vol.coeffs[0])


def dense_pullback(mat, a):
    """Pullback as a @ minors(A, k) over every coefficient."""
    mat = as_exact(mat) if a.exact else np.asarray(mat, dtype=float)
    return KForm(a.dim, a.degree, a.coeffs @ compound(mat, a.degree))


def wedge_eval(a, b, vectors) -> float:
    """(a ^ b)(v_1..v_{p+q}) via the shuffle expansion of the
    determinant convention."""
    p, q = a.degree, b.degree
    total = 0.0
    for perm in itertools.permutations(range(p + q)):
        if list(perm[:p]) != sorted(perm[:p]) or list(perm[p:]) != sorted(perm[p:]):
            continue
        total += (
            perm_sign(perm)
            * float(a(*[vectors[i] for i in perm[:p]]))
            * float(b(*[vectors[i] for i in perm[p:]]))
        )
    return total


def interior_eval(v, a, vectors) -> float:
    """(v . a)(w_1..w_{k-1}) = a(v, w_1, ..)."""
    return float(a(v, *vectors))


def pullback_eval(mat, a, vectors) -> float:
    """(A* a)(v_1..v_k) = a(A v_1, .., A v_k)."""
    return float(a(*[np.asarray(mat, dtype=float) @ np.asarray(v, dtype=float) for v in vectors]))


def basis_vectors(dim: int):
    return [np.eye(dim)[i] for i in range(dim)]


def fd_jacobian(fn, x, h: float) -> np.ndarray:
    """Central-difference Jacobian of a vector map, column by column."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(len(x)):
        step = np.zeros(len(x))
        step[j] = h
        cols.append((np.asarray(fn(x + step)) - np.asarray(fn(x - step))) / (2 * h))
    return np.stack(cols, axis=1)


def fd_star_jacobian(problem, x, h: float) -> np.ndarray:
    """Central-difference Jacobian of the invariant star-coefficient map
    x -> pinv4 @ coeffs(*phi(x)) of a generic-flow problem: 2 n calls to
    seven_structure, independent of the closed-form derivative."""
    _, _, pinv4 = problem.basis(4)

    def star(y):
        s = seven_structure(problem.phi(y))
        assert s.ok, "finite-difference step left the stable orbit"
        return pinv4 @ s.star_phi.coeffs

    return fd_jacobian(star, x, h)


def fd_generic_rhs(state, h: float) -> np.ndarray:
    """Generic-flow velocity solving J xdot = coeffs(d phi) with the
    finite-difference star-Jacobian in place of the closed form."""
    problem = state.problem
    _, _, pinv4 = problem.basis(4)
    jac = fd_star_jacobian(problem, state.x, h)
    return np.linalg.solve(jac, pinv4 @ problem.space.d(state.phi_form()).coeffs)


def hodge_matrices(g, vol, k: int):
    """Gram matrix of <,>_g on k-forms and the matrix of the Hodge star
    on k-forms: ``star @ a.coeffs`` equals ``hodge(g, vol, a).coeffs`` up
    to rounding.  Float metrics only."""
    gram = lapack_minors(g.inverse(), k)
    top = wedge_tensor(g.dim, k, g.dim - k)[0]
    return gram, top.T @ gram * vol.coeffs[0]


def star_derivative(s) -> np.ndarray:
    """35x35 matrix of D(*) = *(-1 + (7/3) pi_1 + 2 pi_7) at the structure
    s, with pi_1 and pi_7 the g-orthogonal projections onto R phi and onto
    {X . *phi}, built from the Gram on 3-forms."""
    if not s.ok:
        raise UnstableForm("structure is not stable")
    gram, star = hodge_matrices(s.g7, s.vol7, 3)
    p = s.phi.coeffs
    a7 = contract(interior_tensor(7, 4).transpose(1, 0, 2), s.star_phi.coeffs)  # e_c . *phi
    gp, ga = gram @ p, gram @ a7
    proj1 = np.outer(p, gp) / (p @ gp)
    proj7 = a7 @ np.linalg.solve(a7.T @ ga, ga.T)
    return star @ ((7.0 / 3.0) * proj1 + 2.0 * proj7 - np.eye(len(p)))


def jacobian_generic_rhs(state) -> np.ndarray:
    """Generic-flow velocity solving J xdot = coeffs(d phi), with J the
    matrix ``star_derivative`` restricted to the invariant bases."""
    problem = state.problem
    _, mat3, _ = problem.basis(3)
    _, _, pinv4 = problem.basis(4)
    phi = state.phi_form()
    jac = pinv4 @ star_derivative(seven_structure(phi)) @ mat3
    return np.linalg.solve(jac, pinv4 @ problem.space.d(phi).coeffs)


def relative_gap(a, b) -> float:
    """max |a - b| / max |b| (sup norms)."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b)))


def degenerate_split_oracle(problem, y, branch):
    """(omega7, omega6, rho6, f, J) of a packed degenerate state (w, S =
    f J*rho) from the normalization J*r ^ r = (2/3) omega^3, r = -J*S,
    evaluated with KForms."""
    _, wmat, _ = problem.w_basis()
    _, smat, _ = problem.s_basis()
    w, S = y[:wmat.shape[1]], y[wmat.shape[1]:]
    om7 = KForm(problem.mdim, 2, wmat @ w)
    om6 = problem.to_dist(om7)
    S6 = problem.to_dist(KForm(problem.mdim, 3, smat @ S))
    J = pair_structure(om6, S6)[0]
    rho_hat = -1.0 * pullback(J, S6)
    num = wedge(pullback(J, rho_hat), rho_hat).coeffs[0]
    den = wedge(wedge(om6, om6), om6).coeffs[0] * (2.0 / 3.0)
    f = branch * math.sqrt(num / den)
    return om7, om6, rho_hat * (1.0 / f), f, J


def lie_e_phi(problem, degree):
    """The matrix of L_{e_phi} on the forms of a degree on m."""
    return problem.e_phi_scale * problem.space.lie_matrix(problem.e_phi_index, degree)


def wedge_solve_oracle(omega6, tau6):
    """alpha with alpha ^ omega6 = tau6 for float coefficient vectors on R^6:
    the LAPACK solve of the matrix of alpha -> alpha ^ omega6, built column
    by column from wedges, which the closed form in ``stable`` replaced."""
    om = KForm(6, 2, np.asarray(omega6, dtype=float))
    wedge_map = np.stack(
        [wedge(KForm.basis(6, t), om).coeffs for t in increasing_tuples(6, 2)], axis=1
    )
    return np.linalg.solve(wedge_map, np.asarray(tau6, dtype=float))


def degenerate_rhs_oracle(problem, y, branch):
    """Packed velocity (wdot, Sdot) of the two degenerate flow equations,
    evaluated with KForms; the 2-form velocity solves wdot ^ omega = tau
    by ``wedge_solve_oracle``."""
    om7, om6, rho6, f, _ = degenerate_split_oracle(problem, y, branch)
    rho7 = problem.from_dist(rho6)
    tau7 = problem.pi(problem.space.d(rho7) + f * wedge(om7, problem.de_phi()))
    wdot6 = KForm(6, 2, wedge_solve_oracle(om6.coeffs, problem.to_dist(tau7).coeffs))
    lrho = KForm(problem.mdim, 3, lie_e_phi(problem, 3) @ rho7.coeffs)
    Sdot7 = lrho - f * problem.pi(problem.space.d(om7))
    _, _, wpinv = problem.w_basis()
    _, _, spinv = problem.s_basis()
    return problem.pack(wpinv @ problem.from_dist(wdot6).coeffs, spinv @ Sdot7.coeffs)


def metric_vol_oracle(phi):
    """(g7 matrix, vol7 coefficient) of a stable 3-form on R^7 from
    B(e_i, e_j) = (1/6) (e_i . phi) ^ (e_j . phi) ^ phi, one pair of
    wedges per entry, and g7 = B det(B)^(-1/9), vol7 = det(B)^(1/9)."""
    one = Fraction(1) if phi.exact else 1.0
    contractions = []
    for i in range(7):
        v = np.zeros(7, dtype=object if phi.exact else float)
        v[i] = one
        contractions.append(interior(v, phi))
    B = np.zeros((7, 7), dtype=object if phi.exact else float)
    for i in range(7):
        for j in range(i, 7):
            top = wedge(wedge(contractions[i], contractions[j]), phi)
            B[i, j] = B[j, i] = top.coeffs[0] / (6 * one)
    s9 = linalg.nth_root_signed(linalg.det(B), 9)
    return B / s9, s9


def classify_pair_oracle(omega, rho) -> SixStructureClass:
    """Structure class of a (2-form, 3-form) pair on R^6: omega^3 != 0,
    rho stable, omega ^ rho = 0, J flipped unless J*rho ^ rho is a positive
    multiple of omega^3, the normalization J*rho ^ rho = (2/3) omega^3, and
    the tag from the signature of g(v, w) = omega(v, sign J w) and the sign
    of lambda; failures carry their reason."""
    fail = lambda why, **kw: SixStructureClass(
        StructureClass.NOT_A_STRUCTURE, diagnostics=why, **kw
    )
    om3 = wedge(wedge(omega, omega), omega).coeffs[0]
    if abs(om3) <= 1e-12 * max(omega.max_abs(), 1e-30) ** 3:
        return fail("omega is degenerate (omega^3 = 0)")
    lam = lambda_invariant(rho)
    try:
        J = assoc_J(rho)
    except UnstableForm:
        return fail("rho is not stable (lambda = 0)", lambda_value=lam)
    scale = max(omega.max_abs(), 1e-30) * max(rho.max_abs(), 1e-30)
    if wedge(omega, rho).max_abs() > 1e-10 * scale:
        return fail("omega ^ rho != 0", lambda_value=lam)
    jrho = pullback(J, rho)
    num = wedge(jrho, rho).coeffs[0]
    if num * om3 < 0:
        J, jrho, num = -J, -1 * jrho, -num
    if abs(num - om3 * Fraction(2, 3)) > 1e-10 * max(abs(num), abs(om3), 1e-30):
        return fail("normalization J*rho ^ rho != (2/3) omega^3", lambda_value=lam)
    one = Fraction(1) if omega.exact else 1.0
    basis = [np.array([one if i == j else 0 * one for j in range(6)]) for i in range(6)]
    Omega = np.array([[omega(u, v) for v in basis] for u in basis])
    G = Omega @ (J * (-1 if lam < 0 else 1))
    g = SymBilinear((G + G.T) / 2)
    try:
        sig = g.signature()
    except ValueError:
        return fail("associated metric is degenerate", lambda_value=lam)
    if lam < 0 and sig == (6, 0):
        tag = StructureClass.SU3
    elif lam < 0 and sig == (2, 4):
        tag = StructureClass.SU12
    elif lam > 0 and sig == (3, 3):
        tag = StructureClass.SL3R
    else:
        return fail(f"unexpected signature {sig}", lambda_value=lam, signature=sig)
    return SixStructureClass(tag, lambda_value=lam, signature=sig, metric=g, J=J, jrho=jrho)


def degenerate_monitors_oracle(state) -> dict:
    """Monitors of a degenerate state on the KForm path: |d(*phi)| of the
    wedge-built *phi, the oracle class of (omega6, rho6), |s|_g^2 - 4 in
    its metric, and the signature of the g8 that bundle_Phi assembles (None
    when it fails)."""
    om6, s6, rho6 = state.omega_form(), state.s_form(), state.rho_form()
    cls = classify_pair_oracle(om6, rho6)
    norm_resid = abs(float(form_pairing(cls.metric, s6, s6)) - 4.0) if cls.ok else np.inf
    sig8 = None
    if cls.ok and abs(state.f) > 0:
        try:
            _, g8 = bundle_Phi(abs(state.f), om6, rho6)
            sig8 = g8.signature()
        except (ValueError, UnstableForm):
            sig8 = None
    return {
        "cocal_residual": state.problem.space.d(star_phi_oracle(state)).max_abs(),
        "normalization_residual": norm_resid,
        "class": cls.tag.value,
        "g8_signature": sig8,
    }


def star_phi_oracle(state) -> KForm:
    """*phi = omega7^2/2 + f e^phi ^ s7 of a degenerate state, by wedges."""
    om7, s7 = state.omega_form(on_distribution=False), state.s_form(on_distribution=False)
    return 0.5 * wedge(om7, om7) + state.f * wedge(state.problem.e_phi_form(), s7)


def torsion_residual_oracle(traj) -> np.ndarray:
    """|d/dt(*phi) - d phi| + |d(*phi)| per sample with *phi recomputed by
    seven_structure from each sample's state, one sample at a time."""
    ts = traj.times()
    phis = [traj.state_at(i).phi_form() for i in range(len(traj.samples))]
    stars = []
    for phi in phis:
        s = seven_structure(phi)
        if not s.ok:
            raise UnstableForm("phi is not a stable 3-form")
        stars.append(s.star_phi)
    sp = traj.problem.space
    derivs = np.gradient(np.stack([s.coeffs for s in stars]), ts, axis=0, edge_order=2)
    return np.array([
        float(np.max(np.abs(deriv - sp.d(phi).coeffs))) + float(sp.d(star).max_abs())
        for deriv, phi, star in zip(derivs, phis, stars)
    ])


def _structure_constants(sp, exact):
    return sp.algebra.c if (exact and sp.algebra.exact) else sp.algebra.c.astype(float)


def ce_d_oracle(sp, k: int, exact: bool = False) -> np.ndarray:
    """Matrix of the CE differential on k-forms on m: for each output
    tuple, each pair of its slots and each m-index l, the bracket term
    moved into sorted position by sort_sign."""
    nm, m = sp.mdim, sp.split.m
    bm = _structure_constants(sp, exact)[np.ix_(m, m, m)]
    tin, tout = increasing_tuples(nm, k), increasing_tuples(nm, k + 1)
    D = np.zeros((len(tout), len(tin)), dtype=object if exact else float)
    if exact:
        D = D + Fraction(0)
    for o, T in enumerate(tout):
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                rest = tuple(T[p] for p in range(k + 1) if p not in (a, b))
                sgn_ab = (-1) ** (a + b)
                for l in range(nm):
                    cab = bm[l, T[a], T[b]]
                    if cab == 0 or l in rest:
                        continue
                    s, srt = sort_sign((l,) + rest)
                    D[o, _position(nm, srt)] += sgn_ab * cab * s
    return D


def h_action_oracle(sp, hpos: int, k: int, exact: bool = False) -> np.ndarray:
    """Matrix of alpha -> -sum_positions alpha(..., ad(h) Y_pos, ...) on
    k-forms on m, slot by slot."""
    nm, m = sp.mdim, sp.split.m
    ad = _structure_constants(sp, exact)[np.ix_(m, [sp.split.h[hpos]], m)][:, 0, :]
    tups = increasing_tuples(nm, k)
    L = np.zeros((len(tups), len(tups)), dtype=object if exact else float)
    if exact:
        L = L + Fraction(0)
    for row, T in enumerate(tups):
        for pos in range(k):
            for l in range(nm):
                a = ad[l, T[pos]]
                if a == 0:
                    continue
                s, srt = sort_sign(T[:pos] + (l,) + T[pos + 1 :])
                if s == 0:
                    continue
                L[row, _position(nm, srt)] += -a * s
    return L


def lie_matrix_oracle(sp, mpos: int, k: int, d) -> np.ndarray:
    """Cartan's formula iota d + d iota on k-forms, with d[j] the float
    matrix of the CE differential on j-forms from ``ce_d_oracle``."""
    iota = lambda j: interior_tensor(sp.mdim, j)[mpos]
    term1 = iota(k + 1) @ d[k] if k < sp.mdim else 0.0
    term2 = d[k - 1] @ iota(k) if k > 0 else 0.0
    return term1 + term2


def wedge_table_oracle(n: int, p: int, q: int) -> np.ndarray:
    """Rows (i, j, o, sign) with e^{I_i} ^ e^{J_j} = sign e^{K_o} on R^n,
    one sort_sign per pair of increasing tuples, in the order of (i, j)."""
    rows = []
    for i, a in enumerate(increasing_tuples(n, p)):
        for j, b in enumerate(increasing_tuples(n, q)):
            sign, merged = sort_sign(a + b)
            if sign:
                rows.append((i, j, _position(n, merged), sign))
    return np.array(rows, dtype=int).reshape(-1, 4).T


def interior_table_oracle(n: int, k: int) -> np.ndarray:
    """Rows (i, c, o, sign) with e_c . e^{I_i} = sign e^{I_o} on R^n, in
    the order of i and of the slot of c in I_i."""
    rows = [
        (i, c, _position(n, t[:slot] + t[slot + 1 :]), (-1) ** slot)
        for i, t in enumerate(increasing_tuples(n, k))
        for slot, c in enumerate(t)
    ]
    return np.array(rows, dtype=int).reshape(-1, 4).T


def scatter_wedge(a, b) -> np.ndarray:
    """Float coefficients of a ^ b, scattered through the loop table."""
    i, j, o, sign = wedge_table_oracle(a.dim, a.degree, b.degree)
    coeffs = np.zeros(comb(a.dim, a.degree + b.degree))
    np.add.at(coeffs, o, sign * a.coeffs[i] * b.coeffs[j])
    return coeffs


def scatter_interior(v, a) -> np.ndarray:
    """Float coefficients of v . a, scattered through the loop table."""
    i, c, o, sign = interior_table_oracle(a.dim, a.degree)
    coeffs = np.zeros(comb(a.dim, a.degree - 1))
    np.add.at(coeffs, o, sign * a.coeffs[i] * v[c])
    return coeffs


def gauss_jordan_inverse(a) -> np.ndarray:
    """Exact inverse of a Fraction matrix by Gauss-Jordan elimination."""
    n = a.shape[0]
    m = np.concatenate([a.astype(object), np.eye(n, dtype=object) + Fraction(0)], axis=1)
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r, i] != 0), None)
        if piv is None:
            raise np.linalg.LinAlgError("singular exact matrix")
        if piv != i:
            m[[i, piv]] = m[[piv, i]]
        m[i] = m[i] / m[i, i]
        for r in range(n):
            if r != i and m[r, i] != 0:
                m[r] = m[r] - m[r, i] * m[i]
    return m[:, n:]


def split_rhs_oracle(state):
    """Split right-hand side (df/dt, dw/dt, ds/dt) at a degenerate state:
    the 2-form velocity solves wdot ^ omega = pi(d rho) + f omega ^ de^phi,
    fdot is the g-orthogonal coefficient of RHS2 = L_{e_phi} rho -
    f pi(d omega) along s, and sdot = (RHS2 - fdot s)/f.  At f = 0 the
    right-hand side is purely along s and sdot = 0."""
    problem = state.problem
    if state.f < 0:
        raise NonpositiveF("state has negative fiber length")
    om6, s6 = state.omega_form(), state.s_form()
    _, g6, _, js6 = pair_structure(om6, s6)
    om7, rho7 = state.omega_form(False), problem.from_dist(-1.0 * js6)
    tau7 = problem.pi(problem.space.d(rho7) + state.f * wedge(om7, problem.de_phi()))
    wdot6 = KForm(6, 2, wedge_solve_oracle(om6.coeffs, problem.to_dist(tau7).coeffs))
    lrho = KForm(problem.mdim, 3, lie_e_phi(problem, 3) @ rho7.coeffs)
    rhs2_6 = problem.to_dist(lrho - state.f * problem.pi(problem.space.d(om7)))
    fdot = float(form_pairing(g6, rhs2_6, s6) / form_pairing(g6, s6, s6))
    residual = rhs2_6 - fdot * s6
    if state.f == 0:
        if residual.max_abs() > 1e-8 * max(rhs2_6.max_abs(), 1.0):
            raise UnstableForm("right-hand side is not parallel to s at f = 0")
        return fdot, wdot6, KForm.zero(6, 3)
    return fdot, wdot6, residual * (1.0 / state.f)


def ending_spread(problem, config, ks):
    """How far rounding moves the end of a run: for each k, the run of
    config from the problem's startup seed (c = 1, config.startup_epsilon)
    with s scaled by 1 + k 2^-52, as (stop time, stop reason, rejections by
    cause).  The stop time is the one the stop cause names, or the last
    sample's when the run completed."""
    seed = flow.startup_seed(problem, 1.0, config.startup_epsilon)
    out = []
    for k in ks:
        traj = flow.integrate(config, replace(seed, s=seed.s * (1 + k * 2.0**-52)))
        cause = traj.stop_cause
        t_stop = float(cause.rsplit("= ", 1)[1]) if cause else float(traj.samples[-1].t)
        out.append((t_stop, traj.stop_reason, traj.stats["rejections"]))
    return out


def theta_rotation_matrix(theta: float) -> np.ndarray:
    """Block matrix realizing the theta deformation of the complex orbit
    as a basis change (rotation by theta/3 in each of the three planes)."""
    w = theta / 3.0
    m = np.zeros((6, 6))
    b = np.array([[np.cos(w), -np.sin(w)], [np.sin(w), np.cos(w)]])
    for i in range(3):
        m[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = b
    return m


def fraction_contract(table, *vectors):
    """``forms.contract`` of Fraction vectors, one Fraction product per
    nonzero table entry, scattered with ``np.add.at``."""
    lead = table.shape[: table.ndim - len(vectors)]
    flat = table.reshape((prod(lead),) + table.shape[len(lead) :])
    nz = np.nonzero(flat)
    vals = flat[nz].astype(int).astype(object)
    for v, idx in zip(vectors, nz[1:]):
        vals = vals * v[idx]
    out = np.full(len(flat), Fraction(0), dtype=object)
    np.add.at(out, nz[0], vals)
    return out.reshape(lead)[()]


def congruence_signature(g) -> tuple[int, int]:
    """Signature of a symmetric Fraction matrix by symmetric congruence:
    pivot on a nonzero diagonal entry, or, on a zero diagonal, add a row
    and column with a nonzero off-diagonal entry to another.  ValueError
    when the form is degenerate."""
    n = g.shape[0]
    m = g.astype(object).copy()
    p = q = 0
    idx = list(range(n))
    for _ in range(n):
        k = next((i for i in idx if m[i, i] != 0), None)
        if k is None:
            pair = next(((i, j) for i in idx for j in idx if i < j and m[i, j] != 0), None)
            if pair is None:
                raise ValueError("degenerate exact bilinear form")
            i, j = pair
            m[i] = m[i] + m[j]
            m[:, i] = m[:, i] + m[:, j]
            k = i
        d = m[k, k]
        if d > 0:
            p += 1
        else:
            q += 1
        idx.remove(k)
        for i in idx:
            c = m[i, k] / d
            if c != 0:
                m[i] = m[i] - c * m[k]
                m[:, i] = m[:, i] - c * m[:, k]
    return p, q


def fraction_nullspace(a) -> list[np.ndarray]:
    """Nullspace basis of a Fraction matrix by Gauss-Jordan elimination in
    Fractions, one vector per free column with a 1 there, read off the
    reduced echelon form."""
    m = as_exact(a).copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i, c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = m[r] / m[r, c]
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = m[i] - m[i, c] * m[r]
        pivots.append(c)
        r += 1
    basis = []
    for c in (c for c in range(cols) if c not in pivots):
        v = np.zeros(cols, dtype=object) + Fraction(0)
        v[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i, c]
        basis.append(v)
    return basis


def calabi_time(u: float) -> float:
    """The time at which the Calabi member of the n11 family, (a, b, c,
    theta) = (sqrt 2, 1, 1, 0), reaches omega = u omega0: with du/dt = 4 f
    and the first integral 8 f^2 u^3 = u^4 - 1, t(u) = int_1^u dv / (4 f(v)).
    The substitution v = 1 + x^2 makes the integrand regular at v = 1 and
    leaves no cancelling u^4 - 1: t(u) = int_0^sqrt(u - 1) dx / (2 sqrt R(x))
    with R(x) = (2 + x^2) ((1 + x^2)^2 + 1) / (8 (1 + x^2)^3)."""
    from scipy.integrate import quad

    def integrand(x):
        v = 1.0 + x * x
        return 0.5 / math.sqrt((1.0 + v) * (v * v + 1.0) / (8.0 * v**3))

    return quad(integrand, 0.0, math.sqrt(u - 1.0), epsabs=1e-13, epsrel=1e-12)[0]


def _dp_step(f, t, y, h, k1):
    """``ode.dp_step`` with its last stage in place of all seven."""
    y5, err, stages = ode.dp_step(f, t, y, h, k1)
    return y5, err, stages[-1]


def _advance_rk45(f, t0, y0, t1, tol, h, k1, validity, stats):
    """Adaptive steps from t0 to t1, starting from step h (None for the
    default) and the first stage k1 = f(t0, y0) (None when not yet
    evaluated); returns the state at t1, the step to try next and the
    state's first stage.  A step starts from the last stage of the step
    before it, or from the first stage of a rejected attempt."""
    t, y = t0, y0
    direction = 1.0 if t1 >= t0 else -1.0
    h = 1e-2 if h is None else h  # the loop clamps it to the interval, in its direction
    retries = 0
    while (t1 - t) * direction > 1e-15:
        h = direction * min(abs(h), abs(t1 - t))
        if t + h == t:
            raise ode.Stop("step_failure", f"step {h:.3g} no longer advances t = {t:.9g}")
        try:
            if k1 is None:
                k1 = f(t, y)
            ynew, err, klast = _dp_step(f, t, y, h, k1)
            scale = tol + tol * np.maximum(np.abs(y), np.abs(ynew))
            enorm = float(np.sqrt(np.mean((err / scale) ** 2)))
            bounded = np.all(np.isfinite(ynew)) and enorm <= 1.0
            cause = validity(ynew) if bounded else "error_norm"
        except ode.NUMERICAL_FAILURES as exc:
            cause, enorm = type(exc).__name__, np.inf
        if cause is None:
            stats.accept(h)
            t, y, k1 = t + h, ynew, klast
            retries = 0
            grow = 0.9 * enorm ** (-0.2) if enorm > 0 else 5.0
            h = h * min(5.0, max(0.2, grow))
        else:
            stats.reject(cause)
            retries += 1
            if retries > ode.MAX_RETRIES:
                raise ode.Stop("step_failure", f"no acceptable step at t = {t:.6g}")
            h = h / 2
    return y, h, k1


def grid_clipped_rk45(rhs, validity, y0, times, tol):
    """The states at the sample times from ``_advance_rk45``, one call per
    sample interval, each carrying the step and the last stage of the one
    before it, as ``integrate`` advanced rk45 before the continuous
    extension; stats count the steps and rhs evaluations like ``integrate``'s."""
    stats, h, k1, states = ode.Stats(), None, None, [y0]
    counted = stats.counted(rhs)
    for t_prev, t_next in zip(times[:-1], times[1:]):
        y, h, k1 = _advance_rk45(counted, t_prev, states[-1], t_next, tol, h, k1, validity, stats)
        states.append(y)
    return states, stats
