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
took their checks from one 7-dimensional structure and stored *phi.
``dense_pairing``, ``dense_hodge`` and ``dense_pullback`` are the dense
products with the full compound matrix that ``form_pairing``, ``hodge``
and ``pullback`` computed before their exact branches skipped zero
coefficients; the float branches still compute exactly these expressions.
``classify_pair_oracle`` is ``classify_pair`` as it was before the six-
dimensional structure rule became one coefficient-space core: KForm
wedges for omega^3, omega ^ rho and J*rho ^ rho, the metric from omega
evaluated on basis vectors, and an if/elif chain for the tags.
``ce_d_oracle`` and ``h_action_oracle`` are the sign loops over index
tuples that built the CE differential and the isotropy action before both
became ``forms.derivation_matrix`` of their values on 1-forms;
``lie_matrix_oracle`` is Cartan's formula on top of ``ce_d_oracle``.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from hitchinflow import linalg
from hitchinflow.errors import UnstableForm
from hitchinflow.flow import cocal_residual
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
from hitchinflow.g2spin7 import BundleSplitData, bundle_Phi, seven_structure
from hitchinflow.linalg import increasing_tuples
from hitchinflow.stable import (
    SixStructureClass,
    StructureClass,
    assoc_J,
    lambda_invariant,
    pair_structure,
)


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


def dense_pairing(g, a, b):
    """<a, b>_g = a @ minors(g^-1, k) @ b over every coefficient."""
    return a.coeffs @ linalg.minors(g.inverse(), a.degree) @ b.coeffs


def dense_hodge(g, vol, a):
    """Hodge star through the full Gram matrix: <e^J, a> for every J,
    read through the top-degree pairing."""
    paired = linalg.minors(g.inverse(), a.degree) @ a.coeffs
    top = wedge_tensor(a.dim, a.degree, a.dim - a.degree)[0]
    return KForm(a.dim, a.dim - a.degree, contract(top.T, paired) * vol.coeffs[0])


def dense_pullback(mat, a):
    """Pullback as a @ minors(A, k) over every coefficient."""
    if a.exact:
        mat = linalg.as_exact(mat)
    return KForm(a.dim, a.degree, a.coeffs @ linalg.minors(mat, a.degree))


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


def relative_gap(a, b) -> float:
    """max |a - b| / max |b| (sup norms)."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b)))


def degenerate_split_oracle(problem, y, branch):
    """(omega7, omega6, rho6, f, J) of a packed degenerate state (w, S =
    f J*rho) from the normalization J*r ^ r = (2/3) omega^3, r = -J*S,
    evaluated with KForms."""
    w, S = problem.unpack(y)
    _, wmat, _ = problem.w_basis()
    _, smat, _ = problem.s_basis()
    om7 = KForm(problem.mdim, 2, wmat @ w)
    om6 = problem.to_dist(om7)
    S6 = problem.to_dist(KForm(problem.mdim, 3, smat @ S))
    J = pair_structure(om6, S6)[0]
    rho_hat = -1.0 * pullback(J, S6)
    num = wedge(pullback(J, rho_hat), rho_hat).coeffs[0]
    den = wedge(wedge(om6, om6), om6).coeffs[0] * (2.0 / 3.0)
    f = branch * math.sqrt(num / den)
    return om7, om6, rho_hat * (1.0 / f), f, J


def degenerate_rhs_oracle(problem, y, branch):
    """Packed velocity (wdot, Sdot) of the two degenerate flow equations,
    evaluated with KForms; the 2-form velocity solves wdot ^ omega = tau
    through the matrix of alpha -> alpha ^ omega built from wedges."""
    om7, om6, rho6, f, _ = degenerate_split_oracle(problem, y, branch)
    rho7 = problem.from_dist(rho6)
    tau7 = problem.pi(problem.space.d(rho7) + f * wedge(om7, problem.de_phi()))
    wedge_map = np.stack(
        [wedge(KForm.basis(6, t), om6).coeffs for t in increasing_tuples(6, 2)], axis=1
    )
    wdot6 = KForm(6, 2, np.linalg.solve(wedge_map, problem.to_dist(tau7).coeffs))
    lrho = KForm(problem.mdim, 3, problem.lie_ephi_matrix(3) @ rho7.coeffs)
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
    lam = lambda_invariant(rho).value
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
    """Monitors of a degenerate state on the KForm path: the oracle class
    of (omega6, rho6), |s|_g^2 - 4 in its metric, and the signature of the
    g8 that bundle_Phi assembles (None when it fails)."""
    om6, s6, rho6 = state.omega_form(), state.s_form(), state.rho_form()
    cls = classify_pair_oracle(om6, rho6)
    norm_resid = abs(float(form_pairing(cls.metric, s6, s6)) - 4.0) if cls.ok else np.inf
    sig8 = None
    if cls.ok and abs(state.f) > 0:
        try:
            _, g8 = bundle_Phi(BundleSplitData.from_distribution(abs(state.f), om6, rho6))
            sig8 = g8.signature()
        except (ValueError, UnstableForm):
            sig8 = None
    return {
        "cocal_residual": cocal_residual(state),
        "normalization_residual": norm_resid,
        "class": cls.tag.value,
        "g8_signature": sig8,
    }


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
                    D[o, tuple_position(nm, srt)] += sgn_ab * cab * s
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
                L[row, tuple_position(nm, srt)] += -a * s
    return L


def lie_matrix_oracle(sp, mpos: int, k: int, d) -> np.ndarray:
    """Cartan's formula iota d + d iota on k-forms, with d[j] the float
    matrix of the CE differential on j-forms from ``ce_d_oracle``."""
    iota = lambda j: interior_tensor(sp.mdim, j)[mpos]
    term1 = iota(k + 1) @ d[k] if k < sp.mdim else 0.0
    term2 = d[k - 1] @ iota(k) if k > 0 else 0.0
    return term1 + term2
