"""Exact-rational identity suite for the model structures.

Every check runs in Fraction arithmetic, so a pass means the identity
holds exactly, not merely to rounding.  The suite covers the six- and
seven-dimensional model values (associated complex structures, metrics,
signatures, normalizations), the associated volumes and dual 4-forms,
and the eight-dimensional structure form with its self-duality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import g2spin7, stable
from .forms import KForm, SymBilinear, embed, form_pairing, hodge, interior, wedge

__all__ = ["IdentityCheck", "verify_identities", "format_report"]

_F = Fraction


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    detail: str = ""


def _exact_eq(a: KForm, b: KForm) -> bool:
    return bool(np.all(a.coeffs == b.coeffs))


def _structures():
    out = {}
    for name in ("su3", "su12", "sl3r"):
        om, rho = stable.model_pair(name, exact=True)
        cls = stable.classify_pair(om, rho)
        out[name] = (om, rho, cls)
    return out


def verify_identities() -> list[IdentityCheck]:
    """Run the full exact identity suite; returns one entry per identity."""
    checks: list[IdentityCheck] = []
    add = lambda name, ok, detail="": checks.append(IdentityCheck(name, bool(ok), detail))

    models = _structures()

    # --- six dimensions -------------------------------------------------
    om, rho, cls = models["su3"]
    eye = np.eye(6, dtype=object) + _F(0)
    add(
        "metric j(omega_su3, rho_su3) is Euclidean",
        cls.ok and np.all(cls.metric.matrix == eye),
    )
    J = stable.assoc_J(rho)
    e2 = np.zeros(6, dtype=object) + _F(0)
    e2[1] = _F(1)
    add("J_{rho_su3} e1 = -e2", np.all(J[:, 0] == -e2))
    Jpc = stable.assoc_J(models["sl3r"][1])
    add("J_{rho_sl3r} e1 = +e2", np.all(Jpc[:, 0] == e2))

    sig_expect = {"su3": (6, 0), "su12": (2, 4), "sl3r": (3, 3)}
    diag_expect = {
        "su12": [-1, -1, -1, -1, 1, 1],
        "sl3r": [1, -1, 1, -1, 1, -1],
    }
    for name, (omn, rhon, clsn) in models.items():
        add(
            f"signature of g6({name}) is {sig_expect[name]}",
            clsn.ok and clsn.signature == sig_expect[name],
            f"got {clsn.signature if clsn.ok else clsn.diagnostics}",
        )
        if name in diag_expect:
            want = np.diag(np.array(diag_expect[name], dtype=object))
            add(
                f"g6({name}) diagonal signs",
                clsn.ok and np.all(clsn.metric.matrix == want),
            )
    for name, (omn, rhon, clsn) in models.items():
        add(f"omega ^ rho = 0 ({name})", wedge(omn, rhon).is_zero())
        if clsn.ok:
            lhs = wedge(clsn.jrho, rhon)
            rhs = wedge(wedge(omn, omn), omn) * _F(2, 3)
            add(f"J*rho ^ rho = (2/3) omega^3 ({name})", _exact_eq(lhs, rhs))
        else:
            add(f"J*rho ^ rho = (2/3) omega^3 ({name})", False, clsn.diagnostics)

    lam = stable.lambda_invariant(rho)
    lam_pc = stable.lambda_invariant(models["sl3r"][1])
    add("lambda(rho_su3) < 0", lam < 0, f"lambda = {lam}")
    add("lambda(rho_sl3r) > 0", lam_pc > 0, f"lambda = {lam_pc}")
    add(
        "lambda(e^123) = 0",
        stable.lambda_invariant(KForm.basis(6, (0, 1, 2), exact=True)) == 0,
    )

    # --- seven dimensions ------------------------------------------------
    vol_expect = {"su3": _F(1), "su12": _F(1), "sl3r": _F(-1)}
    g77_expect = {"su3": _F(1), "su12": _F(1), "sl3r": _F(-1)}
    quarter_sign = {"su3": 1, "su12": 1, "sl3r": -1}
    star_sign = {"su3": 1, "su12": 1, "sl3r": -1}
    e7 = KForm.basis(7, [6], exact=True)
    sevens = {}
    for name, (omn, rhon, clsn) in models.items():
        s = g2spin7.model_seven(name, exact=True)
        sevens[name] = s
        if not s.ok:
            add(f"vol7({name})", False, "not stable")
            continue
        add(
            f"vol7({name}) = {vol_expect[name]} e^1..7",
            _exact_eq(s.vol7, g2spin7.volume_form(7, vol_expect[name], exact=True)),
        )
        add(f"g7({name})(e7,e7) = {g77_expect[name]}", s.g7.matrix[6, 6] == g77_expect[name])
        add(
            f"g7({name}) restricted to R^6 is g6",
            clsn.ok and np.all(s.g7.matrix[:6, :6] == clsn.metric.matrix),
        )
        if clsn.ok:
            quarter = wedge(wedge(embed(clsn.jrho, 7), embed(rhon, 7)), e7) * _F(1, 4)
            add(
                f"vol7({name}) = {'+' if quarter_sign[name] > 0 else '-'}(1/4) J*rho ^ rho ^ e7",
                _exact_eq(s.vol7, quarter * quarter_sign[name]),
            )
            half = wedge(omn, omn) * _F(1, 2)
            closed = star_sign[name] * (wedge(e7, embed(clsn.jrho, 7)) + embed(half, 7))
            add(f"*phi({name}) closed form", _exact_eq(s.star_phi, closed))
        add(
            f"e7 . phi({name}) recovers omega",
            _exact_eq(
                interior(_unit(7, 6), s.phi),
                embed(omn, 7),
            ),
        )

    # --- eight dimensions ------------------------------------------------
    eights = {}
    for name in ("su3", "su12", "sl3r"):
        s = sevens[name]
        if not s.ok:
            add(f"vol8({name})", False, "not stable")
            continue
        E = eights[name] = g2spin7.build_Phi(s)
        e8form = KForm.basis(8, [7], exact=True)
        add(
            f"vol8({name}) = (1/14) Phi^Phi = e8 ^ vol7",
            _exact_eq(E.vol8, wedge(e8form, embed(s.vol7, 8))),
        )
        add(
            f"e8 . Phi({name}) recovers phi",
            _exact_eq(interior(_unit(8, 7), E.Phi), embed(s.phi, 8)),
        )
        g8m = np.zeros((8, 8), dtype=object) + _F(0)
        g8m[:7, :7] = s.g7.matrix
        g8m[7, 7] = _F(1)
        g8 = SymBilinear(g8m)
        add(
            f"<Phi,Phi>_g8 = 14 with g8 = g7 (+) e8*e8 ({name})",
            form_pairing(g8, E.Phi, E.Phi) == 14,
        )
        add(
            f"Phi({name}) self-dual",
            _exact_eq(hodge(g8, E.vol8, E.Phi), E.Phi),
        )

    # bundle-split assembly reproduces the supplemented-basis structure
    for name in ("su3", "su12"):
        omn, rhon, _ = models[name]
        try:
            Phi_b, g8_b = g2spin7.bundle_Phi(1.0, omn.to_float(), rhon.to_float())
            s, E = sevens[name], eights[name]
        except Exception as exc:  # a broken model fails classification or has no Phi
            add(f"bundle split reproduces Phi and g8 ({name})", False, str(exc))
            continue
        g8f = np.zeros((8, 8))
        g8f[:7, :7] = np.asarray(s.g7.matrix, dtype=float)
        g8f[7, 7] = 1.0
        ok_phi = float(np.max(np.abs(Phi_b.coeffs - np.asarray(E.Phi.coeffs, dtype=float)))) < 1e-12
        ok_g = float(np.max(np.abs(g8_b.matrix - g8f))) < 1e-12
        add(f"bundle split reproduces Phi and g8 ({name})", ok_phi and ok_g)

    return checks


def _unit(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=object) + _F(0)
    v[index] = _F(1)
    return v


def format_report(checks: list[IdentityCheck]) -> str:
    lines = []
    for c in checks:
        mark = "pass" if c.passed else "FAIL"
        suffix = f"  ({c.detail})" if c.detail and not c.passed else ""
        lines.append(f"[{mark}] {c.name}{suffix}")
    n_ok = sum(c.passed for c in checks)
    lines.append(f"{n_ok}/{len(checks)} identities hold")
    return "\n".join(lines)
