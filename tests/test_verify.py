import textwrap
import time
from fractions import Fraction

import numpy as np

from hitchinflow import stable
from hitchinflow.forms import KForm
from hitchinflow.verify import format_report, verify_identities


def test_all_identities_hold_exactly():
    checks = verify_identities()
    assert all(c.passed for c in checks), format_report(checks)
    assert len(checks) >= 40


def test_runtime_budget():
    t0 = time.perf_counter()
    verify_identities()
    assert time.perf_counter() - t0 < 10.0


def test_a_warm_pass_builds_at_most_2600_fractions(monkeypatch):
    # exact products scale only nonzero entries to ints and build one
    # Fraction per nonzero output entry, and max|x| of an exact array
    # builds none; counted over a pass whose tables are built (2,575)
    verify_identities()
    count, new = [0], Fraction.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    verify_identities()
    monkeypatch.undo()
    assert 0 < count[0] <= 2600, count[0]


def test_corrupted_model_is_detected(monkeypatch):
    # flipping one sign of the su3 model 3-form must break the normalization
    # and metric identities (regression guard for the suite itself); the
    # suite and g2spin7.model_phi both read the model through the module
    model_pair = stable.model_pair

    def corrupted(name, exact=False):
        om, rho = model_pair(name, exact)
        if name == "su3":
            coeffs = rho.coeffs.copy()
            pos = np.flatnonzero(coeffs != 0)[0]
            coeffs[pos] = -coeffs[pos]
            rho = KForm(6, 3, coeffs)
        return om, rho

    monkeypatch.setattr(stable, "model_pair", corrupted)
    checks = verify_identities()
    failed = [c.name for c in checks if not c.passed]
    assert any("J*rho ^ rho" in name for name in failed)
    assert len(failed) >= 3


# the report line for line: the same 49 names in the same order, all passing
REPORT = """
    [pass] metric j(omega_su3, rho_su3) is Euclidean
    [pass] J_{rho_su3} e1 = -e2
    [pass] J_{rho_sl3r} e1 = +e2
    [pass] signature of g6(su3) is (6, 0)
    [pass] signature of g6(su12) is (2, 4)
    [pass] g6(su12) diagonal signs
    [pass] signature of g6(sl3r) is (3, 3)
    [pass] g6(sl3r) diagonal signs
    [pass] omega ^ rho = 0 (su3)
    [pass] J*rho ^ rho = (2/3) omega^3 (su3)
    [pass] omega ^ rho = 0 (su12)
    [pass] J*rho ^ rho = (2/3) omega^3 (su12)
    [pass] omega ^ rho = 0 (sl3r)
    [pass] J*rho ^ rho = (2/3) omega^3 (sl3r)
    [pass] lambda(rho_su3) < 0
    [pass] lambda(rho_sl3r) > 0
    [pass] lambda(e^123) = 0
    [pass] vol7(su3) = 1 e^1..7
    [pass] g7(su3)(e7,e7) = 1
    [pass] g7(su3) restricted to R^6 is g6
    [pass] vol7(su3) = +(1/4) J*rho ^ rho ^ e7
    [pass] *phi(su3) closed form
    [pass] e7 . phi(su3) recovers omega
    [pass] vol7(su12) = 1 e^1..7
    [pass] g7(su12)(e7,e7) = 1
    [pass] g7(su12) restricted to R^6 is g6
    [pass] vol7(su12) = +(1/4) J*rho ^ rho ^ e7
    [pass] *phi(su12) closed form
    [pass] e7 . phi(su12) recovers omega
    [pass] vol7(sl3r) = -1 e^1..7
    [pass] g7(sl3r)(e7,e7) = -1
    [pass] g7(sl3r) restricted to R^6 is g6
    [pass] vol7(sl3r) = -(1/4) J*rho ^ rho ^ e7
    [pass] *phi(sl3r) closed form
    [pass] e7 . phi(sl3r) recovers omega
    [pass] vol8(su3) = (1/14) Phi^Phi = e8 ^ vol7
    [pass] e8 . Phi(su3) recovers phi
    [pass] <Phi,Phi>_g8 = 14 with g8 = g7 (+) e8*e8 (su3)
    [pass] Phi(su3) self-dual
    [pass] vol8(su12) = (1/14) Phi^Phi = e8 ^ vol7
    [pass] e8 . Phi(su12) recovers phi
    [pass] <Phi,Phi>_g8 = 14 with g8 = g7 (+) e8*e8 (su12)
    [pass] Phi(su12) self-dual
    [pass] vol8(sl3r) = (1/14) Phi^Phi = e8 ^ vol7
    [pass] e8 . Phi(sl3r) recovers phi
    [pass] <Phi,Phi>_g8 = 14 with g8 = g7 (+) e8*e8 (sl3r)
    [pass] Phi(sl3r) self-dual
    [pass] bundle split reproduces Phi and g8 (su3)
    [pass] bundle split reproduces Phi and g8 (su12)
    49/49 identities hold
"""


def test_format_report_lines():
    checks = verify_identities()
    text = format_report(checks)
    assert text.count("[pass]") == len(checks)
    assert "identities hold" in text
    assert text == textwrap.dedent(REPORT).strip("\n")
