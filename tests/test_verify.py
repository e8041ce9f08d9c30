import time

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


def test_format_report_lines():
    checks = verify_identities()
    text = format_report(checks)
    assert text.count("[pass]") == len(checks)
    assert "identities hold" in text
