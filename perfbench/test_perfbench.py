"""Tests of the benchmark itself: tracer arithmetic and patching, the
seeded generator, and failure counting.

Run with:  python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def inner():
        clock.now += 3.0

    def failing():
        clock.now += 1.0
        raise ValueError("boom")

    def outer():
        clock.now += 2.0
        t_inner()
        t_inner()
        with pytest.raises(ValueError):
            t_failing()
        clock.now += 2.0

    t_inner = tr.span("inner", inner)
    t_failing = tr.span("failing", failing)
    t_outer = tr.span("outer", outer)
    tr.point = 7
    t_outer()
    totals = tr.totals()
    assert totals["outer"] == {"calls": 1, "self_s": 4.0, "total_s": 11.0, "errors": 0}
    assert totals["inner"] == {"calls": 2, "self_s": 6.0, "total_s": 6.0, "errors": 0}
    assert totals["failing"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0, "errors": 1}
    parents = {(r["span"], r["parent"], r["point"]) for r in tr.records()}
    assert parents == {("outer", None, 7), ("inner", "outer", 7), ("failing", "outer", 7)}


def test_install_wraps_every_binding_and_uninstall_restores():
    import hitchinflow
    from hitchinflow import flow, forms, homogeneous, stable

    before = {
        "forms.wedge": forms.wedge,
        "flow.wedge": flow.wedge,
        "stable.wedge": stable.wedge,
        "package.wedge": hitchinflow.wedge,
        "HomogeneousSpace.d": homogeneous.HomogeneousSpace.__dict__["d"],
    }
    tr = Tracer()
    with tr:
        assert flow.wedge is forms.wedge is stable.wedge is hitchinflow.wedge
        assert forms.wedge is not before["forms.wedge"]
        assert homogeneous.HomogeneousSpace.__dict__["d"] is not before["HomogeneousSpace.d"]
        sp = homogeneous.space("n11")
        sp.d(forms.KForm.basis(7, [0]))
    assert tr.totals()["homogeneous.HomogeneousSpace.d"]["calls"] == 1
    after = {
        "forms.wedge": forms.wedge,
        "flow.wedge": flow.wedge,
        "stable.wedge": stable.wedge,
        "package.wedge": hitchinflow.wedge,
        "HomogeneousSpace.d": homogeneous.HomogeneousSpace.__dict__["d"],
    }
    assert after == before
    assert len(tr.totals()) == len(SPANS)


def test_generator_is_deterministic_for_a_seed():
    for workload in workloads.POINT_S:
        assert workloads.points(workload, 11, 6) == workloads.points(workload, 11, 6)
    a = workloads.points("deg-rk45", 11, 12)
    assert a != workloads.points("deg-rk45", 12, 12)
    for p in a:
        for key in ("a", "b", "c_param"):
            assert 0.6 <= abs(p[key]) <= 1.6
        assert 0.0 <= p["theta"] < 6.283185307179586
        assert p["bundle"] == "squared"
    generic = workloads.points("generic-rk45", 11, 5)
    assert [p["space"] for p in generic] == ["n11"] * 4 + ["abelian7"]


def test_unsquared_point_counts_as_failed(tmp_path):
    point = dict(workloads.points("deg-rk45", 3, 1)[0], bundle="unsquared")
    outcome = workloads.execute("deg-rk45", point, tmp_path)
    assert (outcome.attempted, outcome.failed, outcome.digest) == (1, 1, None)
    assert "c = -2" in outcome.problems[0]
