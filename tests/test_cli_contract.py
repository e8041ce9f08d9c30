"""Property test of the CLI exit-code contract: 0 ok, 2 precondition
failure, 3 numerical failure, for any family parameter and flow value,
and for a sweep the largest code of its points, each recorded.

Parameters and flow values range over the whole float line (subnormals,
1e-300 to 1e300, both signs, 0, nan, inf), strings and booleans.  The
values that would make a long run are kept out: t_end stays at or below
0.05, the rk4 step and sample_dt at or above 1e-3.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hitchinflow.cli import main  # noqa: E402

# the extreme values overflow numpy on their way to a refusal; the
# warnings that say so are expected here, only the exit codes count
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

_NAN = st.just(float("nan"))
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_JUNK = st.one_of(st.text(max_size=3), st.booleans(), st.none(), st.just([]))


def _mostly(valid, junk=_JUNK):
    """Values of the strategy valid, and one time in eight junk."""
    return st.integers(0, 7).flatmap(lambda i: junk if i == 0 else valid)


def _positive_at_least(low):
    return st.floats(min_value=low, max_value=1.0) | st.floats(max_value=0.0) | _NAN


_SET_TEXT = _mostly(_FLOATS.map(repr) | st.integers().map(str),
                    st.text(max_size=3) | st.sampled_from(["True", "false"]))
_FLOW = st.fixed_dictionaries({}, optional={
    "t_end": _mostly(st.floats(0.0, 0.05) | st.floats(max_value=0.05) | st.floats(min_value=1e7)
                     | _NAN),
    "integrator": _mostly(st.sampled_from(["rk4", "rk45", "rk4-fixed", "rk45-adaptive", "euler"])),
    "step": _mostly(_positive_at_least(1e-3)),
    "tol": _mostly(_FLOATS),
    "startup_epsilon": _mostly(_FLOATS | st.floats(1e-12, 0.01)),
    "sample_dt": _mostly(_positive_at_least(1e-3)),
})


def _exit_code(sets: dict, flow: dict) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "n11-spin7", "flow": flow}))
        args = ["--config", str(cfg), "--report-only"]
        for key, text in sets.items():
            args += ["--set", f"{key}={text}"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(args)


# a hanging input fails its example instead of stalling the suite
_CAPPED = settings(max_examples=150, derandomize=True, deadline=5000, database=None,
                   suppress_health_check=[HealthCheck.too_slow])


@_CAPPED
@given(st.dictionaries(st.sampled_from(["a", "b", "c_param", "theta"]), _SET_TEXT, min_size=1))
def test_any_family_parameter_exits_zero_two_or_three(sets):
    assert _exit_code(sets, {"t_end": 0.02}) in (0, 2, 3), sets


@_CAPPED
@given(_FLOW)
def test_any_flow_value_exits_zero_two_or_three(flow):
    assert _exit_code({}, {"t_end": 0.02, **flow}) in (0, 2, 3), flow


def _sweep(key: str, values: list):
    """Exit code, index and reports of a sweep of key over values; index and
    reports are None when the sweep is refused before any point runs."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps({"scenario": "n11-spin7", "params": {key: values},
                                   "flow": {"t_end": 0.02}, "output": str(out),
                                   "report_only": True}))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["--config", str(cfg)])
        if not out.exists():
            return code, None, None
        index = json.loads((out / "index.json").read_text())
        return code, index, [json.loads((out / x["report"]).read_text()) for x in index]


@_CAPPED
@given(st.sampled_from(["a", "b", "c_param", "theta"]),
       st.lists(_mostly(_FLOATS), min_size=2, max_size=2, unique_by=repr))
def test_any_sweep_exits_with_the_largest_code_of_its_points(key, values):
    code, index, reports = _sweep(key, values)
    assert code in (0, 2, 3), values
    if index is None:  # values equal by ==, or labels: refused before any point runs
        assert code == 2, values
        return
    assert len(index) == 2 and code == max(x["exit_code"] for x in index), (values, index)
    for entry, report in zip(index, reports):
        fields = ("stop_reason", "stop_cause", "t_last")
        assert [entry[f] for f in fields] == [report[f] for f in fields], (values, entry)
