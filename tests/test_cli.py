import csv
import json
import math
import time
import warnings

import numpy as np
import pytest

from hitchinflow import cli
from hitchinflow import flow as fl
from hitchinflow import ode
from hitchinflow.cli import main, run_point
from hitchinflow.verify import verify_identities


def _run(args):
    return main(args)


def test_verify_exits_zero(tmp_path, capsys):
    # the suite alone, asked for by the flag or by a file without a scenario
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verify": True}))
    for args in (["--verify"], ["--config", str(cfg)]):
        assert _run(args) == 0
        out = capsys.readouterr().out
        assert "identities hold" in out
        assert "FAIL" not in out


def test_flat_abelian_constant(tmp_path, capsys):
    code = _run(
        ["--scenario", "flat-abelian", "--t-end", "0.1", "--output", str(tmp_path)]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["stop_reason"] == "completed"
    assert report["max_cocal_residual"] == 0.0
    assert report["max_torsion_residual"] < 1e-12
    with open(tmp_path / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    xs = np.array([[float(r[k]) for k in r if k.startswith("x_")] for r in rows])
    assert np.max(np.abs(xs - xs[0])) == 0.0


def test_n11_squared_runs(tmp_path):
    code = _run(
        [
            "--scenario",
            "n11-spin7",
            "--t-end",
            "0.1",
            "--integrator",
            "rk45",
            "--output",
            str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["smoothness"]["c"] == pytest.approx(1.0)
    assert report["smoothness"]["ok"] is True
    assert report["classification_first"] == "SU3"
    assert report["classification_last"] == "SU3"
    with open(tmp_path / "trajectory.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header[:2] == ["t", "f"]
    assert "w_e12" in header and "s_e134" in header
    assert header[-3:] == ["cocal_residual", "normalization_residual", "torsion_residual"]


def test_n11_unsquared_refused(tmp_path, capsys):
    code = _run(
        ["--scenario", "n11-spin7", "--set", "bundle=unsquared", "--output", str(tmp_path)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "c = -2" in err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["stop_reason"] == "refused_startup"
    assert report["smoothness"]["c"] == pytest.approx(-2.0)


def test_config_strict_mode(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "n11-spin7", "params": {"zeta": 1}}))
    assert _run(["--config", str(cfg)]) == 2
    assert "unknown parameter 'zeta'" in capsys.readouterr().err
    cfg.write_text(json.dumps({"scenario": "n11-spin7", "mystery": True}))
    assert _run(["--config", str(cfg)]) == 2
    cfg.write_text("{not json")
    assert _run(["--config", str(cfg)]) == 2
    # params are checked against the run's scenario, here the flag's, not
    # against the scenario the file names
    capsys.readouterr()
    cfg.write_text(json.dumps({"scenario": "n11-spin7", "params": {"a": 1.2},
                               "flow": {"t_end": 0.02}}))
    assert _run(["--scenario", "flat-abelian", "--config", str(cfg)]) == 2
    assert "config_key: unknown parameter 'a' for flat-abelian" in capsys.readouterr().err


def test_config_may_leave_the_scenario_to_the_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"flow": {"t_end": 0.02}}))
    args = ["--scenario", "n11-spin7", "--config", str(cfg), "--output", str(tmp_path / "out")]
    assert _run(args) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["scenario"] == "n11-spin7" and report["flow"]["t_end"] == 0.02
    assert report["stop_reason"] == "completed"


def test_set_overrides_and_bad_key(capsys):
    assert _run(["--scenario", "n11-spin7", "--set", "nope=3"]) == 2
    assert "unknown parameter" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["a=0", "bundle=foo", "theta=abc", "b=nan"])
def test_bad_set_values_exit_two(setting, capsys):
    assert _run(["--scenario", "n11-spin7", "--set", setting]) == 2
    assert "precondition failure" in capsys.readouterr().err


@pytest.mark.parametrize("t_end", ["-1", "0", "5e-5", "1e-4", "nan", "inf"])
def test_bad_t_end_exits_two(t_end, capsys):
    # t_end must be finite and lie beyond the startup seed at t = 1e-4
    assert _run(["--scenario", "n11-spin7", "--t-end", t_end]) == 2
    assert "precondition failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args,code,cause",
    [
        (["--set", "a=1e150"], 3, "Numerical result out of range"),
        (["--set", "a=1e-100"], 2, "classification: lambda ~ 0"),
        (["--startup-epsilon", "1e-300"], 2, "seed_split"),
        (["--set", "theta=6e-295"], 0, None),
        (["--set", "a=1e278", "--set", "b=-4e159"], 2, "family_parameter"),
    ],
    ids=["a=1e150", "a=1e-100", "startup-epsilon=1e-300", "theta=6e-295", "a=1e278,b=-4e159"],
)
def test_extreme_values_keep_the_exit_code_contract(args, code, cause, capsys):
    # max|rho|^4 overflows; rho0 is unstable in floats before startup_seed
    # classifies it; the seed's S = f J*rho underflows; a^2 and a b c leave
    # the float range, refused before any form holds them: each exits with
    # its code and one line on stderr; theta = 6e-295 runs, with singular
    # 3x3 blocks in the minors, and prints nothing; none gives a numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(["--scenario", "n11-spin7", "--t-end", "0.02", *args]) == code
    err = capsys.readouterr().err
    assert err == "" if cause is None else (len(err.splitlines()) == 1 and cause in err)
    assert not caught


def test_run_ending_on_unstable_samples_has_no_torsion(tmp_path, capsys):
    # rk45 stops with step_failure near t = 0.432, where omega degenerates;
    # every sample before is an SU(3) structure of the split, whose *phi
    # the sample stores, so the torsion residual covers all 44 samples, and
    # the run exits 0
    args = ["--scenario", "n11-spin7", "--set", "a=1.40", "--set", "b=0.64",
            "--set", "c_param=0.66", "--output", str(tmp_path)]
    assert _run(args) == 0
    assert len(capsys.readouterr().err.splitlines()) <= 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["stop_reason"] == "step_failure"
    assert report["n_samples"] == 44
    assert report["classification_first"] == report["classification_last"] == "SU3"
    with open(tmp_path / "trajectory.csv") as fh:
        torsion = [float(row[-1]) for row in list(csv.reader(fh))[1:]]
    assert len(torsion) == 44 and all(math.isfinite(x) for x in torsion)
    assert max(torsion) == report["max_torsion_residual"]


@pytest.mark.parametrize(
    "args,code,cause,timings",
    [
        (["--startup-epsilon", "1e-7", "--t-end", "0.05"], 2, "PreconditionFailed: seed_reference",
         ["seed_s"]),
        (["--set", "a=1e150"], 3, "OverflowError: ", []),
    ],
    ids=["seed_reference", "a=1e150"],
)
def test_failed_run_writes_its_report(tmp_path, args, code, cause, timings, capsys):
    # a run that fails after it starts keeps its exit code and writes the
    # report: stop_reason failed, the exception as the cause, and the
    # timings of the phases that finished
    assert _run(["--scenario", "n11-spin7", *args, "--output", str(tmp_path)]) == code
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema_version"] == 5 and report["stop_reason"] == "failed"
    assert report["stop_cause"].startswith(cause)
    assert list(report["timings"]) == timings
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "flow",
    [
        {"integrator": "euler"},
        {"sample_dt": 0},
        {"t_end": "abc"},
        {"integrator": "rk4", "step": 0},
        {"integrator": "rk4", "step": "x"},
        {"tol": -1},
        {"t_end": True, "tol": True},
    ],
    ids=[
        "integrator=euler",
        "sample_dt=0",
        "t_end=abc",
        "rk4-step=0",
        "rk4-step=x",
        "tol=-1",
        "t_end=tol=true",
    ],
)
def test_bad_config_flow_values_exit_two(tmp_path, flow, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "n11-spin7", "flow": flow}))
    assert _run(["--config", str(cfg)]) == 2
    assert "precondition failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        {"output": 5},
        {"params": 5},
        {"flow": 5},
        {"params": {"theta": []}},
        {"verify": "yes"},
        {"report_only": 1},
        {"params": {"a": True}},
    ],
    ids=["output=5", "params=5", "flow=5", "theta=[]", "verify=yes", "report_only=1", "a=true"],
)
def test_bad_config_value_types_exit_two(tmp_path, extra, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "n11-spin7", **extra}))
    assert _run(["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "precondition failure" in err or "error:" in err


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_unreadable_config_exits_two(tmp_path, case, capsys):
    cfg = tmp_path / "cfg.json"
    if case == "directory":
        cfg.mkdir()
    elif case == "not-utf8":
        cfg.write_bytes(b'{"scenario": "n11-spin7", "output": "\xff"}')
    assert _run(["--config", str(cfg)]) == 2
    assert "config_read" in capsys.readouterr().err


def test_output_naming_a_file_exits_two(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep")
    args = ["--scenario", "flat-abelian", "--t-end", "0.02", "--output", str(out)]
    assert _run(args) == 2
    assert "precondition failure: output" in capsys.readouterr().err
    assert out.read_text() == "keep"


def test_output_holding_a_nul_exits_two(tmp_path, monkeypatch, capsys):
    # a config's output may hold any character, and a NUL cannot name a path;
    # an empty output, from the file or from the flag, names no directory
    # and is refused before any point runs, so nothing is written
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    for output in (str(tmp_path / "a\0b"), ""):
        cfg.write_text(json.dumps({"scenario": "flat-abelian", "output": output}))
        assert _run(["--config", str(cfg), "--t-end", "0.02"]) == 2
        assert "precondition failure: output" in capsys.readouterr().err
    assert _run(["--scenario", "flat-abelian", "--t-end", "0.02", "--output", ""]) == 2
    captured = capsys.readouterr()
    assert "precondition failure: output" in captured.err and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize(
    "params",
    [
        {"theta": [0.1, 0.1]},
        {"a": [1, 2, 1.0]},
        {"theta": [0.5, "0.5"]},
        {"bundle": ["squared", "../squared"]},
        {"bundle": ["squared", "a\\b"]},
        {"theta": [0.0, 0.5], "bundle": ["squared", "x\0"]},
    ],
    ids=["theta=0.1,0.1", "a=1,2,1.0", "theta=0.5,'0.5'", "bundle=../squared", "bundle=a\\b",
         "bundle=NUL"],
)
def test_repeated_sweep_value_exits_two(tmp_path, params, capsys):
    # two equal values would run one point twice, two values with one label
    # would write one directory twice and lose a run, and a label that holds
    # a path separator or a NUL names no directory of its own
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "n11-spin7", "params": params,
                               "output": str(tmp_path / "out")}))
    assert _run(["--config", str(cfg)]) == 2
    assert "config_sweep" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_report_carries_integrator_stats(tmp_path):
    args = ["--scenario", "n11-spin7", "--t-end", "0.03", "--integrator", "rk4"]
    assert _run(args + ["--output", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    keys = list(report)
    assert keys[keys.index("stop_cause") + 1] == "stats"
    stats = report["stats"]
    assert set(stats) == {"rhs_evals", "accepted_steps", "rejected_steps", "h_min", "h_max",
                          "rejections"}
    assert stats["rhs_evals"] == 4 * stats["accepted_steps"] > 0
    assert stats["rejected_steps"] == 0 and stats["rejections"] == {}


def test_report_carries_version_and_timings(tmp_path):
    from hitchinflow import __version__

    assert _run(["--scenario", "n11-spin7", "--t-end", "0.05", "--output", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    keys = list(report)
    assert keys[:2] == ["schema_version", "version"]
    assert report["schema_version"] == 5 and report["version"] == __version__
    assert keys[keys.index("params") + 1] == "flow"
    assert keys[keys.index("stats") + 1] == "timings"
    timings = report["timings"]
    assert list(timings) == ["seed_s", "integrate_s", "sample_s", "torsion_s", "io_s"]
    assert all(v > 0 for v in timings.values())
    assert timings["sample_s"] < timings["integrate_s"]


def test_a_point_checks_smoothness_once(monkeypatch):
    # the report's smoothness and the seed's check read one result per problem
    calls, check = [], fl.smoothness_check
    monkeypatch.setattr(fl, "smoothness_check", lambda *a: calls.append(a) or check(*a))
    report = run_point("n11-spin7", {"a": 1.2}, fl.FlowConfig(t_end=0.02), None)
    assert report.stop_reason == "completed" and len(calls) == 1


@pytest.mark.parametrize(
    "args,flow",
    [
        (["--scenario", "flat-abelian", "--t-end", "1e9"], None),
        (["--config"], {"sample_dt": 1e-9}),
        (["--config"], {"integrator": "rk4", "step": 1e-9}),
    ],
    ids=["flat-abelian-t_end=1e9", "sample_dt=1e-9", "rk4-step=1e-9"],
)
def test_unbounded_work_exits_two_at_once(tmp_path, args, flow, capsys):
    if flow is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "n11-spin7", "flow": flow}))
        args = args + [str(cfg)]
    start = time.perf_counter()
    assert _run(args + ["--report-only"]) == 2
    assert time.perf_counter() - start < 5.0
    assert "work_cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["--scenario", "n11-spin7", "--t-end", "0.03", "--integrator", "rk4"],
        ["--scenario", "flat-abelian", "--t-end", "0.1"],
    ],
    ids=["n11-spin7", "flat-abelian"],
)
def test_csv_torsion_matches_report(tmp_path, args):
    assert _run(args + ["--output", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    with open(tmp_path / "trajectory.csv") as fh:
        header, *rows = list(csv.reader(fh))
    if args[1] == "n11-spin7":
        head, tail = ["t", "f"], ["cocal_residual", "normalization_residual", "torsion_residual"]
        state = header[len(head) : -len(tail)]
        kinds = [c.split("_")[0] for c in state]
        assert "w" in kinds and "s" in kinds
        assert kinds == sorted(kinds, key=["w", "s"].index)
    else:
        head, tail = ["t"], ["cocal_residual", "torsion_residual"]
        state = header[len(head) : -len(tail)]
        assert state == [f"x_{i}" for i in range(35)]
    assert header == [*head, *state, *tail]
    assert len(rows) == report["n_samples"] >= 3
    # repr floats round-trip, so the column maximum is the reported value
    assert max(float(r[-1]) for r in rows) == report["max_torsion_residual"]


def test_sweep_writes_index_and_theta_invariance(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "scenario": "n11-spin7",
                "params": {"theta": [0.0, 0.5]},
                "flow": {
                    "t_end": 0.05,
                    "integrator": "rk4-fixed",
                    "step": 0.001,
                    "sample_dt": 0.01,
                },
                "output": str(tmp_path / "out"),
            }
        )
    )
    assert _run(["--config", str(cfg)]) == 0
    index = json.loads((tmp_path / "out" / "index.json").read_text())
    assert {x["label"] for x in index} == {"theta=0.0", "theta=0.5"}
    assert all(x["stop_reason"] == "completed" for x in index)

    def fseries(label):
        with open(tmp_path / "out" / label / "trajectory.csv") as fh:
            return [float(r["f"]) for r in csv.DictReader(fh)]

    f0, f1 = fseries("theta=0.0"), fseries("theta=0.5")
    assert max(abs(a - b) for a, b in zip(f0, f1)) < 1e-6


def _sweep(tmp_path, params, flow):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "n11-spin7", "params": params, "flow": flow,
                               "output": str(tmp_path / "out"), "report_only": True}))
    code = _run(["--config", str(cfg)])
    index = json.loads((tmp_path / "out" / "index.json").read_text())
    reports = [json.loads((tmp_path / "out" / x["report"]).read_text()) for x in index]
    return code, index, reports


def test_sweep_runs_every_point_past_a_refused_one(tmp_path, capsys):
    # the unsquared point is refused, and the squared point after it still
    # runs; the index records both, and the run exits with the larger code
    code, index, reports = _sweep(tmp_path, {"bundle": ["unsquared", "squared"]}, {"t_end": 0.02})
    assert code == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == index
    # the refused point's one stderr line names the point
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("precondition failure [bundle=unsquared]: smoothness: ")
    assert [x["label"] for x in index] == ["bundle=unsquared", "bundle=squared"]
    assert [x["exit_code"] for x in index] == [2, 0]
    assert [x["stop_reason"] for x in index] == ["refused_startup", "completed"]
    assert [r["stop_reason"] for r in reports] == ["refused_startup", "completed"]
    assert index[0]["stop_cause"] == reports[0]["stop_cause"] and "c = -2" in index[0]["stop_cause"]
    assert index[0]["t_last"] is None and index[1]["t_last"] == reports[1]["t_last"] == 0.02


def test_sweep_runs_the_identity_suite_once(tmp_path, monkeypatch):
    # the suite runs once per run, and every point's report carries its summary
    calls = []

    def counted():
        calls.append(1)
        return verify_identities()

    monkeypatch.setattr(cli, "verify_identities", counted)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "n11-spin7", "params": {"theta": [0.0, 0.5, 1.0]},
                               "flow": {"t_end": 0.02}, "output": str(tmp_path / "out"),
                               "report_only": True, "verify": True}))
    assert _run(["--config", str(cfg)]) == 0
    assert len(calls) == 1
    index = json.loads((tmp_path / "out" / "index.json").read_text())
    reports = [json.loads((tmp_path / "out" / x["report"]).read_text()) for x in index]
    assert len(reports) == 3
    assert all(r["identity_suite"] == {"passed": 49, "total": 49} for r in reports)


def test_sweep_point_whose_directory_is_taken_is_refused_alone(tmp_path):
    # a file where a point's directory would go refuses that point only; its
    # report cannot be written, so its entry names none
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "theta=0.5").write_text("keep")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "n11-spin7", "params": {"theta": [0.5, 0.0]},
                               "flow": {"t_end": 0.02}, "output": str(tmp_path / "out")}))
    assert _run(["--config", str(cfg), "--report-only"]) == 2
    index = json.loads((tmp_path / "out" / "index.json").read_text())
    assert [(x["exit_code"], x["stop_reason"]) for x in index] == [(2, "failed"), (0, "completed")]
    assert index[0]["stop_cause"].startswith("PreconditionFailed: output")
    assert [x["report"] for x in index] == [None, "theta=0.0/report.json"]
    assert (tmp_path / "out" / "theta=0.5").read_text() == "keep"


def test_sweep_records_where_each_point_stopped(tmp_path):
    # (0.6, 0.6, 1.6) meets omega^3 = 0 near t = 0.2582 and stops with
    # step_failure, which exits 0; (1.0, 0.6, 1.6) completes to t = 0.5
    params = {"a": [0.6, 1.0], "b": 0.6, "c_param": 1.6}
    code, index, reports = _sweep(tmp_path, params, {"t_end": 0.5})
    assert code == 0 and [x["exit_code"] for x in index] == [0, 0]
    assert [x["stop_reason"] for x in index] == ["step_failure", "completed"]
    for entry, report in zip(index, reports):
        assert (entry["stop_cause"], entry["t_last"]) == (report["stop_cause"], report["t_last"])
    assert 0.25 <= index[0]["t_last"] < 0.2583 and index[1]["t_last"] == 0.5


def test_fixed_step_csv_deterministic(tmp_path):
    args = [
        "--scenario",
        "n11-spin7",
        "--t-end",
        "0.03",
        "--integrator",
        "rk4",
        "--output",
    ]
    assert _run(args + [str(tmp_path / "a")]) == 0
    assert _run(args + [str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b


def test_rk45_csv_deterministic(tmp_path):
    args = ["--scenario", "n11-spin7", "--t-end", "0.1", "--integrator", "rk45", "--output"]
    assert _run(args + [str(tmp_path / "a")]) == 0
    assert _run(args + [str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b


def test_report_settings_rerun_the_same_csv(tmp_path):
    # scenario, params and flow from a report, fed back through --config,
    # reproduce the run without its command-line settings
    args = ["--scenario", "n11-spin7", "--set", "a=1.2", "--set", "theta=0.4", "--t-end", "0.03",
            "--integrator", "rk4", "--startup-epsilon", "2e-4", "--output", str(tmp_path / "a")]
    assert _run(args) == 0
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["flow"] == {"t_end": 0.03, "integrator": "rk4", "step": 1e-3, "tol": 1e-9,
                              "startup_epsilon": 2e-4, "sample_dt": 0.01}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: report[key] for key in ("scenario", "params", "flow")}))
    assert _run(["--config", str(cfg), "--output", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    assert (tmp_path / "b" / "trajectory.csv").read_bytes() == a


def test_rk45_step_budget_reported(tmp_path, monkeypatch, capsys):
    # past the budget the run keeps its samples, reports step_budget with
    # the time and the count, and exits 0
    monkeypatch.setattr(ode, "MAX_RK45_STEPS", 5)
    report = run_point("n11-spin7", {}, fl.FlowConfig(), tmp_path / "point")
    on_disk = json.loads((tmp_path / "point" / "report.json").read_text())
    assert on_disk["stop_reason"] == report.stop_reason == "step_budget"
    assert on_disk["stats"]["accepted_steps"] == 5
    t_budget = float(on_disk["stop_cause"].split("5 accepted steps at t = ")[1])
    assert 1 < on_disk["n_samples"] and on_disk["t_last"] <= t_budget * (1 + 1e-6)
    assert _run(["--scenario", "n11-spin7", "--output", str(tmp_path / "main")]) == 0
    assert json.loads((tmp_path / "main" / "report.json").read_text())["stop_reason"] == "step_budget"


def test_report_only_skips_csv(tmp_path):
    code = _run(
        [
            "--scenario",
            "n11-spin7",
            "--t-end",
            "0.03",
            "--report-only",
            "--output",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "report.json").exists()
    assert not (tmp_path / "trajectory.csv").exists()


def test_verify_flag_with_scenario(tmp_path):
    code = _run(
        [
            "--scenario",
            "flat-abelian",
            "--t-end",
            "0.02",
            "--verify",
            "--output",
            str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["identity_suite"]["passed"] == report["identity_suite"]["total"]
