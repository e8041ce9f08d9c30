import csv
import json
import time
import warnings

import numpy as np
import pytest

from hitchinflow.cli import main


def _run(args):
    return main(args)


def test_verify_exits_zero(capsys):
    assert _run(["--verify"]) == 0
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
    ],
    ids=["a=1e150", "a=1e-100", "startup-epsilon=1e-300"],
)
def test_extreme_values_keep_the_exit_code_contract(args, code, cause, capsys):
    # max|rho|^4 overflows; rho0 is unstable in floats before startup_seed
    # classifies it; the seed's S = f J*rho underflows: each exits with its
    # code and one line on stderr, and no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(["--scenario", "n11-spin7", "--t-end", "0.02", *args]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and cause in err
    assert not caught


def test_parameters_whose_lambda_is_nan_exit_two(capsys):
    # a^2 and a b c overflow to inf in the family forms, so lambda is nan:
    # a precondition failure, not a ValueError from int(nan) further on
    args = ["--scenario", "n11-spin7", "--set", "a=1e278", "--set", "b=-4e159", "--t-end", "0.02"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert _run(args) == 2
    assert "lambda = nan is not finite" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "params", [{"theta": [0.1, 0.1]}, {"a": [1, 2, 1.0]}], ids=["theta=0.1,0.1", "a=1,2,1.0"]
)
def test_repeated_sweep_value_exits_two(tmp_path, params, capsys):
    # two equal values would write one directory twice and lose a run
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
    assert set(stats) == {"rhs_evals", "accepted_steps", "rejected_steps", "h_min", "h_max"}
    assert stats["rhs_evals"] == 4 * stats["accepted_steps"] > 0
    assert stats["rejected_steps"] == 0


def test_report_carries_version_and_timings(tmp_path):
    from hitchinflow import __version__

    assert _run(["--scenario", "n11-spin7", "--t-end", "0.05", "--output", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    keys = list(report)
    assert keys[:2] == ["schema_version", "version"]
    assert report["schema_version"] == 1 and report["version"] == __version__
    assert keys[keys.index("stats") + 1] == "timings"
    timings = report["timings"]
    assert list(timings) == ["seed_s", "integrate_s", "sample_s", "torsion_s", "io_s"]
    assert all(v > 0 for v in timings.values())
    assert timings["sample_s"] < timings["integrate_s"]


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
