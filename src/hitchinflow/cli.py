"""Scenario runner.

Built-in scenarios:

* ``n11-spin7``: the degenerate line-bundle flow on the Aloff-Wallach
  space N^{1,1} with family parameters a, b, c_param, theta and a
  ``bundle`` switch ('squared' integrates; 'unsquared' is refused by the
  smoothness check with its constant -2).
* ``flat-abelian``: the generic flow of the model structure on a flat
  7-torus algebra; the trajectory is constant and all residuals vanish.

A run is a list of points: the Cartesian product of the list-valued
parameters, or one point when none is a list.  Every point writes a
trajectory CSV (fixed column order, coefficients labeled by their
leading basis tuple) and a report JSON; a sweep also writes an index
JSON with one entry per point.  Exit codes: 0 success, 2 precondition
failure, 3 numerical failure; a sweep exits with the largest of its
points' codes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import flow as fl
from .errors import PreconditionFailed
from .g2spin7 import model_phi
from .verify import format_report, verify_identities

_SCENARIOS = ("n11-spin7", "flat-abelian")

_DEFAULT_PARAMS = {
    "n11-spin7": {"a": 1.0, "b": 1.0, "c_param": 1.0, "theta": 0.0, "bundle": "squared"},
    "flat-abelian": {},
}

# the layout of report.json: raised when a key is added, removed or changes
# meaning (README.md lists the keys)
_SCHEMA_VERSION = 5

_FLOW_KEYS = ("t_end", "integrator", "step", "tol", "startup_epsilon", "sample_dt")

# the JSON type each top-level config value must have, and its name
_CONFIG_TYPES = {
    "params": (dict, "an object"),
    "flow": (dict, "an object"),
    "output": (str, "a string"),
    "verify": (bool, "true or false"),
    "report_only": (bool, "true or false"),
}


@dataclass(kw_only=True)
class RunReport:
    schema_version: int = _SCHEMA_VERSION
    version: str = __version__  # of the hitchinflow package
    scenario: str
    params: dict
    flow: dict  # the values of _FLOW_KEYS in the run's FlowConfig
    stop_reason: str = "not_started"
    stop_cause: str | None = None
    stats: dict | None = None  # what the integrator did, see flow.Trajectory.stats
    # wall seconds per finished phase: seed_s, integrate_s (of which
    # sample_s built the samples), torsion_s and io_s (the trajectory CSV)
    timings: dict = field(default_factory=dict)
    n_samples: int = 0
    t_first: float | None = None
    t_last: float | None = None
    max_cocal_residual: float | None = None
    max_torsion_residual: float | None = None
    max_normalization_residual: float | None = None
    smoothness: dict | None = None
    classification_first: str | None = None
    classification_last: str | None = None
    refused: str | None = None
    identity_suite: dict | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def load_config(path: str) -> dict:
    """The config file's JSON object, with its top-level keys and value types checked."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PreconditionFailed("config_parse", f"{path}:{exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionFailed("config_read", f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise PreconditionFailed("config_type", f"{path}: a config must be a JSON object")
    for key in raw:
        if key != "scenario" and key not in _CONFIG_TYPES:
            raise PreconditionFailed("config_key", f"{path}: unknown key '{key}'")
    for key, (want, name) in _CONFIG_TYPES.items():
        if key in raw and not isinstance(raw[key], want):
            raise PreconditionFailed(
                "config_type", f"{path}: '{key}' must be {name}, got {raw[key]!r}"
            )
    return raw


def _run_document(args: argparse.Namespace) -> dict:
    """The config file with the flags laid over it, key by key, and checked
    once: its scenario is known, every params and flow key belongs to it,
    and an output is not empty.  A document that asks for the identity
    suite and names no scenario is the suite alone, checked no further."""
    run = load_config(args.config) if args.config else {}
    params = dict(run.get("params", {}))
    for item in args.set:
        if "=" not in item:
            raise PreconditionFailed("config_set", f"--set expects KEY=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        params[key] = _parse_scalar(val)
    flow = dict(run.get("flow", {}))
    flow.update({k: getattr(args, k) for k in _FLOW_KEYS if getattr(args, k, None) is not None})
    run.update(params=params, flow=flow)
    run.update({k: getattr(args, k) for k in ("scenario", "output", "verify", "report_only")
                if getattr(args, k) not in (None, False)})
    scenario = run.get("scenario")
    if scenario is None and run.get("verify"):
        return run
    if scenario not in _SCENARIOS:
        raise PreconditionFailed(
            "config_scenario", f"scenario must be one of {_SCENARIOS}, got {scenario!r}"
        )
    for key in params:
        if key not in _DEFAULT_PARAMS[scenario]:
            raise PreconditionFailed("config_key", f"unknown parameter '{key}' for {scenario}")
    for key in flow:
        if key not in _FLOW_KEYS:
            raise PreconditionFailed("config_key", f"unknown flow key '{key}'")
    if run.get("output") == "":
        raise PreconditionFailed("output", "an empty path names no directory")
    return run


def _write_csv(path: Path, traj: fl.Trajectory, torsion: np.ndarray | None):
    """One row per sample; the state columns follow the trajectory's kind,
    and torsion is nan where the trajectory has none (see run_point)."""
    if torsion is None:
        torsion = np.full(len(traj.samples), np.nan)
    if traj.kind == "degenerate":
        wl = ["w_" + l for l in traj.problem.basis_labels(2)]
        sl = ["s_" + l for l in traj.problem.basis_labels(3)]
        header = ["t", "f", *wl, *sl, "cocal_residual", "normalization_residual"]
        columns = [traj.series("f"), traj.series("w"), traj.series("s"),
                   traj.monitor("cocal_residual"), traj.monitor("normalization_residual")]
    else:
        nx = len(traj.samples[0].data["x"])
        header = ["t", *[f"x_{i}" for i in range(nx)], "cocal_residual"]
        columns = [traj.series("x"), traj.monitor("cocal_residual")]
    rows = np.column_stack([traj.times(), *columns, torsion]).tolist()  # Python floats
    lines = [",".join([*header, "torsion_residual"]), *(",".join(map(repr, row)) for row in rows)]
    path.write_text("\n".join(lines) + "\n")


def run_point(
    scenario: str,
    params: dict,
    flow_cfg: fl.FlowConfig,
    outdir: Path | None,
    report_only: bool = False,
    identity_suite: dict | None = None,
) -> RunReport:
    """Execute one scenario point: startup, integration, monitors, files.
    The report, which carries identity_suite, the run's suite summary, is
    written on every exit, a failure's with its cause; an exception leaves
    with that report as its ``report`` attribute."""
    flow = {key: getattr(flow_cfg, key) for key in _FLOW_KEYS}
    report = RunReport(scenario=scenario, params=dict(params), flow=flow,
                       identity_suite=identity_suite)
    timings = report.timings
    try:
        _make_dir(outdir)
        start = time.perf_counter()
        if scenario == "n11-spin7":
            problem = fl.n11_problem(**params)
            sm = fl.problem_smoothness(problem)
            report.smoothness = {"c": sm.c, "ok": sm.ok, "c_is_integer": sm.c_is_integer}
            if not sm.ok or sm.c <= 0:
                report.stop_reason = "refused_startup"
                report.refused = f"smoothness check failed: c = {sm.c}, |c| = 1 required"
                raise PreconditionFailed("smoothness", report.refused)
            seed = fl.startup_seed(problem, sm.c, flow_cfg.startup_epsilon)
        else:  # flat-abelian
            gp = fl.generic_problem("abelian7")
            _, _, pinv3 = gp.basis(3)
            seed = fl.GenericFlowState(0.0, pinv3 @ model_phi("su3").coeffs, gp)
        timings["seed_s"] = time.perf_counter() - start
        start = time.perf_counter()
        traj = fl.integrate(flow_cfg, seed)
        timings["integrate_s"] = time.perf_counter() - start
        timings["sample_s"] = traj.sample_s
        if traj.kind == "degenerate":
            report.max_normalization_residual = float(np.max(traj.monitor("normalization_residual")))
        report.classification_first = str(traj.samples[0].monitors["class"])
        report.classification_last = str(traj.samples[-1].monitors["class"])
        start = time.perf_counter()
        try:
            torsion = fl.torsion_residual(traj)
        except ValueError:  # fewer than 3 samples
            torsion = None
        timings["torsion_s"] = time.perf_counter() - start
        start = time.perf_counter()
        if outdir is not None and not report_only:
            _write_csv(outdir / "trajectory.csv", traj, torsion)
        timings["io_s"] = time.perf_counter() - start
        report.stop_reason = traj.stop_reason
        report.stop_cause = traj.stop_cause
        report.stats = traj.stats
        report.n_samples = len(traj.samples)
        report.t_first = float(traj.samples[0].t)
        report.t_last = float(traj.samples[-1].t)
        report.max_cocal_residual = float(np.max(traj.monitor("cocal_residual")))
        if torsion is not None:
            report.max_torsion_residual = float(np.max(torsion))
    except Exception as exc:  # a refused startup keeps its stop_reason
        if report.stop_reason != "refused_startup":
            report.stop_reason = "failed"
        report.stop_cause = f"{type(exc).__name__}: {exc}"
        exc.report = report
        raise
    finally:
        if outdir is not None and outdir.is_dir():
            (outdir / "report.json").write_text(report.to_json() + "\n")
    return report


def _make_dir(outdir: Path | None):
    """Create the output directory; PreconditionFailed when it cannot be,
    for instance because the path names an existing file or holds a NUL."""
    if outdir is not None:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except (OSError, ValueError) as exc:
            raise PreconditionFailed("output", f"cannot create directory {outdir}: {exc}") from exc


def _sweep_points(params: dict) -> list[tuple[str, dict]]:
    """The points of the Cartesian product of the list-valued parameters,
    each with its directory's label: "" when no parameter is a list."""
    keys = sorted(params)
    swept = [k for k in keys if isinstance(params[k], list)]
    combos = itertools.product(*[params[k] if k in swept else [params[k]] for k in keys])
    points = [dict(zip(keys, combo)) for combo in combos]
    labels = ["_".join(f"{k}={point[k]}" for k in swept) for point in points]
    # an empty list sweeps nothing; two equal values (1 and 1.0) run one point
    # twice, and two labels alike (0.5 and "0.5") write one directory twice
    repeated = any(v in params[k][:i] for k in swept for i, v in enumerate(params[k]))
    if not points or repeated or len(set(labels)) < len(labels) or any(
        set(label) & set("/\\\0") for label in labels
    ):
        raise PreconditionFailed(
            "config_sweep", f"a sweep needs distinct points and directory names, got {labels!r}"
        )
    return list(zip(labels, points))


def _failure_code(exc: Exception, label: str = "") -> int:
    """Print the one line a refused or failed point leaves on stderr, with
    the point's label when it has one, and return its exit code."""
    refused = isinstance(exc, PreconditionFailed)
    where = f" [{label}]" if label else ""
    print(f"{'precondition' if refused else 'numerical'} failure{where}: {exc}", file=sys.stderr)
    return 2 if refused else 3


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hitchinflow",
        description="Integrate invariant Hitchin flows and validate the model identities.",
    )
    ap.add_argument("--config", type=str, help="JSON config file")
    ap.add_argument("--scenario", type=str, choices=_SCENARIOS, help="built-in scenario")
    ap.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario parameter (repeatable)",
    )
    ap.add_argument("--t-end", type=float, dest="t_end")
    ap.add_argument("--integrator", choices=("rk4", "rk45", "rk4-fixed", "rk45-adaptive"))
    ap.add_argument("--tol", type=float)
    ap.add_argument("--startup-epsilon", type=float, dest="startup_epsilon")
    ap.add_argument("--output", type=str, help="output directory")
    ap.add_argument("--verify", action="store_true", help="run the exact identity suite")
    ap.add_argument("--report-only", action="store_true", help="skip trajectory CSV output")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = _run_document(args)
        if run.get("scenario") is None:  # the identity suite alone
            checks = verify_identities()
            print(format_report(checks))
            return 0 if all(c.passed for c in checks) else 2
        points = _sweep_points({**_DEFAULT_PARAMS[run["scenario"]], **run["params"]})
        flow_cfg = fl.FlowConfig(**run["flow"])
        outdir = Path(run["output"]) if "output" in run else None
        _make_dir(outdir)
    except PreconditionFailed as exc:
        return _failure_code(exc)
    suite = None
    if run.get("verify"):
        checks = verify_identities()
        suite = {"passed": sum(c.passed for c in checks), "total": len(checks)}

    index = []
    for label, point in points:
        sub = outdir / label if outdir is not None else None
        try:
            report = run_point(run["scenario"], point, flow_cfg, sub,
                               run.get("report_only", False), suite)
            code = 0
        except (PreconditionFailed, np.linalg.LinAlgError, OverflowError) as exc:
            report, code = exc.report, _failure_code(exc, label)
        written = sub is not None and sub.is_dir()
        index.append({"label": label, "params": report.params, "exit_code": code,
                      "stop_reason": report.stop_reason, "stop_cause": report.stop_cause,
                      "t_last": report.t_last,
                      "report": f"{label}/report.json" if written else None})
    if index[0]["label"]:
        text = json.dumps(index, indent=2)
        if outdir is not None:
            (outdir / "index.json").write_text(text + "\n")
    else:  # nothing swept: the one point's report is the run's record
        text = report.to_json()
    print(text)
    return max(entry["exit_code"] for entry in index)


if __name__ == "__main__":
    sys.exit(main())
