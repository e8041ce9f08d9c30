"""Scenario runner.

Built-in scenarios:

* ``n11-spin7``: the degenerate line-bundle flow on the Aloff-Wallach
  space N^{1,1} with family parameters a, b, c_param, theta and a
  ``bundle`` switch ('squared' integrates; 'unsquared' is refused by the
  smoothness check with its constant -2).
* ``flat-abelian``: the generic flow of the model structure on a flat
  7-torus algebra; the trajectory is constant and all residuals vanish.

A run writes a trajectory CSV (fixed column order, coefficients labeled
by their leading basis tuple), a report JSON, and, for sweeps, an
aggregate index JSON.  Exit codes: 0 success, 2 precondition failure,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import flow as fl
from .errors import PreconditionFailed, SingularJacobian, StepFailure
from .g2spin7 import model_phi
from .verify import format_report, verify_identities

_SCENARIOS = ("n11-spin7", "flat-abelian")

_DEFAULT_PARAMS = {
    "n11-spin7": {"a": 1.0, "b": 1.0, "c_param": 1.0, "theta": 0.0, "bundle": "squared"},
    "flat-abelian": {},
}

# the layout of report.json: raised when a key is removed or changes meaning
_SCHEMA_VERSION = 1

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
    stop_reason: str = "not_started"
    stop_cause: str | None = None
    stats: dict | None = None  # what the integrator did, see flow.Trajectory.stats
    # wall seconds per finished phase: seed_s, integrate_s (of which
    # sample_s recorded samples), torsion_s and io_s (the trajectory CSV)
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
        return json.dumps(asdict(self), indent=2, default=_json_default)


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    if isinstance(x, tuple):
        return list(x)
    raise TypeError(f"not serializable: {type(x)}")


def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def load_config(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PreconditionFailed("config_parse", f"{path}:{exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionFailed("config_read", f"{path}: {exc}") from exc
    _validate_config(raw, path)
    return raw


def _validate_config(raw: dict, origin: str = "<config>"):
    if not isinstance(raw, dict):
        raise PreconditionFailed("config_type", f"{origin}: a config must be a JSON object")
    allowed_top = {"scenario", *_CONFIG_TYPES}
    for key in raw:
        if key not in allowed_top:
            raise PreconditionFailed("config_key", f"{origin}: unknown key '{key}'")
    for key, (want, name) in _CONFIG_TYPES.items():
        if key in raw and not isinstance(raw[key], want):
            raise PreconditionFailed(
                "config_type", f"{origin}: '{key}' must be {name}, got {raw[key]!r}"
            )
    scenario = raw.get("scenario")
    if scenario not in _SCENARIOS:
        raise PreconditionFailed(
            "config_scenario", f"{origin}: scenario must be one of {_SCENARIOS}, got {scenario!r}"
        )
    for key, val in raw.get("params", {}).items():
        if key not in _DEFAULT_PARAMS[scenario]:
            raise PreconditionFailed(
                "config_key", f"{origin}: unknown parameter '{key}' for {scenario}"
            )
        # a repeated value would write one point directory twice
        if isinstance(val, list) and (not val or any(v in val[:i] for i, v in enumerate(val))):
            raise PreconditionFailed(
                "config_sweep", f"{origin}: '{key}' must sweep distinct values, got {val!r}"
            )
    for key in raw.get("flow", {}):
        if key not in _FLOW_KEYS:
            raise PreconditionFailed("config_key", f"{origin}: unknown flow key '{key}'")


def _flow_config(scenario: str, flow_dict: dict) -> fl.FlowConfig:
    cfg = fl.FlowConfig(space="n11" if scenario == "n11-spin7" else "abelian7")
    return replace(cfg, **flow_dict)


def _write_csv(path: Path, traj: fl.Trajectory, torsion: np.ndarray | None):
    """One row per sample; the state columns follow the trajectory's kind,
    and torsion is nan when the trajectory is too short to have one."""
    if torsion is None:
        torsion = [float("nan")] * len(traj.samples)
    if traj.kind == "degenerate":
        wl = ["w_" + l for l in traj.problem.basis_labels(2)]
        sl = ["s_" + l for l in traj.problem.basis_labels(3)]
        header = ["t", "f", *wl, *sl, "cocal_residual", "normalization_residual"]
        values = lambda s: [
            s.t, s.data["f"], *s.data["w"], *s.data["s"],
            s.monitors["cocal_residual"], s.monitors["normalization_residual"],
        ]
    else:
        nx = len(traj.samples[0].data["x"])
        header = ["t", *[f"x_{i}" for i in range(nx)], "cocal_residual"]
        values = lambda s: [s.t, *s.data["x"], s.monitors["cocal_residual"]]
    lines = [",".join([*header, "torsion_residual"])]
    for s, tors in zip(traj.samples, torsion):
        lines.append(",".join(repr(float(v)) for v in [*values(s), tors]))
    path.write_text("\n".join(lines) + "\n")


def run_point(
    scenario: str,
    params: dict,
    flow_cfg: fl.FlowConfig,
    outdir: Path | None,
    report_only: bool = False,
    with_verify: bool = False,
) -> RunReport:
    """Execute one scenario point: startup, integration, monitors, files."""
    _make_dir(outdir)
    report = RunReport(scenario=scenario, params=dict(params))
    timings = report.timings
    if with_verify:
        checks = verify_identities()
        report.identity_suite = {
            "passed": sum(c.passed for c in checks),
            "total": len(checks),
        }
    start = time.perf_counter()
    if scenario == "n11-spin7":
        problem = fl.n11_problem(**params)
        sm = fl.problem_smoothness(problem)
        report.smoothness = {"c": sm.c, "ok": sm.ok, "c_is_integer": sm.c_is_integer}
        if not sm.ok or sm.c <= 0:
            report.stop_reason = "refused_startup"
            report.refused = f"smoothness check failed: c = {sm.c}, |c| = 1 required"
            _write_report(outdir, report)
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
        report.max_normalization_residual = float(
            np.max(traj.monitor("normalization_residual"))
        )
    report.classification_first = str(traj.samples[0].monitors["class"])
    report.classification_last = str(traj.samples[-1].monitors["class"])
    start = time.perf_counter()
    torsion = fl.torsion_residual(traj) if len(traj.samples) >= 3 else None
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
    _write_report(outdir, report)
    return report


def _make_dir(outdir: Path | None):
    """Create the output directory; PreconditionFailed when it cannot be,
    for instance because the path names an existing file."""
    if outdir is not None:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise PreconditionFailed("output", f"cannot create directory {outdir}: {exc}") from exc


def _write_report(outdir: Path | None, report: RunReport):
    if outdir is not None:
        _make_dir(outdir)
        (outdir / "report.json").write_text(report.to_json() + "\n")


def _sweep_points(params: dict) -> list[dict]:
    keys = sorted(params)
    lists = [(k, params[k] if isinstance(params[k], list) else [params[k]]) for k in keys]
    points = []
    for combo in itertools.product(*[v for _, v in lists]):
        points.append({k: v for (k, _), v in zip(lists, combo)})
    return points


def _point_label(point: dict, base: dict) -> str:
    swept = [k for k in point if isinstance(base.get(k), list)]
    if not swept:
        return "run"
    return "_".join(f"{k}={point[k]}" for k in sorted(swept))


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
        raw = load_config(args.config) if args.config else {}
    except PreconditionFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.verify and not (args.scenario or raw.get("scenario")):
        checks = verify_identities()
        print(format_report(checks))
        return 0 if all(c.passed for c in checks) else 2

    scenario = args.scenario or raw.get("scenario")
    if scenario is None:
        print("error: no scenario given (use --scenario or --config)", file=sys.stderr)
        return 2
    params = dict(_DEFAULT_PARAMS[scenario])
    params.update(raw.get("params", {}))
    for item in args.set:
        if "=" not in item:
            print(f"error: --set expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return 2
        key, val = item.split("=", 1)
        if key not in params:
            print(f"error: unknown parameter '{key}' for {scenario}", file=sys.stderr)
            return 2
        params[key] = _parse_scalar(val)
    flow_dict = dict(raw.get("flow", {}))
    for key in ("t_end", "tol", "startup_epsilon"):
        if getattr(args, key, None) is not None:
            flow_dict[key] = getattr(args, key)
    if args.integrator:
        flow_dict["integrator"] = args.integrator
    outdir = Path(args.output) if args.output else (Path(raw["output"]) if "output" in raw else None)
    report_only = args.report_only or bool(raw.get("report_only", False))
    with_verify = args.verify or bool(raw.get("verify", False))

    points = _sweep_points(params)
    try:
        flow_cfg = _flow_config(scenario, flow_dict)
        if len(points) == 1:
            report = run_point(scenario, points[0], flow_cfg, outdir, report_only, with_verify)
            print(report.to_json())
        else:
            base = dict(raw.get("params", {}))
            index = []
            for point in points:
                label = _point_label(point, base)
                sub = (outdir / label) if outdir else None
                report = run_point(scenario, point, flow_cfg, sub, report_only, with_verify)
                index.append(
                    {
                        "label": label,
                        "params": report.params,
                        "stop_reason": report.stop_reason,
                        "report": f"{label}/report.json" if outdir else None,
                    }
                )
            if outdir is not None:
                _make_dir(outdir)
                (outdir / "index.json").write_text(
                    json.dumps(index, indent=2, default=_json_default) + "\n"
                )
            print(json.dumps(index, indent=2, default=_json_default))
    except PreconditionFailed as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 2
    except (StepFailure, SingularJacobian, np.linalg.LinAlgError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
