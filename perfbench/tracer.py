"""Span tracer that wraps hitchinflow's public functions from outside.

``from .forms import wedge`` gives every importing module its own
binding, so wrapping ``forms.wedge`` alone would miss the calls made from
``flow`` or ``stable``.  ``Tracer.install`` therefore replaces the
function object under every name in every ``hitchinflow`` module that
holds it (and the class attribute for methods such as
``HomogeneousSpace.d``); ``uninstall`` puts every original back.

Spans are aggregated in memory by (span, parent span, point id):
calls, total seconds, self seconds and exceptions crossing the span.
Self time is a span's duration minus the time its child spans cover.
Aggregating every call keeps memory bounded for leaf spans such as
``forms.wedge`` and ``linalg.det``, which run more than 10^4 times per
point.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# The spans reported by the traced run; each is "<module>.<function>" or
# "<module>.<Class>.<method>" under the hitchinflow package.
SPANS = (
    "cli.run_point",
    "flow.integrate",
    "flow.startup_seed",
    "flow.smoothness_check",
    "flow.generic_rhs",
    "flow.cocal_residual",
    "flow.torsion_residual",
    "homogeneous.HomogeneousSpace.d",
    "homogeneous.invariant_basis",
    "stable.classify_pair",
    "stable.solve_wedge_omega",
    "stable.k_endomorphism",
    "stable.assoc_J",
    "g2spin7.seven_structure",
    "g2spin7.bundle_Phi",
    "forms.wedge",
    "forms.pullback",
    "forms.hodge",
    "forms.form_pairing",
    "forms.restrict",
    "forms.embed",
    "forms.interior",
    "linalg.det",
    "linalg.signature",
    "verify.verify_identities",
)

FIELDS = ("calls", "self_s", "total_s", "errors")


class Tracer:
    """Aggregating span recorder; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.point = None
        self.stats: dict[tuple, list] = {}  # (span, parent, point) -> [calls, self, total, errors]
        self._stack: list[list] = []  # [span, start, child seconds]
        self._patched: list[tuple] = []  # (holder, attribute, original)

    # -- recording -----------------------------------------------------
    def span(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one ``name`` span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else None
            frame = [name, self.clock(), 0.0]
            stack.append(frame)
            failed = False
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                stack.pop()
                total = self.clock() - frame[1]
                if stack:
                    stack[-1][2] += total
                key = (name, parent, self.point)
                rec = self.stats.get(key)
                if rec is None:
                    rec = self.stats[key] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += total - frame[2]
                rec[2] += total
                rec[3] += failed

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per-span sums over parents and points, for every name in SPANS."""
        out = {name: dict.fromkeys(FIELDS, 0) for name in SPANS}
        for (name, _, _), (calls, self_s, total_s, errors) in self.stats.items():
            rec = out.setdefault(name, dict.fromkeys(FIELDS, 0))
            rec["calls"] += calls
            rec["self_s"] += self_s
            rec["total_s"] += total_s
            rec["errors"] += errors
        return out

    def records(self) -> list[dict]:
        """The aggregated spans with their parent and point id."""
        return [
            {"span": name, "parent": parent, "point": point, "calls": c,
             "self_s": s, "total_s": t, "errors": e}
            for (name, parent, point), (c, s, t, e) in sorted(self.stats.items(), key=repr)
        ]

    # -- patching ------------------------------------------------------
    def install(self):
        """Wrap every span's function wherever a hitchinflow module binds it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        importlib.import_module("hitchinflow")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install(self):
        for name in SPANS:
            module_name, *owner, attr = name.split(".")
            module = importlib.import_module(f"hitchinflow.{module_name}")
            if owner:
                cls = getattr(module, owner[0])
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self.span(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self.span(name, original)
            holders = [
                mod for mod_name, mod in list(sys.modules.items())
                if mod is not None and mod_name.split(".")[0] == "hitchinflow"
            ]
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, holder, attr, original, wrapper):
        setattr(holder, attr, wrapper)
        self._patched.append((holder, attr, original))

    def uninstall(self):
        """Restore every function replaced by ``install``."""
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
