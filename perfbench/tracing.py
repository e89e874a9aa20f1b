"""Span tracing of the calls into kscrit's layers, installed from outside.

``Tracer.install()`` replaces each traced function by a recording wrapper in
every ``kscrit`` module that imported it (so ``kscrit.cli.classify`` and
``kscrit.criteria.classify`` share one wrapper), and wraps the methods of
``SubordinatedKernel`` and ``StableSubordinator`` on the class.  A call whose
span name is already open on the stack records nothing, so only outermost
calls count: a kernel evaluation made inside another one is part of it.

Spans (name, start, end, parent, op id) stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

# (span name, module, attribute) for module-level functions
_FUNCTIONS = (
    ("cli.main", "kscrit.cli", "main"),
    ("output.write", "kscrit.output", "write_csv"),
    ("output.write", "kscrit.output", "write_json"),
    ("output.write", "kscrit.output", "write_svg_lineplot"),
    ("radial.parse_profile", "kscrit.radial", "parse_profile"),
    ("radial.mass_profile", "kscrit.radial", "mass_profile"),
    ("radial.radial_concentration", "kscrit.radial", "radial_concentration"),
    ("criteria.classify", "kscrit.criteria", "classify"),
    ("criteria.criterion_curve", "kscrit.criteria", "criterion_curve"),
    ("criteria.criterion_constants", "kscrit.criteria", "criterion_constants"),
    ("criteria.blowup_constant_fractional", "kscrit.criteria", "blowup_constant_fractional"),
    ("criteria.shell_semigroup_peak", "kscrit.criteria", "shell_semigroup_peak"),
    ("kernels.build_kernel_table", "kscrit.kernels", "build_kernel_table"),
    ("kernels.validate_kernel", "kscrit.kernels", "validate_kernel"),
    ("solver.run", "kscrit.solver", "run"),
)
# (span name, module, class, method) for methods wrapped on the class
_METHODS = (
    ("kernels.SubordinatedKernel.build", "kscrit.kernels", "SubordinatedKernel", "__init__"),
    ("kernels.eval", "kscrit.kernels", "SubordinatedKernel", "log_R"),
    ("kernels.eval", "kscrit.kernels", "SubordinatedKernel", "log_abs_Rp"),
    ("kernels.eval", "kscrit.kernels", "SubordinatedKernel", "Rpp"),
    ("kernels.eval", "kscrit.kernels", "SubordinatedKernel", "curvature_ratio"),
    ("subordinator.log_pdf", "kscrit.subordinator", "StableSubordinator", "log_pdf"),
)

#: (metric name, unit, better) in the order reported
LAYER_METRICS = (
    ("cli.main.self_s", "s", "lower"),
    ("output.write.calls", "count", "lower"),
    ("output.write.bytes", "bytes", "lower"),
    ("output.write.busy_s", "s", "lower"),
    ("radial.parse_profile.busy_s", "s", "lower"),
    ("radial.mass_profile.busy_s", "s", "lower"),
    ("radial.radial_concentration.busy_s", "s", "lower"),
    ("criteria.classify.self_s", "s", "lower"),
    ("criteria.criterion_curve.calls", "count", "lower"),
    ("criteria.criterion_curve.busy_s", "s", "lower"),
    ("criteria.criterion_constants.calls", "count", "lower"),
    ("criteria.criterion_constants.busy_s", "s", "lower"),
    ("criteria.criterion_constants.repeat_frac", "ratio", "lower"),
    ("criteria.blowup_constant_fractional.busy_s", "s", "lower"),
    ("criteria.shell_semigroup_peak.busy_s", "s", "lower"),
    ("kernels.SubordinatedKernel.builds", "count", "lower"),
    ("kernels.SubordinatedKernel.build_s", "s", "lower"),
    ("kernels.eval.calls", "count", "lower"),
    ("kernels.eval.points", "count", "lower"),
    ("kernels.eval.busy_s", "s", "lower"),
    ("kernels.build_kernel_table.self_s", "s", "lower"),
    ("kernels.validate_kernel.busy_s", "s", "lower"),
    ("subordinator.log_pdf.calls", "count", "lower"),
    ("subordinator.log_pdf.points", "count", "lower"),
    ("subordinator.log_pdf.busy_s", "s", "lower"),
    ("solver.run.calls", "count", "lower"),
    ("solver.run.busy_s", "s", "lower"),
    ("solver.run.steps", "count", "lower"),
    ("solver.run.rejected", "count", "lower"),
    ("solver.run.accept_ratio", "ratio", "higher"),
    ("solver.run.us_per_attempt", "us", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _points(args, kwargs) -> int:
    return int(np.size(args[1] if len(args) > 1 else next(iter(kwargs.values()))))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: one (name id, start, end, parent index, op id) per recorded call
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open_names: list[int] = []
        self.op_id = -1
        self.totals: dict[str, float] = {}
        #: (d, alpha) of every criterion_constants call, in order
        self.constants_keys: list[tuple] = []

    def _add(self, key: str, value: float) -> None:
        self.totals[key] = self.totals.get(key, 0.0) + value

    def _wrap(self, name: str, fn, after=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        spans, stack, open_names = self.spans, self._stack, self._open_names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name_id in open_names:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name_id, time.perf_counter(), None, stack[-1] if stack else -1, self.op_id])
            stack.append(index)
            open_names.append(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
                open_names.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function and method; call once per process."""
        modules = [m for n, m in sys.modules.items() if n == "kscrit" or n.startswith("kscrit.")]
        for name, module, attr in _FUNCTIONS:
            orig = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, orig, self._after(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
        for name, module, cls_name, method in _METHODS:
            cls = getattr(sys.modules[module], cls_name)
            setattr(cls, method, self._wrap(name, getattr(cls, method), self._after(name)))

    def _after(self, name: str):
        if name == "output.write":
            return lambda a, k, r: self._add("output.write.bytes", Path(r).stat().st_size)
        if name in ("kernels.eval", "subordinator.log_pdf"):
            return lambda a, k, r: self._add(f"{name}.points", _points(a, k))
        if name == "criteria.criterion_constants":
            def record(a, k, r):
                self.constants_keys.append((r.d, r.alpha))
            return record
        if name == "solver.run":
            def record(a, k, r):
                self._add("solver.run.steps", r.n_steps)
                self._add("solver.run.rejected", r.n_rejected)
            return record
        return None

    # -- reduction -----------------------------------------------------------

    def span_times(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Per span name: calls, busy seconds, and self seconds (busy minus traced children)."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for i, (name_id, start, end, _, _) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
        return calls, busy, self_s

    def layer_metrics(self, overhead_frac: float) -> dict[str, float]:
        calls, busy, self_s = self.span_times()
        seen: set = set()
        repeats = 0
        for key in self.constants_keys:
            repeats += key in seen
            seen.add(key)
        steps = self.totals.get("solver.run.steps", 0.0)
        attempts = steps + self.totals.get("solver.run.rejected", 0.0)
        values = {
            "criteria.criterion_constants.repeat_frac": repeats / len(self.constants_keys) if self.constants_keys else 0.0,
            "kernels.SubordinatedKernel.builds": calls.get("kernels.SubordinatedKernel.build", 0),
            "kernels.SubordinatedKernel.build_s": busy.get("kernels.SubordinatedKernel.build", 0.0),
            "solver.run.accept_ratio": steps / attempts if attempts else 0.0,
            "solver.run.us_per_attempt": 1e6 * busy.get("solver.run", 0.0) / attempts if attempts else 0.0,
            "trace.overhead_frac": overhead_frac,
        }
        out = {}
        for metric, _, _ in LAYER_METRICS:
            if metric in values:
                out[metric] = values[metric]
                continue
            span, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls.get(span, 0)
            elif stat == "busy_s":
                out[metric] = busy.get(span, 0.0)
            elif stat == "self_s":
                out[metric] = self_s.get(span, 0.0)
            else:
                out[metric] = self.totals.get(metric, 0.0)
        return out

    def dump(self, path: Path) -> None:
        payload = {"fields": ["name", "start", "end", "parent", "op"], "names": self.names, "spans": self.spans}
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
