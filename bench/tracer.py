"""Spans and counts around the calls into each layer of ``rigidity_lab``.

The tracer wraps public functions from outside the package. ``cli``,
``certifier`` and ``prolongation`` bind names with ``from .x import y``, so
a wrapper installed only on the defining module would miss their calls:
:meth:`Tracer.install` replaces the function at every module of the package
that binds it. Methods are wrapped on their class.

Spans are kept in memory as ``[job, name, start, end, parent]`` and turned
into per-layer self times by :func:`layer_times` once the run is over. A
span's self time is its duration minus the durations of its direct
children. Work the tracer itself does after a call (the count hooks) is
recorded as a ``trace.hook`` child span, so it is charged to no layer.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

#: Span name -> layer metric that receives its self time.
LAYERS = {
    "cli.main": "cli.self_s",
    "gcs.builtin_chart": "gcs.chart_s",
    "gcs.chart_from_doc": "gcs.chart_s",
    "gcs.lift_to_lightlike": "gcs.chart_s",
    "gcs.GcsChart.__post_init__": "gcs.chart_s",
    "gcs.LightlikeChart.__post_init__": "gcs.chart_s",
    "gcs.genericity_report": "gcs.genericity_s",
    "gcs.GcsChart.eval_metric": "gcs.eval_s",
    "gcs.GcsChart.eval_partials": "gcs.eval_s",
    "gcs.LightlikeChart.eval_metric": "gcs.eval_s",
    "gcs.LightlikeChart.eval_base_metric": "gcs.eval_s",
    "gcs.LightlikeChart.eval_base_partials": "gcs.eval_s",
    "certifier.gcs_certificate": "certifier.self_s",
    "certifier.lightlike_subrigidity_certificate": "certifier.self_s",
    "braid.solve_kernel": "braid.solve_s",
    "braid.generalized_braid_kernel": "braid.assemble_s",
    "braid.generalized_braid_system": "braid.assemble_s",
    "braid.classical_braid_kernel": "braid.assemble_s",
    "braid.classical_braid_system": "braid.assemble_s",
    "braid.trilinear_symskew_kernel": "braid.assemble_s",
    "prolongation.find_rank1": "prolongation.find_rank1_s",
    "prolongation.prolongation_space": "prolongation.space_s",
    "symspace.curve_length": "symspace.length_s",
    "symspace.arclength_reparam": "symspace.reparam_s",
    "symspace.circle_mean": "symspace.mean_s",
    "reportio.dump_bytes": "reportio.dump_s",
    "trace.hook": "trace.hook_s",
}

#: Layers whose wrapped calls may raise; each gets a ``<layer>.errors`` count.
ERROR_LAYERS = ("cli", "gcs", "ratfield", "certifier", "braid", "prolongation", "symspace", "reportio")


class Tracer:
    """Records spans and counts for one worker process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._calls: dict[str, list[int]] = {}

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recorded as span ``name``; ``hook(args, kwargs, result)``
        runs after a successful call, outside the span."""
        layer = name.split(".", 1)[0]
        spans, stack, errors = self.spans, self._stack, self.errors
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [self.job, name, clock(), 0.0, parent]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                record[3] = clock()
                stack.pop()
            if hook is not None:
                start = clock()
                hook(args, kwargs, result)
                spans.append([self.job, "trace.hook", start, clock(), parent])
            return result

        return traced

    def count_calls(self, name: str, layer: str, method):
        """A one-argument ``method`` with a call counter and an error counter
        but no span, for methods called too often to time one by one. The
        fixed signature keeps the wrapper cheap (no ``*args`` packing)."""
        cell = self._calls.setdefault(name, [0])
        errors = self.errors

        def counted(obj, arg):
            cell[0] += 1
            try:
                return method(obj, arg)
            except BaseException:
                errors[layer] += 1
                raise

        return counted

    def all_counts(self) -> dict[str, int]:
        """Hook counts and call counts together."""
        out = dict(self.counts)
        out.update((name, cell[0]) for name, cell in self._calls.items())
        return out

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the package's layer boundaries in every module that binds them."""
        import numpy as np
        from rigidity_lab import braid, certifier, gcs, prolongation, ratfield, reportio, symspace

        counts = self.counts

        def chart_points(args, kwargs, result):
            chart = args[0]
            counts["gcs.grid_points"] += chart.grid ** (chart.n + 1)

        def genericity_points(args, kwargs, result):
            chart = args[0]
            n = getattr(chart, "base_dim", chart.n)
            counts["gcs.grid_points"] += result.grid ** (n + 1)

        def system_size(args, kwargs, result):
            rows = (args[0] if args else kwargs["system"]).rows
            m, n = rows.shape
            counts["braid.solve_calls"] += 1
            counts["braid.cells"] += m * n
            counts["braid.nnz"] += int(np.count_nonzero(rows))
            counts["braid.svd_bytes"] += 8 * (m * m + m * n + n * n)

        def space_call(args, kwargs, result):
            counts["prolongation.space_calls"] += 1

        def report_bytes(args, kwargs, result):
            counts["reportio.bytes"] += len(result)

        functions = [
            (gcs, "builtin_chart", None),
            (gcs, "chart_from_doc", None),
            (gcs, "lift_to_lightlike", None),
            (gcs, "genericity_report", genericity_points),
            (certifier, "gcs_certificate", None),
            (certifier, "lightlike_subrigidity_certificate", None),
            (braid, "solve_kernel", system_size),
            (braid, "generalized_braid_kernel", None),
            (braid, "generalized_braid_system", None),
            (braid, "classical_braid_kernel", None),
            (braid, "classical_braid_system", None),
            (braid, "trilinear_symskew_kernel", None),
            (prolongation, "find_rank1", None),
            (prolongation, "prolongation_space", space_call),
            (symspace, "curve_length", None),
            (symspace, "arclength_reparam", None),
            (symspace, "circle_mean", None),
            (reportio, "dump_bytes", report_bytes),
        ]
        for module, attr, hook in functions:
            original = getattr(module, attr)
            short = module.__name__.rsplit(".", 1)[-1]
            _rebind(original, self.wrap(f"{short}.{attr}", original, hook))

        methods = [
            (gcs.GcsChart, "__post_init__", chart_points),
            (gcs.LightlikeChart, "__post_init__", None),
            (gcs.GcsChart, "eval_metric", None),
            (gcs.GcsChart, "eval_partials", None),
            (gcs.LightlikeChart, "eval_metric", None),
            (gcs.LightlikeChart, "eval_base_metric", None),
            (gcs.LightlikeChart, "eval_base_partials", None),
        ]
        for cls, attr, hook in methods:
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(f"gcs.{cls.__name__}.{attr}", original, hook))

        rf = ratfield.RationalField
        rf.eval = self.count_calls("ratfield.eval_calls", "ratfield", rf.__dict__["eval"])


def _rebind(original, replacement):
    """Replace ``original`` by ``replacement`` in every package module."""
    for name, module in list(sys.modules.items()):
        if name != "rigidity_lab" and not name.startswith("rigidity_lab."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


# -- aggregation -----------------------------------------------------------


def layer_times(spans: list[list]) -> dict[str, float]:
    """Sum of span self times per layer metric (every metric in LAYERS)."""
    child = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {metric: 0.0 for metric in LAYERS.values()}
    for k, (_, name, start, end, _) in enumerate(spans):
        out[LAYERS[name]] += (end - start) - child[k]
    return out
