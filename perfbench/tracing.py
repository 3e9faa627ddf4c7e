"""Per-layer spans for wesurf, recorded from outside the program.

A `Tracer` replaces selected public functions of the `wesurf.*` modules by
wrappers that record one span per call (name, start, end, parent).  Modules
import names with `from .quadrature import antiderivative_on_grid`, so a
wrapper is rebound under every name in every loaded `wesurf.*` module that
holds the original object; `uninstall` puts the originals back.

Besides spans, a few wrappers count work where it happens: integrand nodes
evaluated by the grid quadrature, nodes retained by the chain-rule partials,
bytes written by the exporters, and the tracemalloc peak of pair generation.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np

MODULE_PREFIX = "wesurf"

# (module, attribute path) of every wrapped function, by layer
TRACED = (
    ("quadrature", "antiderivative_on_grid"),
    ("catalog", "eval_R"),
    ("catalog", "eval_R_deriv"),
    ("generate", "generate_conjugate_pair"),
    ("family", "SolitonFamily.at"),
    ("family", "wick_rotate"),
    ("family", "verify_soliton_relations"),
    ("hodograph", "helicoid_closed"),
    ("hodograph", "catenoid_closed"),
    ("geometry", "fundamental_form"),
    ("geometry", "theta_sweep_invariance"),
    ("geometry", "action"),
    ("pde", "chain_rule_partials"),
    ("pde", "born_infeld_residual"),
    ("pde", "boost"),
    ("pde", "minimal_surface_residual"),
    ("grids", "laplacian"),
    ("grids", "array_derivative"),
    ("stencils", "axis_derivative"),
    ("io_export", "export_mesh"),
    ("io_export", "write_surface_csv"),
    ("io_export", "write_surface_table"),
    ("io_export", "write_report_csv"),
    ("reports", "residual_report"),
    ("cli", "main"),
)

# per-layer metrics a traced iteration reports: (metric, unit)
LAYER_METRICS = (
    ("quadrature.antiderivative_on_grid.self_s", "s"),
    ("quadrature.antiderivative_on_grid.calls", "count"),
    ("quadrature.integrand_nodes", "count"),
    ("catalog.eval_R.self_s", "s"),
    ("catalog.eval_R_deriv.self_s", "s"),
    ("generate.generate_conjugate_pair.self_s", "s"),
    ("generate.generate_conjugate_pair.peak_mb", "MB"),
    ("family.SolitonFamily.at.calls", "count"),
    ("family.SolitonFamily.at.self_s", "s"),
    ("family.wick_rotate.self_s", "s"),
    ("family.verify_soliton_relations.self_s", "s"),
    ("hodograph.helicoid_closed.self_s", "s"),
    ("hodograph.catenoid_closed.self_s", "s"),
    ("geometry.fundamental_form.calls", "count"),
    ("geometry.fundamental_form.self_s", "s"),
    ("geometry.theta_sweep_invariance.self_s", "s"),
    ("geometry.action.self_s", "s"),
    ("pde.chain_rule_partials.self_s", "s"),
    ("pde.born_infeld_residual.self_s", "s"),
    ("pde.boost.self_s", "s"),
    ("pde.minimal_surface_residual.self_s", "s"),
    ("pde.valid_fraction", "ratio"),
    ("grids.laplacian.self_s", "s"),
    ("grids.array_derivative.self_s", "s"),
    ("stencils.axis_derivative.self_s", "s"),
    ("io_export.export_mesh.self_s", "s"),
    ("io_export.write_surface_csv.self_s", "s"),
    ("io_export.bytes_written", "bytes"),
    ("io_export.mb_per_s", "MB/s"),
    ("reports.residual_report.self_s", "s"),
    ("cli.main.total_s", "s"),
)


def _resolve(module: str, attr: str):
    # sys.modules, not getattr(wesurf, ...): the package attribute
    # `wesurf.generate` is the function generate(), not the module
    obj = sys.modules[f"{MODULE_PREFIX}.{module}"]
    owner = None
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


class Tracer:
    """Spans and counters for one traced iteration."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, child_s]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == MODULE_PREFIX
                                         or k.startswith(MODULE_PREFIX + "."))]
        for module, attr in TRACED:
            owner, orig = _resolve(module, attr)
            wrapper = self._wrap(f"{module}.{attr}", orig)
            if "." in attr:  # a method: rebind on its class
                name = attr.rsplit(".", 1)[1]
                self._undo.append((owner, name, orig))
                setattr(owner, name, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            span = [name, time.perf_counter(), 0.0, parent, 0.0]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent][4] += span[2] - span[1]
        return wrapper

    # -- counters at the layer boundaries ---------------------------------

    def _hook_quadrature_antiderivative_on_grid(self, fn, args, kwargs):
        def counted(f):
            def g(z, *a, **k):
                self.counters["quadrature.integrand_nodes"] += int(np.size(z))
                return f(z, *a, **k)
            return g
        if args:
            args = (counted(args[0]),) + tuple(args[1:])
        else:
            kwargs = dict(kwargs, f=counted(kwargs["f"]))
        return fn(*args, **kwargs)

    def _hook_generate_generate_conjugate_pair(self, fn, args, kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            key = "generate.generate_conjugate_pair.peak_bytes"
            self.counters[key] = max(self.counters[key], peak)

    def _hook_pde_chain_rule_partials(self, fn, args, kwargs):
        patch = fn(*args, **kwargs)
        self.counters["pde.nodes"] += int(patch.valid_mask.size)
        self.counters["pde.retained"] += int(patch.valid_mask.sum())
        return patch

    def _written(self, fn, args, kwargs):
        path = fn(*args, **kwargs)
        self.counters["io_export.bytes_written"] += os.path.getsize(path)
        return path

    _hook_io_export_export_mesh = _written
    _hook_io_export_write_surface_csv = _written
    _hook_io_export_write_surface_table = _written
    _hook_io_export_write_report_csv = _written

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The LAYER_METRICS of the spans and counters recorded so far."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for name, start, end, _parent, child in self.spans:
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += end - start - child
        io_self = sum(v for k, v in self_s.items() if k.startswith("io_export."))
        written = self.counters["io_export.bytes_written"]
        nodes = self.counters["pde.nodes"]
        out = {}
        for metric, _unit in LAYER_METRICS:
            layer, stat = metric.rsplit(".", 1)
            if stat == "self_s":
                out[metric] = self_s[layer]
            elif stat == "total_s":
                out[metric] = total_s[layer]
            elif stat == "calls":
                out[metric] = float(calls[layer])
            elif metric == "generate.generate_conjugate_pair.peak_mb":
                out[metric] = self.counters[layer + ".peak_bytes"] / 2 ** 20
            elif metric == "pde.valid_fraction":
                out[metric] = self.counters["pde.retained"] / nodes if nodes else 0.0
            elif metric == "io_export.mb_per_s":
                out[metric] = written / 1e6 / io_self if io_self > 0 else 0.0
            else:
                out[metric] = float(self.counters[metric])
        return out
