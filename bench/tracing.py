"""Spans around calls into gwnet's modules, and the per-layer metrics
computed from them.

The tracer wraps every public function of the measured modules under each
name a gwnet module holds it by (for example gwnet.gw.solve_linear_ot and
gwnet.frechet.solve_gw), so calls made inside the library are recorded
too. Spans live in memory with their parent's id, are recorded only while
an op span is open, and are written out when the run ends. A span's self
time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import gwnet

# cli is left out: it is a thin argparse and file adapter over these calls
LAYERS = ("networks", "linear_ot", "gw", "alignment", "geodesics", "tangent",
          "frechet", "analysis", "experiments")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _is_uniform(v: np.ndarray) -> bool:
    return float(np.ptp(v)) <= 1e-12 * float(np.max(v))


def _linear_ot_attrs(args, kwargs, out) -> dict:
    prob = args[0] if args else kwargs["prob"]
    n, m = prob.cost.shape
    return {"cells": n * m, "uniform_square": n == m and _is_uniform(prob.p)
            and _is_uniform(prob.q)}


def _solve_gw_attrs(args, kwargs, out) -> dict:
    params = (args[2] if len(args) > 2 else kwargs.get("params")) \
        or gwnet.GwParams()
    report = out[1]
    return {"iterations": report.iterations, "converged": report.converged,
            "cap_hit": not report.converged
            and report.iterations >= params.max_outer_iters}


def _blow_up_attrs(args, kwargs, out) -> dict:
    n, m = args[2].shape
    return {"size": out.size, "forest": n + m - 1}


def _frechet_mean_attrs(args, kwargs, out) -> dict:
    return {"iterations": out.iterations, "base_size": out.network.size}


ATTRS = {"solve_linear_ot": _linear_ot_attrs, "solve_gw": _solve_gw_attrs,
         "blow_up": _blow_up_attrs, "frechet_mean": _frechet_mean_attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, layer, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, index: int):
        span = self._open("op", "op")
        span.attrs["index"] = index
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, layer: str):
        attrs = ATTRS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(fn.__name__, layer)
            try:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    span.attrs.update(attrs(args, kwargs, out))
                return out
            finally:
                self._close(span)
        return traced

    @contextmanager
    def installed(self):
        """Replace every public function of the measured layers, under each
        name gwnet's modules hold it by, with a traced wrapper."""
        modules = [gwnet] + [importlib.import_module(f"gwnet.{name}")
                             for name in LAYERS]
        wrappers, saved = {}, []
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType) \
                        or name.startswith("_"):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("gwnet.") \
                        or layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, layer)
                saved.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])
        try:
            yield
        finally:
            for mod, name, obj in saved:
                setattr(mod, name, obj)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent,
                                     "name": s.name, "layer": s.layer,
                                     "start": s.start, "end": s.end,
                                     "attrs": s.attrs}) + "\n")


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _frac(flags) -> float:
    return _mean([1.0 if f else 0.0 for f in flags])


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics, name -> (value, unit). Layers a workload does not
    reach report 0."""
    by_id = {s.id: s for s in spans}
    covered = {s.id: 0.0 for s in spans}
    children: dict[int, list[Span]] = {s.id: [] for s in spans}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
            children[s.parent].append(s)

    def self_s(layer: str) -> float:
        return sum(s.duration - covered[s.id] for s in spans
                   if s.layer == layer)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def returned(name: str) -> list[Span]:
        # attributes are recorded only when the call returned
        return [s for s in named(name) if s.attrs]

    def ancestors(s: Span):
        while s.parent is not None:
            s = by_id[s.parent]
            yield s.name

    lp = returned("solve_linear_ot")
    solves = returned("solve_gw")
    blowups = returned("blow_up")
    means = returned("frechet_mean")
    ops = named("op")
    op_time = sum(s.duration for s in ops)
    linesearch = [s for s in named("solve_gw")
                  if "frechet_mean" in (names := set(ancestors(s)))
                  and "frechet_gradient" not in names]
    return {
        "linear_ot.calls": (len(named("solve_linear_ot")), "count"),
        "linear_ot.self_s": (self_s("linear_ot"), "s"),
        "linear_ot.call_ms_p50": (
            1e3 * statistics.median(s.duration for s in lp) if lp else 0.0,
            "ms"),
        "linear_ot.uniform_square_frac": (
            _frac(s.attrs["uniform_square"] for s in lp), "fraction"),
        "linear_ot.cells_mean": (_mean([s.attrs["cells"] for s in lp]),
                                 "cells"),
        "gw.solves": (len(named("solve_gw")), "count"),
        "gw.self_s": (self_s("gw"), "s"),
        "gw.fw_iters_per_solve": (
            _mean([s.attrs["iterations"] for s in solves]), "count"),
        "gw.cap_hit_frac": (_frac(s.attrs["cap_hit"] for s in solves),
                            "fraction"),
        "gw.converged_frac": (_frac(s.attrs["converged"] for s in solves),
                              "fraction"),
        "alignment.self_s": (self_s("alignment"), "s"),
        "alignment.round_lp_calls": (
            sum(any(c.name == "solve_linear_ot" for c in children[s.id])
                for s in named("to_vertex_coupling")), "count"),
        "alignment.support_ratio": (
            _mean([s.attrs["size"] / s.attrs["forest"] for s in blowups]),
            "ratio"),
        "alignment.blowup_size_mean": (
            _mean([s.attrs["size"] for s in blowups]), "nodes"),
        "tangent.self_s": (self_s("tangent"), "s"),
        "geodesics.self_s": (self_s("geodesics"), "s"),
        "networks.io_s": (sum(s.duration for s in spans
                              if s.name in ("read_network", "write_network")),
                          "s"),
        "frechet.iters_per_mean": (
            _mean([s.attrs["iterations"] for s in means]), "count"),
        "frechet.gradient_s": (
            sum(s.duration for s in named("frechet_gradient")), "s"),
        "frechet.linesearch_solves": (len(linesearch), "count"),
        "frechet.base_size_final": (
            _mean([s.attrs["base_size"] for s in means]), "nodes"),
        "frechet.self_s": (self_s("frechet"), "s"),
        "analysis.vectorize_s": (
            sum(s.duration for s in named("vectorize_at_base")), "s"),
        "analysis.pca_s": (sum(s.duration for s in named("tangent_pca")), "s"),
        "experiments.self_s": (self_s("experiments"), "s"),
        "trace.unattributed_frac": (
            sum(s.duration - covered[s.id] for s in ops) / op_time
            if op_time > 0 else 0.0, "fraction"),
    }
