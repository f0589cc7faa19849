"""Span tracer that wraps hardylab's public functions from outside the package.

The program itself carries no instrumentation.  While a :class:`Tracer` is
installed it replaces, in every ``hardylab`` module namespace that holds
them, the runners of ``experiments``, the five estimators of ``norms``,
``eval_ic`` and ``t2_hardy_vs_bound`` of ``witnesses``,
``density_experiment`` of ``reinhardt`` and ``refine_until`` of
``quadrature`` with wrappers that

* open a span (name, start, end, parent span, trace id; one trace id per
  top-level call such as a runner call) kept in memory;
* wrap the integrand handed to each ``norms`` estimator, counting the grid
  points it is evaluated on and the seconds spent inside it (``eval_s``);
* wrap the integrator handed to ``refine_until``, recording the node counts
  of every level it visits.

For every ``refine_until`` call under a ``norms`` estimator the integrand's
point count must equal the sum over levels of the node-count products;
:meth:`Tracer.per_layer` reports how many calls were checked and how many
disagreed.  ``hardy_norm_reinhardt`` runs its own doubling loop, so its
levels are not observable from outside and are recorded as unavailable.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

RUNNERS = ("run_uniform_bound", "run_blowup", "run_ic_asymptotics",
           "run_reinhardt", "run_density")
# Estimators whose first argument is the integrand callable.
INTEGRAND_ESTIMATORS = ("bergman_norm_disc", "hardy_norm_disc",
                        "bergman_norm_reinhardt", "hardy_norm_reinhardt",
                        "monotonicity_check")
# Estimators that integrate inline; their points are the refinement nodes.
NODE_ESTIMATORS = ("eval_ic", "t2_hardy_vs_bound")
# Metrics reported per traced function, besides the runners' and
# refine_until's.
LAYER_FIELDS = {
    "norms.bergman_norm_disc": ("calls", "points", "s", "eval_s",
                                "budget_hits"),
    "norms.hardy_norm_disc": ("calls", "points", "s", "eval_s", "rungs_mean",
                              "budget_hits"),
    "norms.bergman_norm_reinhardt": ("calls", "points", "s", "eval_s",
                                     "budget_hits"),
    "norms.hardy_norm_reinhardt": ("calls", "points", "s", "eval_s"),
    "norms.monotonicity_check": ("calls", "points", "s"),
    "witnesses.eval_ic": ("calls", "points", "s"),
    "witnesses.t2_hardy_vs_bound": ("calls", "points", "s"),
    "reinhardt.density_experiment": ("calls", "s"),
}


class _CountedIntegrand:
    """Integrand wrapper: counts evaluation points and seconds inside."""

    __slots__ = ("fn", "spike", "tracer", "stat")

    def __init__(self, fn, tracer, stat):
        self.fn = fn
        self.spike = getattr(fn, "spike", None)
        self.tracer = tracer
        self.stat = stat

    def __call__(self, *z):
        n = math.prod(np.broadcast_shapes(*(np.shape(a) for a in z)))
        t0 = perf_counter()
        out = self.fn(*z)
        self.stat["eval_s"] += perf_counter() - t0
        self.stat["points"] += n
        if self.tracer.frames:
            self.tracer.frames[-1]["points"] += n
        return out


class Tracer:
    """In-memory spans and per-function counters for one benchmark run."""

    def __init__(self):
        self.spans = []          # [id, name, start, end, parent, trace]
        self.stats = defaultdict(lambda: defaultdict(int))
        self.calls = []          # one record per estimator call
        self.refines = []        # one record per refine_until call
        self.frames = []         # open refine_until calls
        self._open = []          # open span ids
        self._owners = []        # open estimator call records
        self._traces = 0
        self._patches = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        if parent is None:
            trace = self._traces
            self._traces += 1
        else:
            trace = self.spans[parent][5]
        rec = [len(self.spans), name, perf_counter(), None, parent, trace]
        self.spans.append(rec)
        self._open.append(rec[0])
        try:
            yield rec
        finally:
            rec[3] = perf_counter()
            self._open.pop()
            st = self.stats[name]
            st["calls"] += 1
            st["s"] += rec[3] - rec[2]

    # -- wrappers ----------------------------------------------------------

    def _wrap_span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _wrap_estimator(self, name, fn, integrand):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self.stats[name]
            if integrand:
                args = (_CountedIntegrand(args[0], self, st), *args[1:])
            # hardy_norm_reinhardt doubles its grids in its own loop, out of
            # sight of refine_until: its levels are unknown, not empty.
            call = {"name": name, "span": None, "points": st["points"],
                    "levels": None if name == "norms.hardy_norm_reinhardt"
                    else []}
            self._owners.append(call)
            try:
                with self.span(name) as rec:
                    call["span"] = rec[0]
                    out = fn(*args, **kwargs)
            finally:
                self._owners.pop()
            call["points"] = st["points"] - call["points"]
            self.calls.append(call)
            if name == "norms.hardy_norm_disc":
                st["rungs"] += len(out.ladder)
            return out
        return wrapper

    def _wrap_refine(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            integrator = bound.arguments["integrator"]
            frame = {"nodes": [], "points": 0}

            def counted(level):
                value, nodes = integrator(level)
                nodes = tuple(int(m) for m in nodes)
                frame["nodes"].append(nodes)
                return value, nodes

            bound.arguments["integrator"] = counted
            owner = self._owners[-1] if self._owners else None
            self.frames.append(frame)
            try:
                with self.span("quadrature.refine_until"):
                    rep = fn(*bound.args, **bound.kwargs)
            finally:
                self.frames.pop()
            self._record_refine(owner, frame, rep, bound.arguments["cap"])
            return rep
        return wrapper

    def _record_refine(self, owner, frame, rep, cap):
        node_points = [math.prod(n) for n in frame["nodes"]]
        total = sum(node_points)
        hit = bool(not rep.converged and node_points and node_points[-1] >= cap
                   and np.isfinite(rep.value))
        name = owner["name"] if owner else None
        counts_integrand = name is not None and name.startswith("norms.")
        self.refines.append({
            "owner_span": owner["span"] if owner else None,
            "levels": int(rep.levels), "node_points": node_points,
            "integrand_points": frame["points"] if counts_integrand else None,
            "budget_hit": hit})
        st = self.stats["quadrature.refine_until"]
        st["points"] += total
        st["levels"] += rep.levels
        st["level1"] += rep.levels == 1
        st["confirm_points"] += node_points[-1] if node_points else 0
        st["budget_hits"] += hit
        if counts_integrand:
            st["checked"] += 1
            st["mismatches"] += frame["points"] != total
        if owner is not None:
            owner["levels"].append(int(rep.levels))
            self.stats[name]["budget_hits"] += hit
            if not counts_integrand:
                self.stats[name]["points"] += total

    # -- installation ------------------------------------------------------

    def _patch(self, module, attr, make):
        orig = getattr(module, attr)
        wrapper = make(orig)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "hardylab":
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, orig))

    @contextmanager
    def installed(self, hl):
        """Wrap the traced functions for the duration of the block."""
        try:
            for name in RUNNERS:
                self._patch(hl.experiments, name, functools.partial(
                    self._wrap_span, f"experiments.{name}"))
            for name in INTEGRAND_ESTIMATORS:
                self._patch(hl.norms, name, functools.partial(
                    self._wrap_estimator, f"norms.{name}", integrand=True))
            for name in NODE_ESTIMATORS:
                self._patch(hl.witnesses, name, functools.partial(
                    self._wrap_estimator, f"witnesses.{name}",
                    integrand=False))
            self._patch(hl.reinhardt, "density_experiment", functools.partial(
                self._wrap_span, "reinhardt.density_experiment"))
            self._patch(hl.quadrature, "refine_until", self._wrap_refine)
            yield self
        finally:
            for mod, key, orig in reversed(self._patches):
                setattr(mod, key, orig)
            self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per span name not covered by its child spans."""
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            out[name] += (end - start) - child[sid]
        return out

    def per_layer(self, reps: int) -> dict:
        """Per-layer metrics per table (totals divided by ``reps``)."""
        st = self.stats
        self_s = self.self_times()
        out = {}

        def total(name, value, unit):
            value /= reps
            if unit == "count" and float(value).is_integer():
                value = int(value)
            out[name] = {"value": value, "unit": unit}

        def ratio(name, num, den, unit):
            out[name] = {"value": num / den if den else 0.0, "unit": unit}

        for name in RUNNERS:
            key = f"experiments.{name}"
            total(f"{key}.s", st[key]["s"], "s")
            total(f"{key}.self_s", self_s[key], "s")
        for key, names in LAYER_FIELDS.items():
            for f in names:
                if f == "rungs_mean":
                    ratio(f"{key}.{f}", st[key]["rungs"], st[key]["calls"],
                          "count")
                else:
                    total(f"{key}.{f}", st[key][f],
                          "s" if f in ("s", "eval_s") else "count")
        key = "quadrature.refine_until"
        q = st[key]
        total(f"{key}.calls", q["calls"], "count")
        total(f"{key}.points", q["points"], "count")
        ratio(f"{key}.levels_mean", q["levels"], q["calls"], "count")
        ratio(f"{key}.level1_share", q["level1"], q["calls"], "ratio")
        ratio(f"{key}.confirm_point_share", q["confirm_points"], q["points"],
              "ratio")
        total(f"{key}.budget_hits", q["budget_hits"], "count")
        total("trace.spans", len(self.spans), "count")
        total("trace.selfcheck_checked", q["checked"], "count")
        total("trace.selfcheck_mismatches", q["mismatches"], "count")
        return out
