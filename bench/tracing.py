"""Per-layer spans recorded from outside the program.

Every public function and method of the blendnet modules is wrapped, and the
wrapper is installed on each module attribute that binds it (``cli`` imports
``validate`` as ``validate_weights``, ``analysis`` imports ``simulate``, ...),
so a call through any of those names is seen.  Spans are held in memory and
reduced to per-op metrics after the op.  Dense eigensolves of numpy and scipy
are counted and timed on the side: they do not split a layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass, replace
from types import ModuleType

LAYERS = ("graph", "weights", "spectral", "simulator", "analysis", "apps", "cli")
WEIGHT_BUILDERS = ("metropolis_hastings", "pagerank_coupling", "average_coupling")
NEIGHBOR_QUERIES = ("DirectedGraph.in_neighbors", "DirectedGraph.out_neighbors")
EIGENSOLVERS = ("eig", "eigvals", "eigh", "eigvalsh")

# metric name -> (layer, qualified names whose spans it sums)
SPAN_METRICS = {
    "graph.generate_connected": ("graph", ("generate_connected",)),
    "graph.is_strongly_connected": ("graph", ("is_strongly_connected",)),
    "weights.build": ("weights", WEIGHT_BUILDERS),
    "weights.validate": ("weights", ("validate",)),
    "spectral.perron_pair": ("spectral", ("perron_pair",)),
    "spectral.decompose": ("spectral", ("decompose",)),
    "simulator.simulate": ("simulator", ("simulate",)),
    "simulator.node_step": ("simulator", ("node_step",)),
    "simulator.coupling_step": ("simulator", ("coupling_step",)),
    "simulator.blended_step": ("simulator", ("blended_step",)),
    "simulator.state_at": ("simulator", ("SimulationTrace.state_at",)),
    "simulator.trace_to_csv": ("simulator", ("trace_to_csv",)),
    "simulator.blended_to_csv": ("simulator", ("blended_to_csv",)),
    "analysis.kmin_empirical": ("analysis", ("kmin_empirical",)),
    "analysis.measure_tail_error": ("analysis", ("measure_tail_error",)),
    "analysis.error_report": ("analysis", ("error_report",)),
    "analysis.fraction_identities": ("analysis", ("fraction_identities",)),
    "analysis.contraction_affine": ("analysis", ("contraction_affine",)),
    "cli.load_scenario": ("cli", ("load_scenario",)),
}


@dataclass(frozen=True)
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op_id: int


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """Spans and counters of the ops run while the wrappers are installed."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: dict[tuple[int, str], float] = {}
        self.measure_memory = False
        self._installed: list[tuple[object, str, object]] = []
        self.wrapped_names: set[str] = set()
        self._in_eigensolve = False

    def count(self, key: str, amount: float = 1):
        k = (self.op_id, key)
        self.counters[k] = self.counters.get(k, 0) + amount

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, layer: str, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = Span(layer, name, start, end, parent, tracer.op_id)
            return result

        return wrapper

    def _simulate_wrapper(self, span_wrapped):
        tracer = self

        @functools.wraps(span_wrapped)
        def simulate(*args, **kwargs):
            if tracer.measure_memory:
                tracemalloc.start()
            try:
                trace = span_wrapped(*args, **kwargs)
            finally:
                if tracer.measure_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    key = (tracer.op_id, "trace_peak_bytes")
                    tracer.counters[key] = max(tracer.counters.get(key, 0), peak)
            tracer.count("segments", len(trace.segments))
            tracer.count("trace_records", len(getattr(trace, "records", ())))
            return trace

        return simulate

    def _eigensolve_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def eigensolve(a, *args, **kwargs):
            if tracer._in_eigensolve or getattr(a, "ndim", 0) != 2 or a.shape[0] < 2:
                return fn(a, *args, **kwargs)
            tracer._in_eigensolve = True
            start = time.perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer._in_eigensolve = False
                tracer.count("eigensolve.calls")
                tracer.count("eigensolve.s", time.perf_counter() - start)

        return eigensolve

    def _counting_init(self, fn):
        tracer = self

        @functools.wraps(fn)
        def post_init(obj):
            tracer.count("states_built")
            return fn(obj)

        return post_init

    def _bind(self, owner, attr: str, wrapper):
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, package: ModuleType):
        """Wrap the package's public functions wherever a module binds them."""
        import numpy.linalg
        import scipy.linalg

        prefix = package.__name__
        modules = [m for name, m in sorted(sys.modules.items()) if name == prefix or name.startswith(prefix + ".")]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{prefix}.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapper = self._span_wrapper(obj, layer, name)
                    if name == "simulate":
                        wrapper = self._simulate_wrapper(wrapper)
                    wrapped[id(obj)] = wrapper
                    self.wrapped_names.add(name)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj, layer)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._bind(mod, name, wrapped[id(obj)])
        state_cls = getattr(sys.modules[f"{prefix}.simulator"], "NetworkState", None)
        if state_cls is not None:
            self._bind(state_cls, "__post_init__", self._counting_init(state_cls.__post_init__))
        for lib in (numpy.linalg, scipy.linalg):
            for name in EIGENSOLVERS:
                self._bind(lib, name, self._eigensolve_wrapper(getattr(lib, name)))

    def _wrap_methods(self, cls, layer: str):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qualified = f"{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                self._bind(cls, name, classmethod(self._span_wrapper(attr.__func__, layer, qualified)))
            elif inspect.isfunction(attr) and not inspect.isgeneratorfunction(attr):
                self._bind(cls, name, self._span_wrapper(attr, layer, qualified))
            else:
                continue
            self.wrapped_names.add(qualified)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def op_metrics(self, op_id: int) -> dict[str, float]:
        """Per-layer metrics of one op (counts, inclusive and self seconds)."""
        mine = [i for i, s in enumerate(self.spans) if s is not None and s.op_id == op_id]
        local = {i: k for k, i in enumerate(mine)}
        # re-point parents into the op's own list; a parent outside the op is a root
        spans = [replace(self.spans[i], parent=local.get(self.spans[i].parent, -1)) for i in mine]
        selfs = self_times(spans)
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for s, st in zip(spans, selfs):
            out[f"{s.layer}.self_s"] += st
        for metric, (layer, names) in SPAN_METRICS.items():
            picked = [s for s in spans if s.layer == layer and s.name in names]
            out[f"{metric}.calls"] = len(picked)
            out[f"{metric}.s"] = sum(s.end - s.start for s in picked)
        out["graph.neighbor_queries"] = sum(1 for s in spans if s.name in NEIGHBOR_QUERIES)

        def has_kmin_ancestor(k: int) -> bool:
            k = spans[k].parent
            while k >= 0:
                if spans[k].name == "kmin_empirical":
                    return True
                k = spans[k].parent
            return False

        out["analysis.kmin_probes"] = sum(
            1 for k, s in enumerate(spans) if s.name == "simulate" and has_kmin_ancestor(k)
        )

        def counter(key: str) -> float:
            return self.counters.get((op_id, key), 0)

        segments = counter("segments")
        out["spectral.eigensolve.calls"] = counter("eigensolve.calls")
        out["spectral.eigensolve.s"] = counter("eigensolve.s")
        out["weights.builds_per_segment"] = out["weights.build.calls"] / segments if segments else 0.0
        out["spectral.eigensolves_per_segment"] = out["spectral.eigensolve.calls"] / segments if segments else 0.0
        out["simulator.states_built"] = counter("states_built")
        out["simulator.trace_records"] = counter("trace_records")
        out["simulator.trace_peak_bytes"] = counter("trace_peak_bytes")
        return out
