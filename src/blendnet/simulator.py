"""Multi-step coupling execution over fractional time, with a blended reference.

One macro round at integer count t runs the heterogeneous node maps once and
then applies the linear coupling K-1 times; the fractional index t_k = t + k/K
labels the sub-steps.  Alongside the network, the blended reference

    s[t+1] = sum_i q_i f_i(t, p_i s[t])

is integrated from s[1] = sum_i q_i f_i(0, x_i[0]), and re-seeded the same way
after every membership event.

The K-independent part of a run is planned once by :func:`plan_segments`: the
event script is applied to the graph up front and every membership window is
configured (weights, validation, Perron pair, decomposition, dynamics and
blended map) before any round runs.
"""

from __future__ import annotations

import functools
import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, TextIO

import numpy as np

from .graph import DirectedGraph, GraphError, Join, mutate, serialize_edge_list
# is_strongly_connected is unused here (the weight builders check connectivity), but
# bench/tests/test_bench.py::test_tracer_binds_every_alias_and_restores_them reads the name
from .graph import is_strongly_connected  # noqa: F401
from .spectral import PerronPair, SpectralDecomposition, decompose, perron_pair
from .weights import (
    WeightError,
    WeightMatrix,
    WeightReport,
    average_coupling,
    metropolis_hastings,
    pagerank_coupling,
    validate,
)


class SimulationError(RuntimeError):
    """Runtime/numerical failure while executing a scenario."""


class AssumptionViolation(ValueError):
    """A structural assumption failed, at start or after a membership event."""


@dataclass(frozen=True)
class NodeDynamics:
    """Per-agent update map x <- f(t, x) with declared growth metadata.

    ``lipschitz`` bounds ||f(t,x) - f(t,y)|| / ||x - y|| and ``bound`` is a
    non-decreasing r -> M(r) with ||f(t,x)|| <= M(r) whenever ||x|| <= r.
    Both are declarations, spot-checkable but not provable.  For affine maps
    built via :func:`affine_dynamics` they are derived automatically and the
    coefficients are kept for symbolic analysis.
    """

    update: Callable[[int, np.ndarray], np.ndarray]
    lipschitz: float
    bound: Callable[[float], float]
    affine: tuple[np.ndarray, np.ndarray] | None = None


def affine_dynamics(a, b) -> NodeDynamics:
    """Node map f(t, x) = a x + b for scalar or square-matrix a."""
    a_mat = np.atleast_2d(np.asarray(a, dtype=float))
    b_vec = np.atleast_1d(np.asarray(b, dtype=float))
    if a_mat.shape[0] != a_mat.shape[1] or a_mat.shape[0] != b_vec.shape[0]:
        raise ValueError("affine coefficients have inconsistent shapes")
    a_mat.setflags(write=False)
    b_vec.setflags(write=False)
    gain = float(np.linalg.norm(a_mat, 2))
    offset = float(np.linalg.norm(b_vec))
    return NodeDynamics(
        update=lambda t, x: a_mat @ x + b_vec,
        lipschitz=gain,
        bound=lambda r: gain * r + offset,
        affine=(a_mat, b_vec),
    )


@dataclass(frozen=True)
class BlendedDynamics:
    """The q-weighted average s -> sum_i q_i f_i(t, p_i s) of the node maps."""

    step: Callable[[int, np.ndarray], np.ndarray]
    affine: tuple[np.ndarray, np.ndarray] | None = None


def build_blended(dynamics, pair: PerronPair) -> BlendedDynamics:
    """Assemble the blended map from node dynamics and a Perron pair."""
    maps = tuple(dynamics)
    p = pair.p
    q = pair.q
    if len(maps) != len(p):
        raise ValueError("one dynamics entry per node required")

    def step(t: int, s: np.ndarray) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        acc = np.zeros_like(s)
        for qi, pi, d in zip(q, p, maps):
            acc = acc + qi * d.update(t, pi * s)
        return acc

    affine = None
    if all(d.affine is not None for d in maps):
        a_s = sum(qi * pi * d.affine[0] for qi, pi, d in zip(q, p, maps))
        b_s = sum(qi * d.affine[1] for qi, d in zip(q, maps))
        affine = (np.asarray(a_s, dtype=float), np.asarray(b_s, dtype=float))
    return BlendedDynamics(step, affine)


@dataclass(frozen=True)
class NetworkState:
    """Per-node states in sorted node-id order; ``values`` has shape (N, n)."""

    ids: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ids", tuple(int(v) for v in self.ids))
        if values.shape[0] != len(self.ids):
            raise ValueError("state row count does not match node count")


def node_step(values: np.ndarray, t: int, dynamics) -> np.ndarray:
    """Apply x_i <- f_i(t, x_i) to every row of the (N, n) state."""
    maps = tuple(dynamics)
    if len(maps) != len(values):
        raise SimulationError("one dynamics entry per node required")
    new = np.array([d.update(t, x) for d, x in zip(maps, values)], dtype=float)
    return new.reshape(values.shape)


def coupling_step(values: np.ndarray, w: WeightMatrix | np.ndarray) -> np.ndarray:
    """Apply the weighted averaging x_i <- sum_j w_ij x_j once to the (N, n) state.

    ``w`` is a coupling matrix or an (N, N) array such as its power W^(K-1),
    which applies a round's K-1 coupling sub-steps in one product.
    """
    entries = w.entries if isinstance(w, WeightMatrix) else w
    if entries.shape[0] != len(values):
        raise SimulationError("weight matrix does not match the state dimension")
    return entries @ values


def blended_step(s: np.ndarray, t: int, bd: BlendedDynamics) -> np.ndarray:
    return bd.step(t, s)


@dataclass(frozen=True)
class TransformedState:
    """Consensus coordinate xi1 = (q' (x) I) xbar and complement xitilde = (Z' (x) I) xbar."""

    xi1: np.ndarray
    xitilde: np.ndarray  # shape (N-1, n)


def transform(state: NetworkState, dec: SpectralDecomposition) -> TransformedState:
    x = state.values
    if x.shape[0] != dec.n:
        raise ValueError("state and decomposition dimensions differ")
    return TransformedState(dec.pair.q @ x, dec.Z.T @ x)


@dataclass(frozen=True)
class InitialCondition:
    """How node states at t=0 are produced; joining nodes always start at zero."""

    kind: str = "zeros"  # zeros | constant | box | explicit
    constant: float = 0.0
    low: float = 0.0
    high: float = 0.0
    values: tuple[tuple[int, tuple[float, ...]], ...] = ()

    def materialize(self, ids, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "zeros":
            return np.zeros((len(ids), n))
        if self.kind == "constant":
            return np.full((len(ids), n), float(self.constant))
        if self.kind == "box":
            return rng.uniform(self.low, self.high, size=(len(ids), n))
        if self.kind == "explicit":
            lookup = {int(k): np.asarray(v, dtype=float) for k, v in self.values}
            missing = [v for v in ids if v not in lookup]
            if missing:
                raise AssumptionViolation(f"explicit initial state missing nodes {missing}")
            return np.array([lookup[v] for v in ids], dtype=float).reshape(len(ids), n)
        raise AssumptionViolation(f"unknown initial condition kind {self.kind!r}")

    @property
    def radius(self) -> float:
        """Largest norm of a node's scalar (n = 1) initial state; explicit
        values count their full vector norm."""
        if self.kind == "zeros":
            return 0.0
        if self.kind == "constant":
            return abs(self.constant)
        if self.kind == "box":
            return max(abs(self.low), abs(self.high))
        if self.kind == "explicit":
            return max((float(np.linalg.norm(v)) for _, v in self.values), default=0.0)
        raise AssumptionViolation(f"unknown initial condition kind {self.kind!r}")


def initial_zeros() -> InitialCondition:
    return InitialCondition("zeros")


def initial_constant(c: float) -> InitialCondition:
    return InitialCondition("constant", constant=c)


def initial_box(low: float, high: float) -> InitialCondition:
    return InitialCondition("box", low=low, high=high)


def initial_explicit(mapping) -> InitialCondition:
    values = tuple(sorted((int(k), tuple(np.atleast_1d(v).astype(float))) for k, v in dict(mapping).items()))
    return InitialCondition("explicit", values=values)


@dataclass(frozen=True)
class Scenario:
    """Complete, replayable description of one run.

    ``dynamics_builder`` maps the current graph to one NodeDynamics per node in
    sorted-id order; it is re-invoked after every membership event so maps that
    depend on degrees or on the anchor stay consistent.
    """

    graph: DirectedGraph
    coupling: str
    parameter: float
    dynamics_builder: Callable[[DirectedGraph], list[NodeDynamics]]
    K: int
    horizon: int
    initial: InitialCondition = field(default_factory=initial_zeros)
    events: tuple[tuple[int, object], ...] = ()
    record: str = "all"  # all | integer
    seed: int = 0
    n: int = 1
    anchor: int | None = None
    tail_fraction: float = 0.25

    def describe(self) -> str:
        """Canonical text used for hashing and determinism checks."""
        parts = [
            "graph:\n" + serialize_edge_list(self.graph),
            f"coupling={self.coupling} parameter={self.parameter!r}",
            f"K={self.K} horizon={self.horizon} n={self.n} seed={self.seed}",
            f"record={self.record} anchor={self.anchor} tail={self.tail_fraction!r}",
            f"initial={self.initial!r}",
            "events=" + ";".join(f"{t}:{ev!r}" for t, ev in self.events),
        ]
        return "\n".join(parts)

    @functools.cached_property
    def digest(self) -> str:
        """First 16 hex digits of the SHA-256 of :meth:`describe`, computed once per scenario."""
        return hashlib.sha256(self.describe().encode()).hexdigest()[:16]


def scenario_hash(scenario: Scenario) -> str:
    return scenario.digest


@dataclass(frozen=True)
class Segment:
    """Integer counts [t_start, t_end] with constant membership, configured once (K-independent)."""

    t_start: int
    t_end: int
    graph: DirectedGraph
    weights: WeightMatrix
    report: WeightReport
    pair: PerronPair
    decomposition: SpectralDecomposition
    dynamics: tuple[NodeDynamics, ...]
    blended: BlendedDynamics
    events: tuple  # membership events applied at t_start


@dataclass
class SimulationTrace:
    """Dense record of one run.

    ``states[i]`` belongs to ``segments[i]``: a read-only array of shape
    (rounds, K_rec, N, n) whose entry [r, k] is the state at fractional time
    (t_start + r) + k/K, with K_rec = K for ``record = "all"`` and 1 for
    ``record = "integer"``.  Row 0 of a later segment is the state after its
    membership events.  ``final`` is the (N, n) state at t = horizon, and row
    t-1 of the (horizon, n) array ``blended`` is the reference s[t].
    """

    scenario: Scenario
    states: tuple[np.ndarray, ...]
    final: np.ndarray
    blended: np.ndarray
    events_applied: list[tuple[int, object]]
    segments: tuple[Segment, ...]

    def _segment_index(self, t: int) -> int:
        return bisect_right([seg.t_start for seg in self.segments], t) - 1

    def state_at(self, t: int, k: int = 0) -> NetworkState:
        if t == self.scenario.horizon and k == 0:
            return NetworkState(self.segments[-1].graph.nodes, self.final)
        i = self._segment_index(t)
        if i >= 0:
            block = self.states[i]
            r = t - self.segments[i].t_start
            if r < len(block) and 0 <= k < block.shape[1]:
                return NetworkState(self.segments[i].graph.nodes, block[r, k])
        raise KeyError(f"no record at (t={t}, k={k})")

    def blended_at(self, t: int) -> np.ndarray:
        if not 1 <= t <= len(self.blended):
            raise KeyError(f"no blended value at t={t}")
        return self.blended[t - 1]

    def fractions(self, seg: Segment) -> tuple[np.ndarray, np.ndarray]:
        """The segment's recorded sub-steps and the integer states they lead to.

        Covers the rounds t = t_start..t_end-1 whose next integer count is in
        the same membership window.  Returns x[t_k] for k = 1..K-1, shape
        (rounds, K-1, N, n), and x[t+1], shape (rounds, N, n); ``rounds`` is 0
        when the trace kept no fraction counts.
        """
        i = self._segment_index(seg.t_start)
        block = self.states[i]
        nxt = block[1:, 0]
        if i == len(self.states) - 1:
            nxt = np.concatenate([nxt, self.final[None]])
        rounds = seg.t_end - seg.t_start if block.shape[1] > 1 else 0
        return block[:rounds, 1:], nxt[:rounds]


def _build_weights(scenario: Scenario, g: DirectedGraph) -> WeightMatrix:
    # the three constructors check (strong) connectivity themselves
    if scenario.coupling == "metropolis_hastings":
        return metropolis_hastings(g, scenario.parameter)
    if scenario.coupling == "pagerank":
        return pagerank_coupling(g, scenario.parameter)
    if scenario.coupling == "average":
        return average_coupling(g, scenario.parameter)
    raise AssumptionViolation(f"unknown coupling kind {scenario.coupling!r}")


def _configure(scenario: Scenario, g: DirectedGraph, t_start: int, t_end: int, events: tuple) -> Segment:
    """Apply the window's events to ``g`` and configure the window; raise with time context."""
    protected = (scenario.anchor,) if scenario.anchor is not None else ()
    try:
        for ev in events:
            g = mutate(g, ev, protected=protected)
        if g.n == 0:
            raise AssumptionViolation("graph has no nodes")
        w = _build_weights(scenario, g)
        report = validate(w, g)
        if not report.ok:
            raise AssumptionViolation("weight validation failed: " + "; ".join(report.violations))
        pair = perron_pair(w, magnitudes=report.magnitudes)
        dynamics = tuple(scenario.dynamics_builder(g))
        if len(dynamics) != g.n:
            raise AssumptionViolation("dynamics builder returned a wrong-sized list")
        if any(d.affine is not None and len(d.affine[1]) != scenario.n for d in dynamics):
            raise AssumptionViolation(f"a node map's state dimension differs from n={scenario.n}")
    except (GraphError, WeightError, AssumptionViolation) as exc:
        raise AssumptionViolation(f"t={t_start}: {exc}") from exc
    dec = decompose(w, pair)
    return Segment(t_start, t_end, g, w, report, pair, dec, dynamics, build_blended(dynamics, pair), events)


def plan_segments(scenario: Scenario) -> tuple[Segment, ...]:
    """Apply the event script and configure every membership window, once.

    The plan does not depend on K, so one plan serves every sub-step count;
    an event that breaks an assumption fails here, before any round runs.
    """
    if scenario.horizon < 0:
        raise AssumptionViolation("horizon must be >= 0")
    if list(scenario.events) != sorted(scenario.events, key=lambda ev: ev[0]):
        raise AssumptionViolation("events must be sorted by time")
    by_time: dict[int, tuple] = {}
    for t_ev, ev in scenario.events:
        if not 1 <= t_ev <= scenario.horizon - 1:
            raise AssumptionViolation(f"event time {t_ev} outside [1, horizon-1]")
        by_time[t_ev] = by_time.get(t_ev, ()) + (ev,)
    starts = [0, *by_time]
    ends = [t - 1 for t in starts[1:]] + [scenario.horizon]
    segments = []
    g = scenario.graph
    for t, t_end in zip(starts, ends):
        segments.append(_configure(scenario, g, t, t_end, by_time.get(t, ())))
        g = segments[-1].graph
    return tuple(segments)


# A dense N x N matmul costs about N / _BLAS3_GAIN matvecs of an (N, 1) state.
# Timed with one BLAS thread on a shared 2-core x86_64 host, in two timing runs:
# at N = 600, 8.3-11.3 ms against 0.10-0.13 ms (80-88 matvecs); at N = 200,
# 0.34-0.7 ms against 8-43 us (16-43 matvecs).  8 fits N in the hundreds to
# within a factor of two.
_BLAS3_GAIN = 8


def _power_pays(m: int, n_nodes: int, rounds: int) -> bool:
    """Whether W^m by repeated squaring beats ``rounds`` chains of m matvecs.

    The power takes bit_length(m) + popcount(m) - 2 matmuls.
    """
    return m >= 2 and (m.bit_length() + bin(m).count("1") - 2) * n_nodes < _BLAS3_GAIN * rounds * m


def _matrix_power(w: np.ndarray, m: int) -> np.ndarray:
    """W^m, m >= 1, by squaring from the leading bit of m.

    Each square is followed by one product with W for a set bit, so only the
    running power and the product being formed are alive beside W.
    """
    power = w
    for bit in bin(m)[3:]:
        power = power @ power
        if bit == "1":
            power = power @ w
    return power


def _blended_seed(pair: PerronPair, dynamics, t: int, values: np.ndarray) -> np.ndarray:
    acc = np.zeros(values.shape[1])
    for qi, d, x in zip(pair.q, dynamics, values):
        acc = acc + qi * d.update(t, x)
    return acc


def simulate(scenario: Scenario, segments: tuple[Segment, ...] | None = None) -> SimulationTrace:
    """Run the scenario and return the full trace.

    ``segments`` is the scenario's :func:`plan_segments` result, when already
    planned.  Events apply at integer boundaries, before the node step of
    their round: leaving nodes drop out, joining nodes start at zero, and the
    blended reference is re-seeded from the live states.

    With ``record = "integer"`` no sub-step is kept, so a window couples
    each round by one product with M = W^(K-1), built once per window, when
    that takes fewer flops than K-1 steps by W (``_power_pays``); otherwise,
    and always with ``record = "all"``, a round runs K-1 coupling steps by W.
    """
    if scenario.K < 1:
        raise AssumptionViolation("K must be >= 1")
    if scenario.record not in ("all", "integer"):
        raise AssumptionViolation(f"unknown record granularity {scenario.record!r}")
    if segments is None:
        segments = plan_segments(scenario)
    K, n = scenario.K, scenario.n
    k_rec = K if scenario.record == "all" else 1
    rng = np.random.default_rng([scenario.seed, 0x1A17])
    ids = segments[0].graph.nodes
    state = scenario.initial.materialize(ids, n, rng)
    blocks: list[np.ndarray] = []
    blended = np.empty((scenario.horizon, n))

    s_current: np.ndarray | None = None
    for seg in segments:
        if seg.events:
            old = dict(zip(ids, state))
            joined = {ev.node for ev in seg.events if isinstance(ev, Join)}
            ids = seg.graph.nodes
            state = np.array([np.zeros(n) if v in joined else old[v] for v in ids])
        t_stop = min(seg.t_end + 1, scenario.horizon)
        rounds = max(t_stop - seg.t_start, 0)
        block = np.empty((rounds, k_rec, len(ids), n))
        coupling, steps = seg.weights, K
        if k_rec == 1 and _power_pays(K - 1, len(ids), rounds):
            coupling, steps = _matrix_power(seg.weights.entries, K - 1), 2
        for r, t in enumerate(range(seg.t_start, t_stop)):
            block[r, 0] = state
            # non-finite values are detected explicitly below, so intermediate warnings are noise
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                if t == seg.t_start:
                    s_next = _blended_seed(seg.pair, seg.dynamics, t, state)
                else:
                    s_next = blended_step(s_current, t, seg.blended)
                out = node_step(state, t, seg.dynamics)
                for k in range(1, steps):
                    if k < k_rec:
                        block[r, k] = out
                    out = coupling_step(out, coupling)
            state = out
            if not np.isfinite(state).all():
                raise SimulationError(f"state overflowed to non-finite values during round t={t}")
            if not np.isfinite(s_next).all():
                raise SimulationError(f"blended reference became non-finite during round t={t}")
            blended[t] = s_next
            s_current = s_next
        block.setflags(write=False)
        blocks.append(block)

    state.setflags(write=False)
    blended.setflags(write=False)
    events_applied = [(seg.t_start, ev) for seg in segments for ev in seg.events]
    return SimulationTrace(scenario, tuple(blocks), state, blended, events_applied, tuple(segments))


def trace_to_csv(trace: SimulationTrace, fh: TextIO) -> None:
    """Write the trace CSV to the text file ``fh``, one ``write`` per recorded round.

    One row per node per recorded (t, k), each value written as its ``repr``;
    the blended reference s[t] follows the k = 0 rows of each t >= 1 with
    node_id 's'.
    """
    sc = trace.scenario
    header = [
        f"# scenario={scenario_hash(sc)}",
        f"# K={sc.K}",
        f"# coupling={sc.coupling}",
        f"# seed={sc.seed}",
        "t,k,node_id," + ",".join(f"x{d}" for d in range(sc.n)),
    ]
    fh.write("\n".join(header) + "\n")
    fmt = ",".join(["%r"] * sc.n)
    blended = trace.blended.tolist()
    rounds = [(seg.t_start, seg.graph.nodes, block) for seg, block in zip(trace.segments, trace.states)]
    rounds.append((sc.horizon, trace.segments[-1].graph.nodes, trace.final[None, None]))
    for t_start, ids, block in rounds:
        # a round's rows as a %-template in the block's (k, node) order, "@" standing for t
        head = "".join(f"@,0,{node_id},{fmt}\n" for node_id in ids)
        rest = "".join(f"@,{k},{node_id},{fmt}\n" for k in range(1, block.shape[1]) for node_id in ids)
        plain, with_s = head + rest, head + f"@,0,s,{fmt}\n" + rest
        cut = len(ids) * sc.n
        for t, fractions in enumerate(block, start=t_start):
            values = fractions.reshape(-1).tolist()
            template = plain
            if t >= 1:
                values[cut:cut] = blended[t - 1]
                template = with_s
            fh.write(template.replace("@", str(t)) % tuple(values))


def blended_to_csv(trace: SimulationTrace, fh: TextIO) -> None:
    """Write the blended reference CSV to the text file ``fh``: one row per s[t], t >= 1."""
    sc = trace.scenario
    fh.write(f"# scenario={scenario_hash(sc)}\nt," + ",".join(f"x{d}" for d in range(sc.n)) + "\n")
    row = f"%d,{','.join(['%r'] * sc.n)}\n"
    for t, s in enumerate(trace.blended.tolist(), start=1):
        fh.write(row % (t, *s))

