"""Distributed algorithms built on multi-step coupling.

Three node-dynamics families, one per coupling type:

* network-size estimation (doubly-stochastic coupling): an anchor node holds
  the constant 1 while everyone else increments, so the blended map contracts
  to the agent count and round-off recovers it exactly;
* PageRank scores (column-stochastic coupling): identical node maps contract
  the blended state to 1, leaving each sampled state at its own entry of the
  coupling's right Perron vector;
* degree-sequence estimation (row-stochastic coupling): each node injects
  N^id scaled by its degree weight, so the blended fixed point encodes all
  degrees as base-N digits.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import measure_tail_error
from .graph import DirectedGraph, GraphError
from .simulator import NodeDynamics, Scenario, SimulationTrace, affine_dynamics

log = logging.getLogger(__name__)

_FLOAT_EXACT_LIMIT = 2**53


# ---------------------------------------------------------------------------
# network-size estimation


@dataclass(frozen=True)
class NetSizeConfig:
    """mu is the coupling parameter; the anchor defaults to the smallest id
    and must never leave the network."""

    mu: float = 0.5
    anchor: int | None = None

    def resolve_anchor(self, g: DirectedGraph) -> int:
        anchor = self.anchor if self.anchor is not None else min(g.nodes)
        if anchor not in g.nodes:
            raise GraphError(f"anchor node {anchor} missing from graph")
        return anchor


def netsize_dynamics(cfg: NetSizeConfig, g: DirectedGraph) -> list[NodeDynamics]:
    """Anchor holds the constant 1, every other node runs x -> x + 1.

    The q-weighted average is s -> (1 - 1/N) s + 1 with fixed point N, even
    though the incrementing maps are individually (marginally) unstable.
    """
    anchor = cfg.resolve_anchor(g)
    return [
        affine_dynamics(0.0, 1.0) if v == anchor else affine_dynamics(1.0, 1.0)
        for v in g.nodes
    ]


def netsize_scenario(g: DirectedGraph, cfg: NetSizeConfig, K: int, horizon: int, **fields) -> Scenario:
    """A network-size run on ``g``; ``fields`` (initial, events, record, seed,
    tail_fraction) go to :class:`Scenario` unchanged."""
    return Scenario(
        graph=g,
        coupling="metropolis_hastings",
        parameter=cfg.mu,
        dynamics_builder=functools.partial(netsize_dynamics, cfg),
        K=K,
        horizon=horizon,
        anchor=cfg.resolve_anchor(g),
        **fields,
    )


@dataclass(frozen=True)
class NetSizeEstimate:
    per_node: dict[int, int]
    tail_error: float
    reliable: bool


def rounding_reliability(trace: SimulationTrace, what: str, tail_fraction: float | None = None) -> tuple[float, bool]:
    """The trace's tail error, and whether it stays below one half, which is
    what makes rounding the final states exact; logs a warning when not."""
    err, _, _ = measure_tail_error(trace, tail_fraction=tail_fraction)
    reliable = err < 0.5
    if not reliable:
        log.warning("%s unreliable: tail error %.3g >= 0.5", what, err)
    return err, reliable


def netsize_estimate(trace: SimulationTrace, tail_fraction: float | None = None) -> NetSizeEstimate:
    """Round off the final states; reliable as in :func:`rounding_reliability`."""
    err, reliable = rounding_reliability(trace, "network-size estimate", tail_fraction)
    final = trace.state_at(trace.scenario.horizon)
    per_node = {v: int(round(float(x[0]))) for v, x in zip(final.ids, final.values)}
    return NetSizeEstimate(per_node, err, reliable)


# ---------------------------------------------------------------------------
# PageRank scores


@dataclass(frozen=True)
class PageRankConfig:
    """nu shapes the blended map s -> nu s + (1 - nu); m is the coupling
    parameter; n_agents is global knowledge (chain it from a network-size run
    when unknown)."""

    n_agents: int
    nu: float = 0.5
    m: float = 0.15

    def __post_init__(self):
        if not 0.0 < self.nu < 1.0:
            raise ValueError("nu must lie in (0, 1)")
        if not 0.0 < self.m < 1.0:
            raise ValueError("m must lie in (0, 1)")
        if self.n_agents < 1:
            raise ValueError("n_agents must be a positive integer")


def pagerank_dynamics(cfg: PageRankConfig, g: DirectedGraph) -> list[NodeDynamics]:
    """Every node runs x -> nu x + (1 - nu)/N.

    The blended state contracts to 1, so sampled states settle on the
    coupling's right Perron vector: each node reads off its own score, and the
    network does not synchronize.
    """
    return [affine_dynamics(cfg.nu, (1.0 - cfg.nu) / cfg.n_agents) for _ in g.nodes]


def pagerank_scenario(g: DirectedGraph, cfg: PageRankConfig, K: int, horizon: int, **fields) -> Scenario:
    """A PageRank run on ``g``; ``fields`` go to :class:`Scenario` unchanged."""
    return Scenario(
        graph=g,
        coupling="pagerank",
        parameter=cfg.m,
        dynamics_builder=functools.partial(pagerank_dynamics, cfg),
        K=K,
        horizon=horizon,
        **fields,
    )


def pagerank_scores(trace: SimulationTrace) -> dict[int, float]:
    final = trace.state_at(trace.scenario.horizon)
    return {v: float(x[0]) for v, x in zip(final.ids, final.values)}


def config_from_netsize(estimate: NetSizeEstimate, nu: float = 0.5, m: float = 0.15) -> PageRankConfig:
    """Chain a PageRank configuration from a finished network-size run."""
    if not estimate.reliable:
        raise ValueError("network-size estimate is flagged unreliable; refusing to chain")
    sizes = set(estimate.per_node.values())
    if len(sizes) != 1:
        raise ValueError(f"nodes disagree on the network size: {sorted(sizes)}")
    return PageRankConfig(n_agents=sizes.pop(), nu=nu, m=m)


# ---------------------------------------------------------------------------
# degree-sequence estimation


@dataclass(frozen=True)
class DegSeqConfig:
    """Identifiers must be distinct integers > 1; they default to node_id + 1.

    n_agents is the base of the positional encoding and must equal the actual
    network size for the decode to be meaningful.  The floating-point
    dynamics refuse a drive N^id beyond the 2^53 integer window;
    :func:`degseq_simulate_exact` runs on rationals instead.
    """

    theta: float = 0.5
    ids: tuple[tuple[int, int], ...] = ()
    n_agents: int | None = None

    def resolve_ids(self, g: DirectedGraph) -> dict[int, int]:
        mapping = {int(k): int(v) for k, v in self.ids} if self.ids else {v: v + 1 for v in g.nodes}
        missing = [v for v in g.nodes if v not in mapping]
        if missing:
            raise ValueError(f"identifier missing for nodes {missing}")
        values = [mapping[v] for v in g.nodes]
        if len(set(values)) != len(values):
            raise ValueError("identifiers must be distinct")
        if any(x <= 1 for x in values):
            raise ValueError("identifiers must be greater than 1")
        return {v: mapping[v] for v in g.nodes}

    def resolve_n(self, g: DirectedGraph) -> int:
        n = self.n_agents if self.n_agents is not None else g.n
        if n != g.n:
            log.warning(
                "configured base %d differs from the actual network size %d; "
                "the decoded sequence will be wrong", n, g.n,
            )
        return n


def degseq_dynamics(cfg: DegSeqConfig, g: DirectedGraph) -> list[NodeDynamics]:
    """Node i runs x -> (1 - 1/d_i) x + N^id_i.

    Under average coupling with q proportional to the degrees, the blended map
    is s -> (1 - N/d_sum) s + (sum_i d_i N^id_i)/d_sum; connectivity gives
    d_sum >= N, hence contraction, and the fixed point stacks every degree
    into its own base-N digit.
    """
    if not g.undirected:
        raise GraphError("degree-sequence estimation requires an undirected graph")
    ids = cfg.resolve_ids(g)
    n = cfg.resolve_n(g)
    top = max(ids.values())
    if n**top > _FLOAT_EXACT_LIMIT:
        raise ValueError(
            f"floating point cannot represent {n}^{top} exactly (2^53 window); "
            "use apps.degseq_simulate_exact"
        )
    dynamics = []
    for v, d in zip(g.nodes, g.in_degrees().tolist()):
        if d == 0:
            raise GraphError(f"node {v} has no neighbors")
        dynamics.append(affine_dynamics(1.0 - 1.0 / d, float(n ** ids[v])))
    return dynamics


def degseq_scenario(g: DirectedGraph, cfg: DegSeqConfig, K: int, horizon: int, **fields) -> Scenario:
    """A floating-point degree-sequence run on ``g``; ``fields`` go to
    :class:`Scenario` unchanged.  :func:`degseq_simulate_exact` is the exact run."""
    return Scenario(
        graph=g,
        coupling="average",
        parameter=cfg.theta,
        dynamics_builder=functools.partial(degseq_dynamics, cfg),
        K=K,
        horizon=horizon,
        **fields,
    )


def degseq_fixed_point(cfg: DegSeqConfig, g: DirectedGraph) -> int:
    """Exact blended fixed point sum_i d_i N^(id_i - 1), in integer arithmetic."""
    ids = cfg.resolve_ids(g)
    n = cfg.resolve_n(g)
    return sum(d * n ** (ids[v] - 1) for v, d in zip(g.nodes, g.in_degrees().tolist()))


def degseq_decode(value, n_agents: int, max_id: int) -> tuple[int, ...]:
    """Read the degree sequence out of the base-N representation of ``value``.

    The value is rounded to the nearest integer (valid when the measured
    synchronization error is below one half, see :func:`rounding_reliability`);
    digit b is the degree of the node whose identifier is b + 1.  Zero digits
    are dropped and the rest are sorted non-increasing.
    """
    if isinstance(value, Fraction):
        nearest = int(round(value))
    else:
        nearest = int(round(float(value)))
    if nearest < 0:
        raise ValueError(f"negative value {value!r} cannot encode degrees")
    if nearest == 0:
        log.warning("decoding 0 yields the empty degree sequence (degenerate state)")
        return ()
    digits = []
    rest = nearest
    for _ in range(max_id):
        rest, digit = divmod(rest, n_agents)
        digits.append(digit)
    if rest != 0:
        raise ValueError(
            f"value {nearest} does not fit {max_id} base-{n_agents} digits; state is corrupted"
        )
    return tuple(sorted((d for d in digits if d > 0), reverse=True))


def degseq_estimate(trace: SimulationTrace, cfg: DegSeqConfig) -> dict[int, tuple[int, ...]]:
    """Per-node decoded sequences from the final sampled states."""
    seg = trace.segments[-1]
    ids = cfg.resolve_ids(seg.graph)
    n = cfg.resolve_n(seg.graph)
    top = max(ids.values())
    final = trace.state_at(trace.scenario.horizon)
    return {v: degseq_decode(float(x[0]), n, top) for v, x in zip(final.ids, final.values)}


# ---------------------------------------------------------------------------
# exact (rational) arithmetic for the degree-sequence run


def _exact_average_weights(g: DirectedGraph, theta: Fraction) -> list[list[Fraction]]:
    """theta I + (1 - theta) D_in^-1 A over the rationals."""
    rows = zip(g.in_degrees().tolist(), g.adjacency().tolist())
    return [
        [theta if i == j else (1 - theta) / d if edge else Fraction(0) for j, edge in enumerate(row)]
        for i, (d, row) in enumerate(rows)
    ]


def degseq_exact_blended_fixed_point(cfg: DegSeqConfig, g: DirectedGraph) -> Fraction:
    """Solve s = (1 - N/d_sum) s + (sum_i d_i N^id_i)/d_sum over the rationals."""
    ids = cfg.resolve_ids(g)
    n = cfg.resolve_n(g)
    degs = g.in_degrees().tolist()
    d_sum = sum(degs)
    drive = Fraction(sum(d * n ** ids[v] for v, d in zip(g.nodes, degs)), d_sum)
    rate = 1 - Fraction(n, d_sum)
    return drive / (1 - rate)


def degseq_simulate_exact(
    cfg: DegSeqConfig,
    g: DirectedGraph,
    K: int,
    horizon: int,
    initial: Fraction = Fraction(0),
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Full state evolution in rational arithmetic.

    Returns the integer-count states (one list of per-node Fractions per t in
    0..horizon) and the blended reference s[1..horizon], both exact.
    """
    if not g.undirected:
        raise GraphError("degree-sequence estimation requires an undirected graph")
    theta = Fraction(cfg.theta).limit_denominator(10**9) if not isinstance(cfg.theta, Fraction) else cfg.theta
    ids = cfg.resolve_ids(g)
    n = cfg.resolve_n(g)
    w = _exact_average_weights(g, theta)
    degs = g.in_degrees().tolist()
    d_sum = sum(degs)
    q = [Fraction(d, d_sum) for d in degs]
    rates = [1 - Fraction(1, d) for d in degs]
    drives = [Fraction(n ** ids[v]) for v in g.nodes]

    def node_update(x):
        return [a * xi + b for a, xi, b in zip(rates, x, drives)]

    def couple(x):
        return [sum(w[i][j] * x[j] for j in range(g.n)) for i in range(g.n)]

    x = [Fraction(initial)] * g.n
    states = [list(x)]
    blended: list[Fraction] = []
    s: Fraction | None = None
    for t in range(horizon):
        if t == 0:
            s = sum(qi * fx for qi, fx in zip(q, node_update(x)))
        else:
            s = (1 - Fraction(n, d_sum)) * s + Fraction(sum(d * dr for d, dr in zip(degs, drives)), d_sum)
        blended.append(s)
        x = node_update(x)
        for _ in range(K - 1):
            x = couple(x)
        states.append(list(x))
    return states, blended
