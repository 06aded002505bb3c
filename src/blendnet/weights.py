"""Coupling weight matrices: Metropolis-Hastings, PageRank, and average consensus.

All constructors return matrices whose sparsity pattern equals the
in-neighborhood plus the diagonal, with every diagonal entry positive and
spectral radius one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph, is_strongly_connected

VALID_KINDS = ("metropolis_hastings", "pagerank", "average", "custom")

#: default validation tolerance for stochasticity and spectral-radius checks;
#: the constructions are exact up to rounding, so this is generous.
DEFAULT_TOL = 1e-10


class WeightError(ValueError):
    """Raised when a coupling matrix cannot be built or fails validation."""


@dataclass(frozen=True)
class WeightMatrix:
    """N x N nonnegative coupling matrix aligned with a graph's sorted node ids.

    ``entries[i, j]`` is the weight node i applies to the state received from
    node j.
    """

    entries: np.ndarray
    kind: str
    parameter: float | None
    nodes: tuple[int, ...]

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "nodes", tuple(int(v) for v in self.nodes))
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise WeightError("weight matrix must be square")
        if len(self.nodes) != entries.shape[0]:
            raise WeightError("node list does not match matrix size")
        if self.kind not in VALID_KINDS:
            raise WeightError(f"unknown weight kind {self.kind!r}")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def metropolis_hastings(g: DirectedGraph, mu: float) -> WeightMatrix:
    """Doubly-stochastic coupling for undirected connected graphs.

    Off-diagonal weights are (1 - mu) / max(d_i, d_j) on edges; the diagonal
    absorbs the remainder so every row sums to one.  Symmetry of the formula
    makes the matrix symmetric, hence column sums are one as well.
    """
    if not 0.0 < mu < 1.0:
        raise WeightError("mu must lie in (0, 1)")
    if not g.undirected:
        raise WeightError("Metropolis-Hastings coupling requires an undirected graph")
    if not is_strongly_connected(g):
        raise WeightError("graph must be connected")
    d = g.in_degrees()
    w = np.divide(1.0 - mu, np.maximum.outer(d, d), out=np.zeros((g.n, g.n)), where=g.adjacency())
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return WeightMatrix(w, "metropolis_hastings", mu, g.nodes)


def pagerank_coupling(g: DirectedGraph, m: float = 0.15) -> WeightMatrix:
    """Column-stochastic coupling m*I + (1 - m) * A * Dout^-1.

    Every sender j divides its state evenly over its out-neighbors; m keeps a
    fraction of the local state.  Requires a strongly connected digraph with
    all out-degrees at least one.
    """
    if not 0.0 < m < 1.0:
        raise WeightError("m must lie in (0, 1)")
    if not is_strongly_connected(g):
        raise WeightError("graph must be strongly connected")
    d_out = g.out_degrees()
    if (d_out == 0).any():
        raise WeightError("every node needs out-degree >= 1")
    w = np.divide(1.0 - m, d_out[None, :], out=np.zeros((g.n, g.n)), where=g.adjacency())
    np.fill_diagonal(w, m)
    return WeightMatrix(w, "pagerank", m, g.nodes)


def average_coupling(g: DirectedGraph, theta: float) -> WeightMatrix:
    """Row-stochastic coupling theta*I + (1 - theta) * D^-1 * A.

    Each receiver i mixes its own state (weight theta) with the plain average
    of its in-neighbors.  Requires strong connectivity and in-degrees >= 1.
    """
    if not 0.0 < theta < 1.0:
        raise WeightError("theta must lie in (0, 1)")
    if not is_strongly_connected(g):
        raise WeightError("graph must be strongly connected")
    d_in = g.in_degrees()
    if (d_in == 0).any():
        raise WeightError("every node needs in-degree >= 1")
    w = np.divide(1.0 - theta, d_in[:, None], out=np.zeros((g.n, g.n)), where=g.adjacency())
    np.fill_diagonal(w, theta)
    return WeightMatrix(w, "average", theta, g.nodes)


@dataclass(frozen=True)
class WeightReport:
    """Validation outcome; ``violations`` is empty when all checks pass.  ``magnitudes``
    (all eigenvalue magnitudes, sorted descending) lets the Perron pair reuse the eigensolve."""

    violations: tuple[str, ...]
    spectral_radius: float
    row_stochastic: bool
    column_stochastic: bool
    magnitudes: np.ndarray

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(w: WeightMatrix, g: DirectedGraph, tol: float = DEFAULT_TOL) -> WeightReport:
    """Check the sparsity pattern, positive diagonal, and unit spectral radius.

    Violations are collected into the report rather than raised, except for a
    graph/matrix dimension mismatch which is a usage error.
    """
    if w.n != g.n or w.nodes != g.nodes:
        raise WeightError("weight matrix does not match the graph's node set")
    entries = w.entries
    violations: list[str] = []
    if (entries < 0).any():
        violations.append("negative entries present")
    allowed = g.adjacency(self_loops=True)
    structural_zero = (entries != 0.0) & ~allowed
    if structural_zero.any():
        r, c = np.argwhere(structural_zero)[0]
        violations.append(
            f"nonzero weight outside the neighborhood pattern at ({w.nodes[r]}, {w.nodes[c]})"
        )
    missing = (entries <= 0.0) & allowed
    if missing.any():
        r, c = np.argwhere(missing)[0]
        if r == c:
            violations.append(f"diagonal entry for node {w.nodes[r]} is not positive")
        else:
            violations.append(f"edge weight at ({w.nodes[r]}, {w.nodes[c]}) is not positive")
    magnitudes = np.sort(np.abs(np.linalg.eigvals(entries)))[::-1]
    rho = float(magnitudes[0])
    if abs(rho - 1.0) > tol:
        violations.append(f"spectral radius {rho!r} deviates from 1 by more than {tol}")
    ones = np.ones(g.n)
    row = bool(np.max(np.abs(entries @ ones - ones)) <= tol)
    col = bool(np.max(np.abs(ones @ entries - ones)) <= tol)
    return WeightReport(tuple(violations), rho, row, col, magnitudes)
