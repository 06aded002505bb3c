"""Directed communication graphs: structure checks, mutation, generation, edge-list I/O."""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from ._record import Record


class GraphError(ValueError):
    """Raised for malformed graphs, edge lists, or mutation requests."""


class Join(Record):
    """Membership event: ``node`` joins with the given incident ``(j, i)`` edges."""

    node: int
    edges: tuple[tuple[int, int], ...] = ()


class Leave(Record):
    """Membership event: ``node`` leaves and all its incident edges are dropped."""

    node: int


class DirectedGraph(Record):
    """Communication graph with unique positive integer node ids and no self-loops.

    An edge ``(j, i)`` means node j sends information to node i, so the
    in-neighborhood of i is ``{j : (j, i) in edges}``.  Undirected graphs keep a
    symmetric edge set and are flagged via ``undirected``.  Instances are
    immutable values; mutation helpers return new graphs.  The structure is
    indexed once at construction (id -> position, a read-only boolean
    adjacency, per-node neighbour tuples), and every query reads that index.
    """

    nodes: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    undirected: bool = False

    def __post_init__(self):
        nodes = tuple(sorted(int(v) for v in self.nodes))
        edges = frozenset((int(j), int(i)) for j, i in self.edges)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        if len(set(nodes)) != len(nodes):
            raise GraphError("duplicate node ids")
        if any(v < 1 for v in nodes):
            raise GraphError("node ids must be positive integers")
        # the structure, indexed once: adj[i, j] is true iff j -> i is an edge
        index = {v: k for k, v in enumerate(nodes)}
        adj = np.zeros((len(nodes), len(nodes)), dtype=bool)
        senders: list[list[int]] = [[] for _ in nodes]
        receivers: list[list[int]] = [[] for _ in nodes]
        for j, i in edges:
            if j == i:
                raise GraphError(f"self-loop {j}->{i} not allowed")
            if j not in index or i not in index:
                raise GraphError(f"edge {j}->{i} references unknown node")
            adj[index[i], index[j]] = True
            senders[index[i]].append(j)
            receivers[index[j]].append(i)
        unmatched = np.argwhere(adj & ~adj.T) if self.undirected else ()
        if len(unmatched):
            r, c = unmatched[0]
            raise GraphError(f"undirected graph is missing reverse edge {nodes[r]}->{nodes[c]}")
        adj.setflags(write=False)
        object.__setattr__(self, "_index", MappingProxyType(index))
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_in", tuple(map(tuple, senders)))
        object.__setattr__(self, "_out", tuple(map(tuple, receivers)))

    @classmethod
    def build(cls, edges, nodes=(), undirected: bool = False) -> "DirectedGraph":
        """Build a graph from edge pairs, adding endpoint nodes automatically.

        For undirected graphs every input pair is stored in both orientations.
        """
        edge_set: set[tuple[int, int]] = set()
        node_set = {int(v) for v in nodes}
        for j, i in edges:
            j, i = int(j), int(i)
            edge_set.add((j, i))
            if undirected:
                edge_set.add((i, j))
            node_set.update((j, i))
        return cls(tuple(sorted(node_set)), frozenset(edge_set), undirected)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def index_of(self) -> Mapping[int, int]:
        """Map node id to its row/column position (sorted-id order)."""
        return self._index

    def in_neighbors(self, i: int) -> set[int]:
        return set(self._in[self._index[i]])

    def out_neighbors(self, j: int) -> set[int]:
        return set(self._out[self._index[j]])

    def in_degree(self, i: int) -> int:
        return len(self.in_neighbors(i))

    def out_degree(self, j: int) -> int:
        return len(self.out_neighbors(j))

    def in_degrees(self) -> np.ndarray:
        return self._adj.sum(axis=1)

    def out_degrees(self) -> np.ndarray:
        return self._adj.sum(axis=0)

    def adjacency(self, self_loops: bool = False) -> np.ndarray:
        """Read-only boolean adjacency A with A[i, j] true iff (j, i) is an edge.

        Rows index receivers, columns index senders; ``self_loops`` returns
        the new array A | I.
        """
        return self._adj | np.eye(self.n, dtype=bool) if self_loops else self._adj


def _reachable(g: DirectedGraph, start: int, reverse: bool = False) -> set[int]:
    succ = g.in_neighbors if reverse else g.out_neighbors
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in succ(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff a directed path exists from every node to every other node."""
    if g.n == 0:
        raise GraphError("empty graph")
    root = g.nodes[0]
    if len(_reachable(g, root)) != g.n:
        return False
    return len(_reachable(g, root, reverse=True)) == g.n


def degree_sequence(g: DirectedGraph) -> tuple[int, ...]:
    """Degrees of an undirected graph, sorted non-increasing."""
    if not g.undirected:
        raise GraphError("degree sequence is defined for undirected graphs only")
    return tuple(sorted(g.in_degrees().tolist(), reverse=True))


def mutate(g: DirectedGraph, event, protected: tuple[int, ...] = ()) -> DirectedGraph:
    """Apply a Join or Leave event, returning a new graph.

    Callers are responsible for re-validating connectivity afterwards.  Nodes
    listed in ``protected`` refuse Leave events (e.g. a designated anchor).
    """
    if isinstance(event, Leave):
        if event.node in protected:
            raise GraphError(f"node {event.node} is protected and cannot leave")
        if event.node not in g.nodes:
            raise GraphError(f"node {event.node} is not in the graph")
        nodes = tuple(v for v in g.nodes if v != event.node)
        edges = frozenset(e for e in g.edges if event.node not in e)
        return DirectedGraph(nodes, edges, g.undirected)
    if isinstance(event, Join):
        if event.node in g.nodes:
            raise GraphError(f"node id {event.node} is already in use")
        added = {(int(j), int(i)) for j, i in event.edges}
        if g.undirected:
            added |= {(i, j) for j, i in added}
        # the constructor rejects self-loops and edges to unknown nodes
        return DirectedGraph(g.nodes + (int(event.node),), g.edges | added, g.undirected)
    raise GraphError(f"unknown event {event!r}")


def generate_connected(
    n: int,
    edge_probability: float,
    seed: int,
    undirected: bool = True,
    max_retries: int = 500,
) -> DirectedGraph:
    """Seeded random graph, re-sampled until it is (strongly) connected.

    Node ids are 1..n.  ``edge_probability`` lies in (0, 1]; with 1.0 the
    complete graph is produced on the first try.
    """
    if n < 2:
        raise GraphError("need at least 2 nodes")
    if not 0.0 < edge_probability <= 1.0:
        raise GraphError("edge_probability must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    # one uniform draw per candidate pair (a, b) in row-major order, the same
    # stream as a per-pair loop: the upper triangle, or every off-diagonal slot
    slots = np.triu(np.ones((n, n), dtype=bool), 1) if undirected else ~np.eye(n, dtype=bool)
    count = int(slots.sum())
    for _ in range(max_retries):
        chosen = np.zeros((n, n), dtype=bool)
        chosen[slots] = rng.random(count) < edge_probability
        rows, cols = np.nonzero(chosen)
        pairs = zip((rows + 1).tolist(), (cols + 1).tolist())
        g = DirectedGraph.build(pairs, nodes=range(1, n + 1), undirected=undirected)
        if is_strongly_connected(g):
            return g
    raise GraphError(
        f"no connected graph found in {max_retries} tries (n={n}, p={edge_probability})"
    )


def parse_edge_list(text: str) -> DirectedGraph:
    """Parse the edge-list format: one ``j i`` pair per line.

    Lines starting with '#' are ignored; an optional first content line
    ``undirected`` declares a symmetric graph.  Self-loops, malformed lines
    and duplicate edges are rejected.
    """
    undirected = False
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    first_content = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if first_content and line.lower() == "undirected":
            undirected = True
            first_content = False
            continue
        first_content = False
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'j i', got {line!r}")
        try:
            j, i = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer node id in {line!r}") from exc
        if j < 1 or i < 1:
            raise GraphError(f"line {lineno}: node ids must be positive")
        if j == i:
            raise GraphError(f"line {lineno}: self-loop {j}->{i}")
        key = (min(j, i), max(j, i)) if undirected else (j, i)
        if key in seen:
            raise GraphError(f"line {lineno}: duplicate edge {j} {i}")
        seen.add(key)
        pairs.append((j, i))
    if not pairs:
        raise GraphError("edge list contains no edges")
    return DirectedGraph.build(pairs, undirected=undirected)


def serialize_edge_list(g: DirectedGraph) -> str:
    """Canonical edge-list text; ``parse_edge_list`` round-trips it."""
    lines = []
    if g.undirected:
        lines.append("undirected")
        pairs = sorted({(min(j, i), max(j, i)) for j, i in g.edges})
    else:
        pairs = sorted(g.edges)
    lines.extend(f"{j} {i}" for j, i in pairs)
    return "\n".join(lines) + "\n"
