"""Property tests for the paper's invariants over small seeded random graphs.

Each example draws a coupling kind, a graph seed, a size and a sub-step count;
the graph and the affine node maps follow from the seed, so a failing example
replays exactly.  The graph's structure index is checked against plain scans
of its edge set, contraction certificates against random contractive affine
maps, normal and strongly non-normal, and the streamed CSV writers against a
per-row formatter kept here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blendnet.analysis import ContractionCertificate, contraction_affine, fraction_identities, lemma4_check, norm_constants
from blendnet.graph import (
    DirectedGraph,
    GraphError,
    Join,
    Leave,
    degree_sequence,
    generate_connected,
    is_strongly_connected,
    mutate,
)
from blendnet.simulator import Scenario, affine_dynamics, blended_to_csv, initial_box, scenario_hash, simulate, trace_to_csv
from blendnet.spectral import decompose, perron_pair
from blendnet.weights import average_coupling, metropolis_hastings, pagerank_coupling

KINDS = ("metropolis_hastings", "pagerank", "average")
BUILDERS = {"metropolis_hastings": metropolis_hastings, "pagerank": pagerank_coupling, "average": average_coupling}

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def random_graph(kind: str, seed: int, n: int):
    """A connected graph; undirected for Metropolis-Hastings, either for the others."""
    undirected = kind == "metropolis_hastings" or seed % 2 == 0
    return generate_connected(n, 0.5, seed=seed, undirected=undirected)


def random_trace(kind: str, seed: int, n: int, K: int):
    g = random_graph(kind, seed, n)
    rng = np.random.default_rng([seed, n])
    a = rng.uniform(-0.9, 0.9, size=n)
    b = rng.uniform(-1.0, 1.0, size=n)
    sc = Scenario(
        graph=g,
        coupling=kind,
        parameter=0.3,
        dynamics_builder=lambda gr: [affine_dynamics(ai, bi) for ai, bi in zip(a, b)],
        K=K,
        horizon=6,
        initial=initial_box(-1.0, 1.0),
        seed=seed,
    )
    return simulate(sc)


cases = st.tuples(st.sampled_from(KINDS), st.integers(0, 10_000), st.integers(3, 7))


@PROPERTY
@given(case=cases)
def test_decomposition_identities(case):
    kind, seed, n = case
    w = BUILDERS[kind](random_graph(kind, seed, n), 0.3)
    dec = decompose(w, perron_pair(w))
    p, q, a = dec.pair.p, dec.pair.q, w.entries
    assert np.max(np.abs(dec.Z.T @ dec.R - np.eye(n - 1))) < 1e-10
    assert np.max(np.abs(dec.Z.T @ p)) < 1e-10
    assert np.max(np.abs(dec.R.T @ q)) < 1e-10
    # the Perron pair: unit eigenvectors, positive, q'p = 1
    assert np.max(np.abs(a @ p - p)) <= 1e-12
    assert np.max(np.abs(q @ a - q)) <= 1e-12
    assert p.min() > 0 and q.min() > 0
    assert abs(q @ p - 1.0) <= 1e-12
    # the closed forms against their definitions, with the SVD as the norm reference
    assert np.max(np.abs(dec.Lam - dec.Z.T @ a @ dec.R)) <= 1e-12
    assert np.linalg.norm(dec.R, 2) == pytest.approx(1.0, rel=1e-12)
    nc = norm_constants(dec, contraction_affine(np.full((1, 1), 0.5)), 1.0)
    assert nc.norm_r == 1.0
    assert nc.norm_z == pytest.approx(np.linalg.norm(dec.Z, 2), rel=1e-12)
    assert nc.norm_z == pytest.approx(np.linalg.norm(p) * np.linalg.norm(q), rel=1e-12)


@PROPERTY
@given(case=cases, K=st.integers(2, 6))
def test_xi1_is_frozen_across_fraction_counts(case, K):
    tr = random_trace(*case, K)
    seg = tr.segments[0]
    subs, nxt = tr.fractions(seg)
    assert subs.shape == (6, K - 1, seg.graph.n, 1) and nxt.shape == (6, seg.graph.n, 1)
    q = seg.pair.q
    for t in range(6):
        ref = q @ nxt[t]  # xi1 at (t+1, 0)
        scale = max(1.0, float(np.max(np.abs(ref))))
        for k in range(K - 1):
            assert np.max(np.abs(q @ subs[t, k] - ref)) <= 1e-12 * scale
        # the same value as the state the trace holds at (t+1, 0)
        assert np.array_equal(nxt[t], tr.state_at(t + 1, 0).values)


@PROPERTY
@given(case=cases, K=st.integers(2, 6))
def test_xitilde_decay_envelope(case, K):
    # xitilde[t+1] = Lam^(K-k) xitilde[t_k], so its norm is at most
    # ||Lam^(K-k)|| ||xitilde[t_k]|| and, for any Lam, at least
    # sigma_min(Lam)^(K-k) ||xitilde[t_k]||
    tr = random_trace(*case, K)
    seg = tr.segments[0]
    dec = seg.decomposition
    subs, nxt = tr.fractions(seg)
    sigma = float(np.linalg.svd(dec.Lam, compute_uv=False)[-1])
    for t in range(6):
        after = dec.Z.T @ nxt[t]
        for k in range(1, K):
            before = dec.Z.T @ subs[t, k - 1]
            power = np.linalg.matrix_power(dec.Lam, K - k)
            assert np.max(np.abs(power @ before - after)) < 1e-10
            norm_before = float(np.linalg.norm(before))
            norm_after = float(np.linalg.norm(after))
            assert norm_after <= float(np.linalg.norm(power, 2)) * norm_before * (1 + 1e-9) + 1e-12
            assert sigma ** (K - k) * norm_before <= norm_after + 1e-9


@pytest.mark.parametrize(
    "case, excess",
    [(("pagerank", 55, 3, 2), -0.017034), (("average", 5, 3, 2), -0.014420)],
)
def test_decay_check_holds_for_non_normal_lam(case, excess):
    # Lam is not normal here, so |lamN| in place of sigma_min(Lam) made these
    # correct runs read 0.251 and 0.0386, a failed decay check
    tr = random_trace(*case)
    seg = tr.segments[0]
    lam = seg.decomposition.Lam
    assert np.max(np.abs(lam @ lam.T - lam.T @ lam)) > 1e-3
    rep = fraction_identities(tr, seg.decomposition, seg)
    assert rep.max_decay_excess <= 1e-9
    assert rep.max_decay_excess == pytest.approx(excess, abs=1e-6)


# ---------------------------------------------------------------------------
# contraction certificates of contractive affine maps (the increment inequality)


def contractive_linear_part(n: int, seed: int, rho: float, skew: float) -> np.ndarray:
    """A random n x n matrix with spectral radius rho.

    With skew > 0 it is a triangular matrix, eigenvalues on the diagonal and
    off-diagonal entries of size ~skew, under a random orthogonal similarity:
    strongly non-normal when skew is large against rho.  With skew = 0 it is a
    dense Gaussian matrix rescaled to the radius.
    """
    rng = np.random.default_rng([seed, n])
    if skew == 0.0:
        a = rng.normal(size=(n, n))
        return a * (rho / float(np.max(np.abs(np.linalg.eigvals(a)))))
    diag = rng.uniform(-rho, rho, size=n)
    diag[rng.integers(n)] = rho if rng.random() < 0.5 else -rho
    t = np.diag(diag) + np.triu(rng.normal(size=(n, n)) * skew, 1)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ t @ q.T


linear_parts = st.builds(
    contractive_linear_part,
    n=st.integers(1, 4),
    seed=st.integers(0, 10_000),
    rho=st.floats(0.0, 0.95),
    skew=st.sampled_from((0.0, 0.5, 3.0, 10.0)),
)


@PROPERTY
@given(a=linear_parts, seed=st.integers(0, 10_000))
def test_affine_certificate_is_valid(a, seed):
    n = len(a)
    rho = float(np.max(np.abs(np.linalg.eigvals(a))))
    cert = contraction_affine(a)
    assert rho**2 <= cert.gamma < 1.0
    # a' H^2 a <= gamma H^2; H is only fixed up to scale, so check it normalised
    h = cert.H / np.linalg.norm(cert.H, 2)
    h2 = h @ h
    assert np.linalg.eigvalsh(cert.gamma * h2 - a.T @ h2 @ a).min() > -1e-9
    rng = np.random.default_rng(seed)
    b = rng.normal(size=n)
    samples = [(int(rng.integers(0, 100)), rng.normal(size=n) * 10, rng.normal(size=n) * 10) for _ in range(200)]
    assert lemma4_check(lambda t, s: a @ s + b, cert, samples).ok


def test_lemma4_witness_for_gamma_below_rho_squared():
    # no H achieves gamma < rho^2: the increment along the top eigenvector
    # shrinks by rho exactly, so that sample falsifies the certificate
    a = np.array([[0.5, 10.0], [0.0, 0.5]])
    honest = contraction_affine(a)
    forged = ContractionCertificate(honest.H, 0.99 * 0.25, "analytic")
    s1, s2 = np.zeros(2), np.array([1.0, 0.0])
    res = lemma4_check(lambda t, s: a @ s + 1.0, forged, [(0, s1, s1), (7, s1, s2)])
    assert not res.ok
    t, w1, w2 = res.witness
    assert t == 7 and np.array_equal(w1, s1) and np.array_equal(w2, s2)
    assert lemma4_check(lambda t, s: a @ s + 1.0, honest, [(7, s1, s2)]).ok


# ---------------------------------------------------------------------------
# graph structure: the index built at construction against edge-set scans


@st.composite
def graphs(draw):
    ids = sorted(draw(st.sets(st.integers(1, 40), min_size=1, max_size=9)))
    edges = set()
    if len(ids) > 1:
        pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda e: e[0] != e[1])
        edges = draw(st.sets(pairs, max_size=30))
    return DirectedGraph.build(edges, nodes=ids, undirected=draw(st.booleans()))


@PROPERTY
@given(g=graphs())
def test_index_matches_edge_scan(g):
    pos = {v: k for k, v in enumerate(sorted(g.nodes))}
    brute = np.zeros((g.n, g.n), dtype=int)
    for j, i in g.edges:
        brute[pos[i], pos[j]] = 1
    assert dict(g.index_of()) == pos
    for v in g.nodes:
        assert g.in_neighbors(v) == {j for j, i in g.edges if i == v}
        assert g.out_neighbors(v) == {i for j, i in g.edges if j == v}
        assert g.in_degree(v) == brute[pos[v]].sum() and g.out_degree(v) == brute[:, pos[v]].sum()
    assert np.array_equal(g.adjacency(), brute)
    assert np.array_equal(g.adjacency(self_loops=True), brute | np.eye(g.n, dtype=int))
    assert g.in_degrees().tolist() == brute.sum(axis=1).tolist()
    assert g.out_degrees().tolist() == brute.sum(axis=0).tolist()
    if g.undirected:
        assert degree_sequence(g) == tuple(sorted(brute.sum(axis=1).tolist(), reverse=True))


@PROPERTY
@given(g=graphs(), data=st.data())
def test_leave_join_round_trip(g, data):
    v = data.draw(st.sampled_from(g.nodes))
    incident = tuple(sorted(e for e in g.edges if v in e))
    back = mutate(mutate(g, Leave(v)), Join(v, incident))
    assert back == g
    assert dict(back.index_of()) == dict(g.index_of())
    assert np.array_equal(back.adjacency(), g.adjacency())
    for u in g.nodes:
        assert back.in_neighbors(u) == g.in_neighbors(u)
        assert back.out_neighbors(u) == g.out_neighbors(u)


def generate_by_pair_loop(n, p, seed, undirected, max_retries):
    """One rng.random() per candidate pair, in row-major order; returns (graph, tries)."""
    rng = np.random.default_rng(seed)
    for tries in range(1, max_retries + 1):
        pairs = []
        for a in range(1, n + 1):
            for b in range(a + 1 if undirected else 1, n + 1):
                if a != b and rng.random() < p:
                    pairs.append((a, b))
        g = DirectedGraph.build(pairs, nodes=range(1, n + 1), undirected=undirected)
        if is_strongly_connected(g):
            return g, tries
    return None, max_retries


def assert_same_generated(n, p, seed, undirected, max_retries):
    expected, tries = generate_by_pair_loop(n, p, seed, undirected, max_retries)
    if expected is None:
        with pytest.raises(GraphError):
            generate_connected(n, p, seed=seed, undirected=undirected, max_retries=max_retries)
    else:
        assert generate_connected(n, p, seed=seed, undirected=undirected, max_retries=max_retries) == expected
    return tries


@PROPERTY
@given(
    n=st.integers(2, 9),
    p=st.sampled_from((0.2, 0.35, 0.5, 0.8, 1.0)),
    seed=st.integers(0, 10_000),
    undirected=st.booleans(),
)
def test_generate_connected_matches_pair_loop(n, p, seed, undirected):
    assert_same_generated(n, p, seed, undirected, max_retries=20)


@pytest.mark.parametrize("undirected, seed, tries", [(False, 1, 178), (True, 0, 40)])
def test_generate_connected_matches_pair_loop_across_retries(undirected, seed, tries):
    assert assert_same_generated(8, 0.15, seed, undirected, max_retries=500) == tries


# ---------------------------------------------------------------------------
# CSV output: the streamed writers against a per-row repr loop


def reference_trace_csv(trace) -> str:
    """One f-string and one ``repr`` join per row, the whole file built in memory."""
    sc = trace.scenario
    lines = [
        f"# scenario={scenario_hash(sc)}",
        f"# K={sc.K}",
        f"# coupling={sc.coupling}",
        f"# seed={sc.seed}",
        "t,k,node_id," + ",".join(f"x{d}" for d in range(sc.n)),
    ]
    blended = trace.blended.tolist()
    rounds = [(seg.t_start + r, seg.graph.nodes, fractions)
              for seg, block in zip(trace.segments, trace.states) for r, fractions in enumerate(block)]
    rounds.append((sc.horizon, trace.segments[-1].graph.nodes, trace.final[None]))
    for t, ids, fractions in rounds:
        for k, rows in enumerate(fractions.tolist()):
            lines.extend(f"{t},{k},{node_id}," + ",".join(map(repr, row)) for node_id, row in zip(ids, rows))
            if k == 0 and t >= 1:
                lines.append(f"{t},0,s," + ",".join(map(repr, blended[t - 1])))
    return "\n".join(lines) + "\n"


def reference_blended_csv(trace) -> str:
    sc = trace.scenario
    lines = [f"# scenario={scenario_hash(sc)}", "t," + ",".join(f"x{d}" for d in range(sc.n))]
    lines.extend(f"{t}," + ",".join(map(repr, s)) for t, s in enumerate(trace.blended.tolist(), start=1))
    return "\n".join(lines) + "\n"


class Recorder:
    """A text sink that keeps every write."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


@st.composite
def csv_scenarios(draw):
    """A complete 4-node graph, n = 1 or 2, and at most one leave or join."""
    n = draw(st.sampled_from((1, 2)))
    horizon = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 10_000))
    events = ()
    event = draw(st.sampled_from((None, "leave", "join"))) if horizon >= 2 else None
    if event is not None:
        t_ev = draw(st.integers(1, horizon - 1))
        events = ((t_ev, Leave(4) if event == "leave" else Join(9, ((1, 9), (9, 1), (2, 9), (9, 2)))),)

    def builder(gr):
        coeffs = [np.random.default_rng([seed, v]) for v in gr.nodes]
        return [affine_dynamics(np.diag(r.uniform(-0.9, 0.9, n)), r.uniform(-1.0, 1.0, n)) for r in coeffs]

    return Scenario(
        graph=generate_connected(4, 1.0, seed=seed),
        coupling="metropolis_hastings",
        parameter=0.5,
        dynamics_builder=builder,
        K=draw(st.integers(1, 5)),
        horizon=horizon,
        initial=initial_box(-1.0, 1.0),
        events=events,
        record=draw(st.sampled_from(("all", "integer"))),
        seed=seed,
        n=n,
    )


@PROPERTY
@given(sc=csv_scenarios())
def test_streamed_csv_matches_per_row_formatter(sc):
    tr = simulate(sc)
    out = Recorder()
    trace_to_csv(tr, out)
    assert "".join(out.writes) == reference_trace_csv(tr)
    # the header, then one write per recorded round, the final state included
    assert len(out.writes) == 1 + sum(len(block) for block in tr.states) + 1
    out = Recorder()
    blended_to_csv(tr, out)
    assert "".join(out.writes) == reference_blended_csv(tr)
