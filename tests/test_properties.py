"""Property tests for the paper's invariants over small seeded random graphs.

Each example draws a coupling kind, a graph seed, a size and a sub-step count;
the graph and the affine node maps follow from the seed, so a failing example
replays exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blendnet.graph import generate_connected
from blendnet.simulator import Scenario, affine_dynamics, initial_box, simulate
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
    assert np.max(np.abs(dec.Z.T @ dec.R - np.eye(n - 1))) < 1e-10
    assert np.max(np.abs(dec.Z.T @ dec.pair.p)) < 1e-10
    assert np.max(np.abs(dec.R.T @ dec.pair.q)) < 1e-10


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
    # ||Lam^(K-k)|| ||xitilde[t_k]||; for symmetric coupling Lam is symmetric
    # and the norm is also at least |lamN|^(K-k) ||xitilde[t_k]||
    kind = case[0]
    tr = random_trace(*case, K)
    seg = tr.segments[0]
    dec = seg.decomposition
    subs, nxt = tr.fractions(seg)
    lam_n = seg.pair.lambdaN_mag
    for t in range(6):
        after = dec.Z.T @ nxt[t]
        for k in range(1, K):
            before = dec.Z.T @ subs[t, k - 1]
            power = np.linalg.matrix_power(dec.Lam, K - k)
            assert np.max(np.abs(power @ before - after)) < 1e-10
            norm_before = float(np.linalg.norm(before))
            norm_after = float(np.linalg.norm(after))
            assert norm_after <= float(np.linalg.norm(power, 2)) * norm_before * (1 + 1e-9) + 1e-12
            if kind == "metropolis_hastings":
                assert lam_n ** (K - k) * norm_before <= norm_after + 1e-9
