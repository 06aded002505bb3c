import numpy as np
import pytest

from blendnet.graph import DirectedGraph, generate_connected
from blendnet.spectral import (
    PerronPair,
    SpectralError,
    decompose,
    eigen_magnitudes,
    perron_pair,
)
from blendnet.weights import (
    WeightMatrix,
    average_coupling,
    metropolis_hastings,
    pagerank_coupling,
)


def upath(n):
    return DirectedGraph.build([(i, i + 1) for i in range(1, n)], undirected=True)


def dcycle(n):
    return DirectedGraph.build([(i, i % n + 1) for i in range(1, n + 1)])


def reconstruct(dec):
    n = dec.n
    left = np.column_stack([dec.pair.p, dec.R])
    middle = np.zeros((n, n))
    middle[0, 0] = 1.0
    middle[1:, 1:] = dec.Lam
    right = np.vstack([dec.pair.q[None, :], dec.Z.T])
    return left @ middle @ right


def test_metropolis_pair_is_uniform():
    g = generate_connected(7, 0.5, seed=4)
    pair = perron_pair(metropolis_hastings(g, 0.5))
    assert np.array_equal(pair.p, np.ones(7))
    assert np.allclose(pair.q, np.ones(7) / 7, atol=1e-12)
    assert pair.q @ pair.p == pytest.approx(1.0, abs=1e-13)


def test_average_pair_is_degree_weighted():
    g = upath(4)
    pair = perron_pair(average_coupling(g, 0.5))
    degrees = g.in_degrees().astype(float)
    assert np.array_equal(pair.p, np.ones(4))
    assert np.allclose(pair.q, degrees / degrees.sum(), atol=1e-12)


def test_pagerank_pair_on_symmetric_cycle():
    pair = perron_pair(pagerank_coupling(dcycle(3), 0.15))
    assert np.allclose(pair.p, np.ones(3) / 3, atol=1e-12)
    assert np.array_equal(pair.q, np.ones(3))
    assert pair.p.sum() == pytest.approx(1.0, abs=1e-13)


def test_pair_residuals_small():
    g = generate_connected(12, 0.3, seed=21, undirected=False)
    w = pagerank_coupling(g, 0.15)
    pair = perron_pair(w)
    assert np.max(np.abs(w.entries @ pair.p - pair.p)) < 1e-11
    assert np.max(np.abs(pair.q @ w.entries - pair.q)) < 1e-11
    assert pair.p.min() > 0 and pair.q.min() > 0


def test_nonconvergence_raises():
    g = upath(3)
    w = metropolis_hastings(g, 0.5)
    doubled = WeightMatrix(2.0 * w.entries, "custom", None, g.nodes)
    with pytest.raises(SpectralError):
        perron_pair(doubled)


def test_nonpositive_eigenvector_raises():
    # reducible matrix: the left eigenvector of eigenvalue 1 has a zero entry
    g = DirectedGraph.build([(1, 2), (2, 1)])
    entries = np.array([[0.5, 0.0], [0.5, 1.0]])
    w = WeightMatrix(entries, "custom", None, g.nodes)
    with pytest.raises(SpectralError):
        perron_pair(w)


def test_two_node_lambda_block():
    # eigenvalues of [[1-a, a], [a, 1-a]] are {1, 1-2a} (dense eigensolve oracle)
    a = 0.3
    g = DirectedGraph.build([(1, 2)], undirected=True)
    w = WeightMatrix(np.array([[1 - a, a], [a, 1 - a]]), "custom", None, (1, 2))
    assert np.allclose(np.sort(np.linalg.eigvals(w.entries)), [1 - 2 * a, 1.0])
    dec = decompose(w, perron_pair(w))
    assert dec.Lam.shape == (1, 1)
    assert dec.Lam[0, 0] == pytest.approx(1 - 2 * a, abs=1e-12)


def test_decomposition_invariants_on_seeded_graphs():
    rng = np.random.default_rng(314)
    for _ in range(12):
        n = int(rng.integers(3, 14))
        g = generate_connected(n, float(rng.uniform(0.3, 0.9)), seed=int(rng.integers(1 << 30)))
        for build in (
            lambda: metropolis_hastings(g, 0.4),
            lambda: pagerank_coupling(g, 0.15),
            lambda: average_coupling(g, 0.6),
        ):
            w = build()
            pair = perron_pair(w)
            dec = decompose(w, pair)
            eye = np.eye(n - 1)
            assert np.max(np.abs(dec.Z.T @ dec.R - eye)) < 1e-10
            assert np.max(np.abs(dec.Z.T @ pair.p)) < 1e-10
            assert np.max(np.abs(dec.R.T @ pair.q)) < 1e-10
            assert np.max(np.abs(reconstruct(dec) - w.entries)) < 1e-10
            lam_mags = np.sort(np.abs(np.linalg.eigvals(dec.Lam)))[::-1]
            oracle = eigen_magnitudes(w)[1:]
            assert np.allclose(lam_mags, oracle, atol=1e-9)


def test_eigen_magnitudes_sorted_and_identity_degenerate():
    mags = eigen_magnitudes(np.eye(4))
    assert np.allclose(mags, 1.0)  # degenerate input: no spectral gap


def test_valid_matrix_has_exactly_one_unit_magnitude():
    g = generate_connected(9, 0.4, seed=17)
    mags = eigen_magnitudes(metropolis_hastings(g, 0.5))
    assert mags[0] == pytest.approx(1.0, abs=1e-10)
    assert mags[1] < 1.0 - 1e-6  # simple, strictly dominant


def test_triangle_metropolis_magnitudes_match_oracle():
    g = DirectedGraph.build([(1, 2), (2, 3), (1, 3)], undirected=True)
    w = metropolis_hastings(g, 0.4)
    assert np.allclose(eigen_magnitudes(w), np.sort(np.abs(np.linalg.eigvals(w.entries)))[::-1])


def test_rescaled_pair_still_valid_and_z_unchanged():
    g = generate_connected(6, 0.5, seed=9)
    w = metropolis_hastings(g, 0.5)
    pair = perron_pair(w)
    scaled = pair.scaled(3.5)
    assert np.max(np.abs(w.entries @ scaled.p - scaled.p)) < 1e-11
    assert scaled.q @ scaled.p == pytest.approx(1.0, abs=1e-12)
    dec = decompose(w, pair)
    dec_scaled = decompose(w, scaled)
    # R depends only on the direction of q, and Z on the constraints; both stay put
    assert np.allclose(dec.R, dec_scaled.R, atol=1e-12)
    assert np.allclose(dec.Z, dec_scaled.Z, atol=1e-10)


def test_decompose_is_deterministic():
    g = generate_connected(8, 0.4, seed=2)
    w = average_coupling(g, 0.5)
    pair = perron_pair(w)
    d1 = decompose(w, pair)
    d2 = decompose(w, pair)
    assert np.array_equal(d1.R, d2.R)
    assert np.array_equal(d1.Z, d2.Z)
    assert np.array_equal(d1.Lam, d2.Lam)


def ring_with_chord(n):
    """Directed ring i -> i+1 plus the chord 1 -> n/2: strongly connected, slowly mixing."""
    return DirectedGraph.build([(i, i % n + 1) for i in range(1, n + 1)] + [(1, n // 2)])


@pytest.mark.parametrize(
    "build",
    [lambda g: pagerank_coupling(g, 0.15), lambda g: average_coupling(g, 0.5)],
    ids=["pagerank", "average"],
)
def test_slowly_mixing_ring_pair(build):
    # 1 - |lambda2| is ~1e-4 here, so power iteration would need ~1e5 steps
    # or more; the direct solve is exact to rounding
    w = build(ring_with_chord(400))
    pair = perron_pair(w)
    assert np.max(np.abs(w.entries @ pair.p - pair.p)) <= 1e-12 * np.max(pair.p)
    assert np.max(np.abs(pair.q @ w.entries - pair.q)) <= 1e-12 * np.max(pair.q)
    assert pair.p.min() > 0 and pair.q.min() > 0
    assert pair.q @ pair.p == pytest.approx(1.0, abs=1e-12)


def test_decompose_rejects_pair_with_qp_not_one():
    g = generate_connected(6, 0.5, seed=3)
    w = metropolis_hastings(g, 0.5)
    pair = perron_pair(w)
    doubled = PerronPair(pair.p, 2.0 * pair.q, pair.lambda2_mag, pair.lambdaN_mag)
    assert doubled.q @ doubled.p == pytest.approx(2.0)
    with pytest.raises(SpectralError, match="q'p"):
        decompose(w, doubled)
