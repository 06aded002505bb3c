import numpy as np
import pytest

from blendnet.graph import DirectedGraph, generate_connected
from blendnet.weights import (
    WeightError,
    WeightMatrix,
    average_coupling,
    metropolis_hastings,
    pagerank_coupling,
    validate,
)


def upath(n):
    return DirectedGraph.build([(i, i + 1) for i in range(1, n)], undirected=True)


def utriangle():
    return DirectedGraph.build([(1, 2), (2, 3), (1, 3)], undirected=True)


def dcycle(n):
    return DirectedGraph.build([(i, i % n + 1) for i in range(1, n + 1)])


def seeded_graphs(count, undirected=True, seed=1234):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(3, 12))
        p = float(rng.uniform(0.25, 0.9))
        out.append(generate_connected(n, p, seed=int(rng.integers(1 << 30)), undirected=undirected))
    return out


def test_metropolis_path4_entries():
    # degrees on the path are (1, 2, 2, 1), so the direct formula gives
    # w12 = 0.5/2 and the diagonal fills each row to one
    w = metropolis_hastings(upath(4), 0.5).entries
    assert w[0, 1] == pytest.approx(0.25)
    assert w[0, 0] == pytest.approx(0.75)
    assert w[1, 0] == pytest.approx(0.25)
    assert w[1, 2] == pytest.approx(0.25)
    assert w[1, 1] == pytest.approx(0.5)


def test_metropolis_triangle_entries():
    w = metropolis_hastings(utriangle(), 0.4).entries
    off = w[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.3)
    assert np.allclose(np.diag(w), 0.4)


def test_metropolis_doubly_stochastic_and_symmetric():
    for g in seeded_graphs(8):
        w = metropolis_hastings(g, 0.35).entries
        ones = np.ones(w.shape[0])
        assert np.max(np.abs(w @ ones - ones)) < 1e-12
        assert np.max(np.abs(ones @ w - ones)) < 1e-12
        assert np.max(np.abs(w - w.T)) < 1e-15


def test_metropolis_rejects_directed_and_bad_mu():
    with pytest.raises(WeightError):
        metropolis_hastings(dcycle(3), 0.5)
    with pytest.raises(WeightError):
        metropolis_hastings(upath(3), 1.0)


def test_metropolis_rejects_disconnected():
    g = DirectedGraph.build([(1, 2), (3, 4)], undirected=True)
    with pytest.raises(WeightError):
        metropolis_hastings(g, 0.5)


def test_pagerank_three_cycle():
    w = pagerank_coupling(dcycle(3), 0.15)
    assert w.entries[1, 0] == pytest.approx(0.85)
    assert w.entries[0, 0] == pytest.approx(0.15)
    ones = np.ones(3)
    assert np.max(np.abs(ones @ w.entries - ones)) < 1e-12


def test_pagerank_default_parameter():
    w = pagerank_coupling(dcycle(4))
    assert w.parameter == pytest.approx(0.15)


def test_pagerank_column_stochastic():
    for g in seeded_graphs(6, undirected=False, seed=77):
        w = pagerank_coupling(g, 0.15).entries
        ones = np.ones(w.shape[0])
        assert np.max(np.abs(ones @ w - ones)) < 1e-12


def test_pagerank_rejects_zero_out_degree():
    g = DirectedGraph((1,), frozenset())
    with pytest.raises(WeightError):
        pagerank_coupling(g, 0.15)


def test_average_path3_entries():
    w = average_coupling(upath(3), 0.5).entries
    assert w[1, 0] == pytest.approx(0.25)
    assert w[1, 2] == pytest.approx(0.25)
    assert w[1, 1] == pytest.approx(0.5)
    ones = np.ones(3)
    assert np.max(np.abs(w @ ones - ones)) < 1e-12


def test_average_row_stochastic():
    for g in seeded_graphs(6, seed=99):
        w = average_coupling(g, 0.7).entries
        ones = np.ones(w.shape[0])
        assert np.max(np.abs(w @ ones - ones)) < 1e-12


def test_average_rejects_bad_theta():
    with pytest.raises(WeightError):
        average_coupling(upath(3), 0.0)
    with pytest.raises(WeightError):
        average_coupling(upath(3), 1.2)


def test_constructors_meet_all_checks():
    for g in seeded_graphs(10, seed=2024):
        for w in (
            metropolis_hastings(g, 0.5),
            pagerank_coupling(g, 0.15),
            average_coupling(g, 0.5),
        ):
            report = validate(w, g)
            assert report.ok, report.violations
            assert abs(report.spectral_radius - 1.0) <= 1e-10
            assert (np.diag(w.entries) > 0).all()


def test_validate_reports_zero_diagonal():
    g = upath(3)
    w = metropolis_hastings(g, 0.5)
    broken = np.array(w.entries)
    broken[1, 1] = 0.0
    report = validate(WeightMatrix(broken, "custom", None, g.nodes), g)
    assert not report.ok
    assert any("diagonal" in v for v in report.violations)


def test_validate_reports_spectral_radius_of_doubled_matrix():
    g = upath(3)
    w = metropolis_hastings(g, 0.5)
    report = validate(WeightMatrix(2.0 * w.entries, "custom", None, g.nodes), g)
    # dense eigensolve oracle: scaling the matrix scales every eigenvalue
    assert report.spectral_radius == pytest.approx(2.0, rel=1e-12)
    assert any("spectral radius" in v for v in report.violations)


def test_validate_reports_off_pattern_entry():
    g = upath(4)
    w = metropolis_hastings(g, 0.5)
    broken = np.array(w.entries)
    broken[0, 3] = 0.01  # nodes 1 and 4 are not adjacent on the path
    report = validate(WeightMatrix(broken, "custom", None, g.nodes), g)
    assert any("pattern" in v for v in report.violations)


def test_validate_dimension_mismatch_raises():
    with pytest.raises(WeightError):
        validate(metropolis_hastings(upath(3), 0.5), upath(4))
