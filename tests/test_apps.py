from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from blendnet import apps
from blendnet.analysis import contraction_affine, kmin_empirical, measure_tail_error
from blendnet.graph import DirectedGraph, GraphError, Leave, generate_connected
from blendnet.simulator import Scenario, build_blended, simulate
from blendnet.spectral import perron_pair
from blendnet.weights import average_coupling, metropolis_hastings, pagerank_coupling


def upath(n):
    return DirectedGraph.build([(i, i + 1) for i in range(1, n)], undirected=True)


def complete(n):
    return DirectedGraph.build([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)], undirected=True)


def dcycle(n):
    return DirectedGraph.build([(i, i % n + 1) for i in range(1, n + 1)])


# -- network size --------------------------------------------------------------


def test_netsize_blended_matches_closed_form():
    g = generate_connected(4, 0.6, seed=6)
    cfg = apps.NetSizeConfig(mu=0.5)
    pair = perron_pair(metropolis_hastings(g, cfg.mu))
    bd = build_blended(apps.netsize_dynamics(cfg, g), pair)
    for s in (-1.0, 0.0, 3.0, 4.0, 9.5):
        assert bd.step(0, np.array([s]))[0] == pytest.approx((1 - 1 / 4) * s + 1, abs=1e-12)
    # fixed point at the agent count
    assert bd.step(0, np.array([4.0]))[0] == pytest.approx(4.0, abs=1e-12)


def test_netsize_single_node():
    g = DirectedGraph((1,), frozenset(), undirected=True)
    cfg = apps.NetSizeConfig()
    dyn = apps.netsize_dynamics(cfg, g)
    assert dyn[0].update(0, np.array([7.0]))[0] == 1.0
    pair = perron_pair(metropolis_hastings(g, 0.5))
    bd = build_blended(dyn, pair)
    assert bd.step(0, np.array([1.0]))[0] == pytest.approx(1.0)


def test_netsize_anchor_missing():
    cfg = apps.NetSizeConfig(anchor=9)
    with pytest.raises(GraphError):
        apps.netsize_dynamics(cfg, upath(3))


def test_netsize_unstable_nodes_contractive_blend():
    # every non-anchor map has unit gain, yet the blend contracts at 1 - 1/N
    g = generate_connected(8, 0.4, seed=9)
    cfg = apps.NetSizeConfig(mu=0.5)
    dyn = apps.netsize_dynamics(cfg, g)
    assert max(d.lipschitz for d in dyn) == 1.0
    pair = perron_pair(metropolis_hastings(g, cfg.mu))
    cert = contraction_affine(build_blended(dyn, pair).affine[0])
    assert cert.gamma == pytest.approx((1 - 1 / 8) ** 2, rel=1e-6)


def test_netsize_estimation_recovers_size():
    g = generate_connected(10, 0.35, seed=7)
    cfg = apps.NetSizeConfig(mu=0.5)
    sc = apps.netsize_scenario(g, cfg, K=1, horizon=80, record="integer", seed=7)
    k = kmin_empirical(sc, 0.4)
    tr = simulate(replace(sc, K=k))
    est = apps.netsize_estimate(tr)
    assert est.reliable
    assert set(est.per_node.values()) == {10}


def test_netsize_rounding():
    # straight rounding of the terminal sample
    g = upath(2)
    cfg = apps.NetSizeConfig(mu=0.5)
    sc = apps.netsize_scenario(g, cfg, K=8, horizon=60, record="integer")
    est = apps.netsize_estimate(simulate(sc))
    assert set(est.per_node.values()) == {2}


def test_netsize_reconverges_after_leave():
    g = generate_connected(10, 0.35, seed=7)
    cfg = apps.NetSizeConfig(mu=0.5)
    sc = apps.netsize_scenario(
        g, cfg, K=19, horizon=100, record="integer", seed=7, events=((20, Leave(4)),)
    )
    tr = simulate(sc)
    est = apps.netsize_estimate(tr)
    assert est.reliable
    assert set(est.per_node.values()) == {9}


def test_netsize_unreliable_flag():
    g = generate_connected(10, 0.35, seed=7)
    cfg = apps.NetSizeConfig(mu=0.5)
    tr = simulate(apps.netsize_scenario(g, cfg, K=2, horizon=80, record="integer", seed=7))
    est = apps.netsize_estimate(tr)
    assert not est.reliable  # K far too small for a 0.5 error


# -- pagerank --------------------------------------------------------------------


def test_pagerank_blended_fixed_point_is_one():
    g = generate_connected(5, 0.5, seed=8, undirected=False)
    cfg = apps.PageRankConfig(n_agents=5, nu=0.3, m=0.15)
    pair = perron_pair(pagerank_coupling(g, cfg.m))
    bd = build_blended(apps.pagerank_dynamics(cfg, g), pair)
    for s in (0.0, 0.5, 1.0, 2.0):
        assert bd.step(0, np.array([s]))[0] == pytest.approx(cfg.nu * s + (1 - cfg.nu), abs=1e-12)
    assert bd.step(0, np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-12)


def test_pagerank_symmetric_cycle_scores():
    g = dcycle(3)
    cfg = apps.PageRankConfig(n_agents=3, nu=0.5, m=0.15)
    tr = simulate(apps.pagerank_scenario(g, cfg, K=30, horizon=40, record="integer"))
    scores = apps.pagerank_scores(tr)
    for v in g.nodes:
        assert scores[v] == pytest.approx(1 / 3, abs=1e-9)


def test_pagerank_matches_dense_eigensolve():
    g = generate_connected(8, 0.3, seed=11, undirected=False)
    cfg = apps.PageRankConfig(n_agents=8, nu=0.5, m=0.15)
    sc = apps.pagerank_scenario(g, cfg, K=1, horizon=60, record="integer", seed=11)
    k = kmin_empirical(sc, 5e-7)
    tr = simulate(replace(sc, K=k))
    scores = apps.pagerank_scores(tr)
    w = pagerank_coupling(g, cfg.m)
    vals, vecs = np.linalg.eig(w.entries)
    lead = np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))])
    lead = lead / lead.sum()
    for pos, v in enumerate(g.nodes):
        assert abs(scores[v] - lead[pos]) <= 1e-6


def test_pagerank_not_synchronized_but_netsize_is():
    g = generate_connected(8, 0.3, seed=11, undirected=False)
    cfg = apps.PageRankConfig(n_agents=8, nu=0.5, m=0.15)
    tr = simulate(apps.pagerank_scenario(g, cfg, K=40, horizon=60, record="integer", seed=11))
    scores = list(apps.pagerank_scores(tr).values())
    assert max(scores) - min(scores) > 0.01  # per-node scaling spreads the states


def test_pagerank_invalid_parameters():
    with pytest.raises(ValueError):
        apps.PageRankConfig(n_agents=5, nu=1.0)
    with pytest.raises(ValueError):
        apps.PageRankConfig(n_agents=0)


def test_pagerank_chaining_from_netsize():
    g = generate_connected(6, 0.5, seed=5)
    cfg = apps.NetSizeConfig(mu=0.5)
    sc = apps.netsize_scenario(g, cfg, K=1, horizon=70, record="integer")
    tr = simulate(replace(sc, K=kmin_empirical(sc, 0.4)))
    chained = apps.config_from_netsize(apps.netsize_estimate(tr), nu=0.4)
    assert chained.n_agents == 6
    assert chained.nu == 0.4


def test_pagerank_chaining_refuses_unreliable():
    est = apps.NetSizeEstimate({1: 5, 2: 6}, 0.9, False)
    with pytest.raises(ValueError):
        apps.config_from_netsize(est)


# -- degree sequence ---------------------------------------------------------------


def test_degseq_blended_fixed_point_path3():
    # path on ids (2, 3, 4) with base 3: 1*3 + 2*9 + 1*27 = 48
    g = upath(3)
    cfg = apps.DegSeqConfig(theta=0.5)
    assert apps.degseq_fixed_point(cfg, g) == 48
    pair = perron_pair(average_coupling(g, 0.5))
    bd = build_blended(apps.degseq_dynamics(cfg, g), pair)
    assert bd.step(0, np.array([48.0]))[0] == pytest.approx(48.0, rel=1e-12)


def test_degseq_single_edge_fixed_point():
    g = upath(2)  # ids default to (2, 3), base 2: 1*2 + 1*4 = 6
    cfg = apps.DegSeqConfig(theta=0.5)
    assert apps.degseq_fixed_point(cfg, g) == 6


def test_degseq_contraction_factor():
    g = upath(5)
    cfg = apps.DegSeqConfig(theta=0.5)
    pair = perron_pair(average_coupling(g, 0.5))
    bd = build_blended(apps.degseq_dynamics(cfg, g), pair)
    a = bd.affine[0][0, 0]
    d_sum = int(g.in_degrees().sum())
    assert a == pytest.approx(1 - 5 / d_sum, rel=1e-12)
    assert 0.0 <= a < 1.0


def test_degseq_decode_48():
    assert apps.degseq_decode(48, 3, 4) == (2, 1, 1)


def test_degseq_decode_rounds_first():
    assert apps.degseq_decode(47.6, 3, 4) == (2, 1, 1)


def test_degseq_decode_zero_degenerate():
    assert apps.degseq_decode(0, 3, 4) == ()


def test_degseq_decode_corrupted_value():
    with pytest.raises(ValueError):
        apps.degseq_decode(3**4 + 5, 3, 4)  # needs more than max_id digits
    with pytest.raises(ValueError):
        apps.degseq_decode(-2, 3, 4)


def test_degseq_ids_validation():
    g = upath(3)
    with pytest.raises(ValueError):
        apps.DegSeqConfig(ids=((1, 2), (2, 2), (3, 4))).resolve_ids(g)  # duplicate
    with pytest.raises(ValueError):
        apps.DegSeqConfig(ids=((1, 1), (2, 3), (3, 4))).resolve_ids(g)  # id <= 1
    with pytest.raises(ValueError):
        apps.DegSeqConfig(ids=((1, 2),)).resolve_ids(g)  # missing nodes


def test_degseq_float_window_gate():
    g = upath(5)
    cfg = apps.DegSeqConfig(theta=0.5, ids=tuple((v, v + 22) for v in g.nodes))
    with pytest.raises(ValueError, match="exact"):
        apps.degseq_dynamics(cfg, g)  # 5**27 overflows the 2^53 window


def test_degseq_float_window_has_no_escape_flag():
    # a 20-node path's drives reach 20^21 > 2^53; a floating run refuses and
    # names the rational one instead of decoding garbage such as (18, 17, 15, ...)
    sc = apps.degseq_scenario(upath(20), apps.DegSeqConfig(), K=60, horizon=400, record="integer")
    with pytest.raises(ValueError, match=r"apps\.degseq_simulate_exact"):
        simulate(sc)
    with pytest.raises(TypeError):
        apps.DegSeqConfig(arithmetic="exact")


def test_degseq_rejects_directed():
    with pytest.raises(GraphError):
        apps.degseq_dynamics(apps.DegSeqConfig(), dcycle(3))


def test_degseq_full_run_decodes_path5():
    g = upath(5)
    cfg = apps.DegSeqConfig(theta=0.5)
    sc = apps.degseq_scenario(g, cfg, K=1, horizon=30, record="integer")
    k = kmin_empirical(sc, 0.45)
    tr = simulate(replace(sc, K=k))
    assert measure_tail_error(tr)[0] < 1.0
    seqs = apps.degseq_estimate(tr, cfg)
    assert all(seq == (2, 2, 2, 1, 1) for seq in seqs.values())


def test_degseq_exact_fixed_point_is_rational():
    g = upath(5)
    cfg = apps.DegSeqConfig(theta=0.5)
    fp = apps.degseq_exact_blended_fixed_point(cfg, g)
    assert isinstance(fp, Fraction)
    assert fp == sum(g.in_degree(v) * 5 ** (v + 1 - 1) for v in g.nodes)
    assert fp == apps.degseq_fixed_point(cfg, g)


def test_degseq_exact_simulation_reproduces_fixed_point():
    g = upath(3)
    cfg = apps.DegSeqConfig(theta=0.5)
    fp = apps.degseq_exact_blended_fixed_point(cfg, g)
    states, blended = apps.degseq_simulate_exact(cfg, g, K=8, horizon=12, initial=fp)
    # the reference holds the fixed point exactly once seeded there
    assert all(s == fp for s in blended)
    # from the consensus start the network lands on the macro map's exact
    # rational fixed point, and stays: consecutive states coincide exactly
    assert states[1] == states[2] == states[-1]
    # the degree-weighted average of that fixed point is exactly the target
    degs = [g.in_degree(v) for v in g.nodes]
    d_sum = sum(degs)
    avg = sum(Fraction(d, d_sum) * x for d, x in zip(degs, states[-1]))
    assert avg == fp
    # and the decode of the exact value is the degree sequence
    assert apps.degseq_decode(fp, 3, 4) == (2, 1, 1)


def test_degseq_exact_blended_matches_float_reference():
    g = upath(4)
    cfg = apps.DegSeqConfig(theta=0.5)
    _, blended = apps.degseq_simulate_exact(cfg, g, K=6, horizon=10)
    sc = apps.degseq_scenario(g, cfg, K=6, horizon=10, record="integer")
    tr = simulate(sc)
    for t, s_exact in enumerate(blended, start=1):
        assert float(s_exact) == pytest.approx(tr.blended_at(t)[0], rel=1e-12)


# -- one builder per application -------------------------------------------------


@pytest.mark.parametrize(
    "build, cfg",
    [
        (apps.netsize_scenario, apps.NetSizeConfig(mu=0.5)),
        (apps.pagerank_scenario, apps.PageRankConfig(n_agents=5)),
        (apps.degseq_scenario, apps.DegSeqConfig(theta=0.5)),
    ],
    ids=["netsize", "pagerank", "degseq"],
)
def test_builders_forward_scenario_fields(build, cfg):
    g = complete(5)
    events = ((5, Leave(5)),)
    sc = build(g, cfg, K=4, horizon=10, events=events, tail_fraction=0.5, record="integer", seed=3)
    assert (sc.events, sc.tail_fraction, sc.record, sc.seed) == (events, 0.5, "integer", 3)
    tr = simulate(sc)
    assert tr.events_applied == [(5, Leave(5))]
    assert tr.final.shape == (4, 1)
    # with no fields, Scenario's own defaults apply
    bare = build(g, cfg, K=4, horizon=10)
    assert bare.describe() == Scenario(g, bare.coupling, bare.parameter, bare.dynamics_builder, 4, 10,
                                       anchor=bare.anchor).describe()
