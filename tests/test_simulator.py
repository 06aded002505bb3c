import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from blendnet import simulator
from blendnet.graph import DirectedGraph, Join, Leave, generate_connected
from blendnet.simulator import (
    AssumptionViolation,
    NetworkState,
    NodeDynamics,
    Scenario,
    SimulationError,
    affine_dynamics,
    blended_step,
    build_blended,
    coupling_step,
    initial_box,
    initial_constant,
    initial_explicit,
    initial_zeros,
    node_step,
    plan_segments,
    scenario_hash,
    simulate,
    trace_to_csv,
    transform,
)
from blendnet.spectral import decompose, perron_pair
from blendnet.weights import metropolis_hastings, pagerank_coupling


def upath(n):
    return DirectedGraph.build([(i, i + 1) for i in range(1, n)], undirected=True)


def netsize_builder(g):
    anchor = min(g.nodes)
    return [
        affine_dynamics(0.0, 1.0) if v == anchor else affine_dynamics(1.0, 1.0)
        for v in g.nodes
    ]


def netsize_scenario(g, K, horizon, **kw):
    return Scenario(
        graph=g,
        coupling="metropolis_hastings",
        parameter=0.5,
        dynamics_builder=netsize_builder,
        K=K,
        horizon=horizon,
        anchor=min(g.nodes),
        **kw,
    )


def trace_csv(trace) -> str:
    buf = io.StringIO()
    trace_to_csv(trace, buf)
    return buf.getvalue()


# -- fractional time ---------------------------------------------------------


def recorded_keys(tr):
    """Every (t, k) the trace holds, in storage order, read off its arrays."""
    keys = [
        (seg.t_start + r, k)
        for seg, block in zip(tr.segments, tr.states)
        for r in range(block.shape[0])
        for k in range(block.shape[1])
    ]
    return keys + [(tr.scenario.horizon, 0)]


def test_fractional_time_sequence():
    # the grid t_k = t + k/K: k runs 0..K-1 within a round, then t advances
    tr = simulate(netsize_scenario(upath(3), K=3, horizon=2))
    assert recorded_keys(tr) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0)]
    for t, k in recorded_keys(tr):
        assert tr.state_at(t, k).ids == (1, 2, 3)


def test_fractional_time_bounds():
    tr = simulate(netsize_scenario(upath(3), K=3, horizon=2))
    for t, k in ((0, 3), (0, -1), (2, 1), (3, 0), (-1, 0)):
        with pytest.raises(KeyError):
            tr.state_at(t, k)
    with pytest.raises(ValueError):
        simulate(netsize_scenario(upath(3), K=0, horizon=2))
    with pytest.raises(KeyError):
        tr.blended_at(0)
    with pytest.raises(KeyError):
        tr.blended_at(3)


# -- single steps -------------------------------------------------------------


def test_node_step_identity():
    state = np.array([[5.0], [7.0]])
    ident = [affine_dynamics(1.0, 0.0)] * 2
    assert np.array_equal(node_step(state, 0, ident), state)


def test_node_step_netsize_values():
    state = np.array([[5.0], [5.0]])
    out = node_step(state, 0, netsize_builder(upath(2)))
    assert out[:, 0].tolist() == [1.0, 6.0]


def test_node_step_zero_map():
    state = np.array([[3.0], [4.0]])
    out = node_step(state, 0, [affine_dynamics(0.0, 0.0)] * 2)
    assert np.array_equal(out, np.zeros((2, 1)))


def test_node_step_count_mismatch():
    state = np.zeros((2, 1))
    with pytest.raises(SimulationError):
        node_step(state, 0, [affine_dynamics(1.0, 0.0)])


def test_coupling_fixed_point_on_consensus_direction():
    g = generate_connected(6, 0.5, seed=1)
    w = metropolis_hastings(g, 0.4)
    pair = perron_pair(w)
    state = np.outer(pair.p, [2.5, -1.0])
    out = coupling_step(state, w)
    assert np.max(np.abs(out - state)) < 1e-14


def test_coupling_preserves_sum_for_doubly_stochastic():
    g = generate_connected(5, 0.6, seed=2)
    w = metropolis_hastings(g, 0.3)
    rng = np.random.default_rng(0)
    state = rng.normal(size=(5, 1))
    out = coupling_step(state, w)
    assert out.sum() == pytest.approx(state.sum(), abs=1e-12)


def test_repeated_coupling_matches_matrix_power_oracle():
    g = generate_connected(6, 0.5, seed=3, undirected=False)
    w = pagerank_coupling(g, 0.15)
    rng = np.random.default_rng(1)
    state = rng.normal(size=(6, 2))
    out = state
    reps = 7
    for _ in range(reps):
        out = coupling_step(out, w)
    oracle = np.linalg.matrix_power(w.entries, reps) @ state
    assert np.max(np.abs(out - oracle)) < 1e-12


def test_simulate_round_k1_is_node_step():
    g = upath(3)
    sc = netsize_scenario(g, K=1, horizon=1, initial=initial_explicit({1: 1.0, 2: 2.0, 3: 3.0}))
    tr = simulate(sc)
    b = node_step(tr.state_at(0, 0).values, 0, netsize_builder(g))
    assert tr.state_at(0, 0).values[:, 0].tolist() == [1.0, 2.0, 3.0]
    assert np.array_equal(tr.state_at(1, 0).values, b)


def test_simulate_round_matches_dense_oracle():
    g = generate_connected(7, 0.5, seed=5)
    w = metropolis_hastings(g, 0.4)
    rng = np.random.default_rng(2)
    dyn = [affine_dynamics(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(7)]
    x0 = rng.normal(size=(7, 1))
    K = 6
    sc = Scenario(
        graph=g,
        coupling="metropolis_hastings",
        parameter=0.4,
        dynamics_builder=lambda gr: dyn,
        K=K,
        horizon=4,
        initial=initial_explicit(dict(zip(g.nodes, x0[:, 0]))),
        record="integer",
    )
    tr = simulate(sc)
    state = tr.state_at(3, 0)
    f = np.array([d.update(3, x) for d, x in zip(dyn, state.values)])
    oracle = np.linalg.matrix_power(w.entries, K - 1) @ f
    assert np.max(np.abs(tr.state_at(4, 0).values - oracle)) < 1e-12


def test_simulate_rejects_k0():
    g = upath(3)
    with pytest.raises(AssumptionViolation, match="K must be"):
        simulate(netsize_scenario(g, K=0, horizon=2))


# -- blended map --------------------------------------------------------------


def test_blended_netsize_closed_form():
    g = generate_connected(6, 0.6, seed=7)
    pair = perron_pair(metropolis_hastings(g, 0.5))
    bd = build_blended(netsize_builder(g), pair)
    for s in (-3.0, 0.0, 2.5, 11.0):
        expect = (1 - 1 / 6) * s + 1
        assert blended_step(np.array([s]), 0, bd)[0] == pytest.approx(expect, abs=1e-12)
    a_s, b_s = bd.affine
    assert a_s[0, 0] == pytest.approx(1 - 1 / 6, abs=1e-12)
    assert b_s[0] == pytest.approx(1.0, abs=1e-12)


def test_blended_pagerank_closed_form():
    g = generate_connected(5, 0.5, seed=8, undirected=False)
    pair = perron_pair(pagerank_coupling(g, 0.15))
    nu = 0.7
    dyn = [affine_dynamics(nu, (1 - nu) / 5) for _ in range(5)]
    bd = build_blended(dyn, pair)
    for s in (0.0, 0.4, 1.0, -2.0):
        assert blended_step(np.array([s]), 0, bd)[0] == pytest.approx(nu * s + (1 - nu), abs=1e-12)


def test_blended_degree_sequence_closed_form():
    g = upath(3)
    from blendnet.weights import average_coupling

    pair = perron_pair(average_coupling(g, 0.5))
    n, ids = 3, {1: 2, 2: 3, 3: 4}
    dyn = [affine_dynamics(1 - 1 / g.in_degree(v), float(n ** ids[v])) for v in g.nodes]
    bd = build_blended(dyn, pair)
    d_sum = 4
    drive = sum(g.in_degree(v) * n ** ids[v] for v in g.nodes) / d_sum
    for s in (0.0, 10.0, 48.0):
        expect = (1 - n / d_sum) * s + drive
        assert blended_step(np.array([s]), 0, bd)[0] == pytest.approx(expect, rel=1e-12)


# -- coordinate transform -----------------------------------------------------


def test_transform_consensus_direction():
    g = generate_connected(6, 0.5, seed=10)
    w = metropolis_hastings(g, 0.5)
    pair = perron_pair(w)
    dec = decompose(w, pair)
    c = np.array([3.0, -1.5])
    ts = transform(NetworkState(g.nodes, np.outer(pair.p, c)), dec)
    assert np.allclose(ts.xi1, c, atol=1e-12)
    assert np.max(np.abs(ts.xitilde)) < 1e-12


def test_transform_complement_direction():
    g = generate_connected(6, 0.5, seed=10)
    w = metropolis_hastings(g, 0.5)
    dec = decompose(w, perron_pair(w))
    rng = np.random.default_rng(3)
    v = rng.normal(size=(5, 1))
    ts = transform(NetworkState(g.nodes, dec.R @ v), dec)
    assert np.max(np.abs(ts.xi1)) < 1e-12
    assert np.allclose(ts.xitilde, v, atol=1e-12)


def test_transform_roundtrip_random():
    g = generate_connected(8, 0.4, seed=12, undirected=False)
    w = pagerank_coupling(g, 0.15)
    dec = decompose(w, perron_pair(w))
    rng = np.random.default_rng(4)
    state = NetworkState(g.nodes, rng.normal(size=(8, 3)))
    ts = transform(state, dec)
    back = np.outer(dec.pair.p, ts.xi1) + dec.R @ ts.xitilde
    assert np.max(np.abs(back - state.values)) < 1e-10


# -- full simulation ----------------------------------------------------------


def test_zero_horizon_trace():
    g = upath(3)
    tr = simulate(netsize_scenario(g, K=4, horizon=0))
    assert recorded_keys(tr) == [(0, 0)]
    assert [block.shape for block in tr.states] == [(0, 4, 3, 1)]
    assert np.array_equal(tr.state_at(0, 0).values, tr.final)
    assert tr.blended.shape == (0, 1)


def test_trace_time_sequence_and_step_structure():
    g = upath(3)
    K = 4
    tr = simulate(netsize_scenario(g, K=K, horizon=2))
    keys = recorded_keys(tr)
    assert keys == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3), (2, 0)]
    assert keys == sorted(keys)
    # the k=1 record is the node-step image and each later fraction is one coupling
    w = metropolis_hastings(g, 0.5)
    dyn = netsize_builder(g)

    def x(t, k):
        return tr.state_at(t, k).values

    for t in (0, 1):
        assert np.array_equal(x(t, 1), node_step(x(t, 0), t, dyn))
        for k in range(1, K - 1):
            assert np.array_equal(x(t, k + 1), coupling_step(x(t, k), w))
        assert np.array_equal(x(t + 1, 0), coupling_step(x(t, K - 1), w))


def test_integer_granularity_records_only_k0():
    g = upath(3)
    tr = simulate(netsize_scenario(g, K=5, horizon=3, record="integer"))
    assert all(k == 0 for _, k in recorded_keys(tr))
    assert len(recorded_keys(tr)) == 4
    assert [block.shape for block in tr.states] == [(3, 1, 3, 1)]
    with pytest.raises(KeyError):
        tr.state_at(1, 1)


def count_couplings(monkeypatch) -> list:
    """Record the operator of every coupling_step call simulate makes."""
    calls = []
    real = simulator.coupling_step

    def counting(values, w):
        calls.append(w)
        return real(values, w)

    monkeypatch.setattr(simulator, "coupling_step", counting)
    return calls


@pytest.mark.parametrize("K", [1, 2, 3, 10])
def test_integer_record_couples_once_per_round_by_the_power(monkeypatch, K):
    g = upath(5)
    calls = count_couplings(monkeypatch)
    sc = netsize_scenario(g, K=K, horizon=12, record="integer", events=((6, Leave(5)),))
    tr = simulate(sc)
    if K == 1:
        assert calls == []
        return
    # K = 2 is one step by W either way; from K = 3 on, one product by W^(K-1) per round
    assert len(calls) == 12
    for w, seg in zip(calls, [tr.segments[0]] * 6 + [tr.segments[1]] * 6):
        if K == 2:
            assert w is seg.weights
        else:
            assert np.allclose(w, np.linalg.matrix_power(seg.weights.entries, K - 1), rtol=0, atol=1e-15)


def test_all_record_keeps_the_chain(monkeypatch):
    calls = count_couplings(monkeypatch)
    tr = simulate(netsize_scenario(upath(5), K=5, horizon=4))
    assert len(calls) == 4 * 4
    assert all(w is tr.segments[0].weights for w in calls)


@pytest.mark.parametrize("n_nodes, calls_per_round", [(15, 1), (16, 2)])
def test_power_rule_boundary(monkeypatch, n_nodes, calls_per_round):
    # K = 3 and one round: W^2 is one matmul, weighed at N/8 against the chain's 2 matvecs
    calls = count_couplings(monkeypatch)
    simulate(netsize_scenario(upath(n_nodes), K=3, horizon=1, record="integer"))
    assert len(calls) == calls_per_round


def test_blended_seed_matches_corollary_convention():
    g = upath(4)
    sc = netsize_scenario(g, K=3, horizon=5, initial=initial_constant(2.0))
    tr = simulate(sc)
    pair = tr.segments[0].pair
    dyn = tr.segments[0].dynamics
    x0 = tr.state_at(0, 0)
    expect = sum(
        qi * d.update(0, x) for qi, d, x in zip(pair.q, dyn, x0.values)
    )
    assert np.allclose(tr.blended_at(1), expect, atol=1e-14)


def test_identical_contractive_dynamics_converge_to_scaled_reference():
    # identical f_i = 0.5 x + 1 under a row-stochastic coupling: the affine
    # macro map has fixed point (b / (1 - a)) * ones = p s*, for any K
    g = generate_connected(6, 0.5, seed=13)
    sc = Scenario(
        graph=g,
        coupling="metropolis_hastings",
        parameter=0.5,
        dynamics_builder=lambda gr: [affine_dynamics(0.5, 1.0) for _ in gr.nodes],
        K=3,
        horizon=80,
        record="integer",
    )
    tr = simulate(sc)
    final = tr.state_at(80)
    assert np.max(np.abs(final.values - 2.0)) < 1e-12
    assert tr.blended_at(80)[0] == pytest.approx(2.0, abs=1e-12)


def test_deterministic_replay_bit_identical():
    g = generate_connected(7, 0.4, seed=20)
    sc = netsize_scenario(g, K=6, horizon=25, seed=123)
    t1 = simulate(sc)
    t2 = simulate(sc)
    assert trace_csv(t1) == trace_csv(t2)
    for b1, b2 in zip(t1.states, t2.states, strict=True):
        assert np.array_equal(b1, b2)
    assert np.array_equal(t1.final, t2.final)
    assert np.array_equal(t1.blended, t2.blended)


def test_scenario_hash_stable_and_sensitive():
    g = upath(4)
    a = netsize_scenario(g, K=3, horizon=5)
    b = netsize_scenario(g, K=4, horizon=5)
    assert scenario_hash(a) == scenario_hash(netsize_scenario(g, K=3, horizon=5))
    assert scenario_hash(a) != scenario_hash(b)


def test_pair_scale_invariance():
    # internal eigenvector rescaling must not move node trajectories, and the
    # per-node prediction p_i s[t] must agree as well
    g = generate_connected(6, 0.5, seed=21)
    base = netsize_scenario(g, K=8, horizon=30, record="integer")
    scaled = []
    for seg in plan_segments(base):
        pair = seg.pair.scaled(7.0)
        scaled.append(
            replace(
                seg,
                pair=pair,
                decomposition=decompose(seg.weights, pair),
                blended=build_blended(seg.dynamics, pair),
            )
        )
    t1, t2 = simulate(base), simulate(base, tuple(scaled))
    for b1, b2 in zip(t1.states, t2.states, strict=True):
        assert np.array_equal(b1, b2)
    assert np.array_equal(t1.final, t2.final)
    p1, p2 = t1.segments[0].pair, t2.segments[0].pair
    for t in range(1, 31):
        pred1 = np.outer(p1.p, t1.blended_at(t))
        pred2 = np.outer(p2.p, t2.blended_at(t))
        assert np.max(np.abs(pred1 - pred2)) < 1e-12


@pytest.mark.parametrize(
    "initial, radius",
    [
        (initial_zeros(), 0.0),
        (initial_constant(-2.5), 2.5),
        (initial_box(-3.0, 1.0), 3.0),
        (initial_explicit({1: 0.5, 2: -4.0, 3: 1.0}), 4.0),
    ],
    ids=["zeros", "constant", "box", "explicit"],
)
def test_initial_condition_radius_bounds_every_materialized_state(initial, radius):
    assert initial.radius == radius
    x0 = initial.materialize((1, 2, 3), 1, np.random.default_rng(0))
    assert np.max(np.abs(x0)) <= radius


def test_explicit_initial_radius_is_the_vector_norm():
    assert initial_explicit({1: [3.0, 4.0], 2: [0.0, 1.0]}).radius == 5.0


def test_explicit_initial_states():
    g = upath(3)
    sc = netsize_scenario(g, K=2, horizon=1, initial=initial_explicit({1: 4.0, 2: 5.0, 3: 6.0}))
    tr = simulate(sc)
    assert tr.state_at(0, 0).values[:, 0].tolist() == [4.0, 5.0, 6.0]


def test_leave_event_shrinks_network_and_reseeds():
    g = generate_connected(6, 0.6, seed=22)
    sc = netsize_scenario(g, K=10, horizon=30, record="integer", events=((5, Leave(4)),))
    tr = simulate(sc)
    assert tr.events_applied == [(5, Leave(4))]
    assert [seg.graph.n for seg in tr.segments] == [6, 5]
    assert tr.state_at(5, 0).ids == tuple(v for v in g.nodes if v != 4)
    # reference re-seeded from live states over the new membership
    seg = tr.segments[1]
    x5 = tr.state_at(5, 0)
    expect = sum(qi * d.update(5, x) for qi, d, x in zip(seg.pair.q, seg.dynamics, x5.values))
    assert np.allclose(tr.blended_at(6), expect, atol=1e-14)


def test_join_event_adds_node_with_zero_state():
    g = upath(3)
    sc = netsize_scenario(
        g, K=6, horizon=20, record="integer",
        initial=initial_constant(1.0),
        events=((4, Join(4, ((3, 4),))),),
    )
    tr = simulate(sc)
    st = tr.state_at(4, 0)
    assert st.ids == (1, 2, 3, 4)
    assert st.values[3, 0] == 0.0
    assert st.values[0, 0] != 0.0


def test_leave_and_rejoin_at_one_boundary_restarts_at_zero():
    g = upath(3)
    sc = netsize_scenario(
        g, K=3, horizon=10, record="integer",
        initial=initial_constant(1.0),
        events=((4, Leave(3)), (4, Join(3, ((2, 3),)))),
    )
    tr = simulate(sc)
    assert [seg.graph for seg in tr.segments] == [g, g]
    assert tr.events_applied == list(sc.events)
    assert tr.state_at(4, 0).values[2, 0] == 0.0
    assert tr.state_at(4, 0).values[1, 0] != 0.0


def test_plan_is_shared_across_k():
    g = generate_connected(6, 0.6, seed=22)
    sc = netsize_scenario(g, K=1, horizon=30, record="integer", events=((5, Leave(4)),))
    segments = plan_segments(sc)
    assert [(seg.t_start, seg.t_end) for seg in segments] == [(0, 4), (5, 30)]
    for k in (1, 4):
        planned = simulate(replace(sc, K=k), segments)
        assert planned.segments == segments
        assert trace_csv(planned) == trace_csv(simulate(replace(sc, K=k)))


def test_anchor_leave_rejected():
    g = upath(4)
    sc = netsize_scenario(g, K=4, horizon=10, events=((3, Leave(1)),))
    with pytest.raises(AssumptionViolation, match="t=3"):
        simulate(sc)


def test_disconnecting_leave_reports_time():
    g = upath(4)  # removing node 2 disconnects {1} from {3, 4}
    sc = netsize_scenario(g, K=4, horizon=10, events=((2, Leave(2)),))
    with pytest.raises(AssumptionViolation, match="t=2"):
        simulate(sc)


def test_node_map_dimension_must_match_n():
    # maps on 2-vectors while n stays at its default 1
    rotate = affine_dynamics(np.array([[0.0, -0.5], [0.5, 0.0]]), np.zeros(2))
    sc = Scenario(
        graph=upath(3),
        coupling="metropolis_hastings",
        parameter=0.5,
        dynamics_builder=lambda gr: [rotate] * gr.n,
        K=2,
        horizon=4,
    )
    with pytest.raises(AssumptionViolation, match="t=0: .*n=1"):
        simulate(sc)
    assert simulate(replace(sc, n=2)).final.shape == (3, 2)


def test_non_finite_blended_reference_raises():
    # x -> 1/x after t = 0: the reference is seeded at q'(1, -1) = 0, so s[2]
    # is infinite while every node state stays at +-1
    flip = NodeDynamics(update=lambda t, x: x if t == 0 else 1.0 / x, lipschitz=1.0, bound=lambda r: r)
    sc = Scenario(
        graph=upath(2),
        coupling="metropolis_hastings",
        parameter=0.5,
        dynamics_builder=lambda gr: [flip, flip],
        K=1,
        horizon=3,
        initial=initial_explicit({1: 1.0, 2: -1.0}),
    )
    with pytest.raises(SimulationError, match="blended reference .* t=1"):
        simulate(sc)


def test_events_must_be_sorted_and_in_range():
    g = upath(4)
    with pytest.raises(AssumptionViolation):
        simulate(netsize_scenario(g, K=2, horizon=10, events=((5, Leave(3)), (2, Leave(4)))))
    with pytest.raises(AssumptionViolation):
        simulate(netsize_scenario(g, K=2, horizon=10, events=((10, Leave(3)),)))


def test_trace_csv_contains_blended_rows_and_header():
    g = upath(3)
    tr = simulate(netsize_scenario(g, K=2, horizon=3, record="integer"))
    text = trace_csv(tr)
    lines = text.splitlines()
    assert lines[0].startswith("# scenario=")
    assert "# K=2" in lines
    assert "# coupling=metropolis_hastings" in lines
    assert "t,k,node_id,x0" in lines
    assert any(line.split(",")[2] == "s" for line in lines if not line.startswith("#") and "," in line)


class CharCounter:
    """A text sink that keeps nothing but the number of characters written."""

    chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)


def test_trace_csv_memory_stays_per_round():
    # ~1.9M characters of CSV (N=30, K=40, 60 rounds of every sub-step): a
    # writer that streams one round at a time holds a small multiple of one
    # round (~32k characters), not the whole file
    g = generate_connected(30, 0.15, seed=4)
    tr = simulate(netsize_scenario(g, K=40, horizon=60, record="all"))
    sink = CharCounter()
    tracemalloc.start()
    try:
        trace_to_csv(tr, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 1_500_000
    assert peak < sink.chars / 8


def test_vector_states_simulate():
    # two-dimensional node states: a rotation-damped map blended over the graph
    g = generate_connected(5, 0.6, seed=31)
    a = 0.6 * np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    b = np.array([1.0, -0.5])
    sc = Scenario(
        graph=g,
        coupling="metropolis_hastings",
        parameter=0.5,
        dynamics_builder=lambda gr: [affine_dynamics(a, b) for _ in gr.nodes],
        K=6,
        horizon=60,
        record="integer",
        n=2,
    )
    tr = simulate(sc)
    fixed = np.linalg.solve(np.eye(2) - a, b)
    final = tr.state_at(60)
    assert final.values.shape == (5, 2)
    assert np.max(np.abs(final.values - fixed)) < 1e-10
    assert np.allclose(tr.blended_at(60), fixed, atol=1e-10)


def test_fraction_count_identities_on_trace():
    # the q-projection is frozen across coupling steps, and the complement
    # contracts at least as fast as the subdominant eigenvalue overall
    g = generate_connected(8, 0.4, seed=30, undirected=False)
    w = pagerank_coupling(g, 0.15)
    pair = perron_pair(w)
    dec = decompose(w, pair)
    sc = Scenario(
        graph=g,
        coupling="pagerank",
        parameter=0.15,
        dynamics_builder=lambda gr: [affine_dynamics(0.5, 0.0625) for _ in gr.nodes],
        K=7,
        horizon=12,
    )
    tr = simulate(sc)
    lam = np.zeros((7, 7))
    for t in range(12):
        nxt = transform(tr.state_at(t + 1, 0), dec)
        for k in range(1, 7):
            ts = transform(tr.state_at(t, k), dec)
            scale = max(1.0, float(np.max(np.abs(nxt.xi1))))
            assert np.max(np.abs(ts.xi1 - nxt.xi1)) <= 1e-12 * scale
            # exact evolution: xitilde[t+1] = Lam^(K-k) xitilde[t_k]
            power = np.linalg.matrix_power(dec.Lam, 7 - k)
            assert np.max(np.abs(power @ ts.xitilde - nxt.xitilde)) < 1e-10
