import math
from dataclasses import replace

import numpy as np
import pytest

from blendnet import analysis, simulator
from blendnet.analysis import (
    AnalysisError,
    ContractionCertificate,
    blended_bound,
    certify_segment,
    contraction_affine,
    contraction_sampled,
    error_report,
    estimate_sup_f,
    family_bound,
    family_lipschitz,
    fraction_identities,
    kmin_analytic,
    kmin_corollary,
    kmin_empirical,
    lemma4_check,
    measure_tail_error,
    norm_constants,
    tail_window,
)
from blendnet.graph import DirectedGraph, Leave, generate_connected, is_strongly_connected, mutate
from blendnet.simulator import (
    NodeDynamics,
    Scenario,
    affine_dynamics,
    initial_box,
    initial_constant,
    plan_segments,
    simulate,
)


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


def netsize_setup(n=10, seed=7, p=0.35):
    """The graph, its planned netsize window, the window's certificate and its norm constants."""
    g = generate_connected(n, p, seed=seed)
    seg = plan_segments(netsize_scenario(g, K=1, horizon=1))[0]
    cert = certify_segment(seg)
    return g, seg, cert, norm_constants(seg, cert)


def certified(seg):
    """The norm constants of a planned window under its own certificate."""
    return norm_constants(seg, certify_segment(seg))


# -- contraction certificates -------------------------------------------------


def test_contraction_scalar_point_eight():
    cert = contraction_affine(np.array([[0.8]]))
    assert cert.H[0, 0] == pytest.approx(1.0)
    assert cert.gamma == pytest.approx(0.64, rel=1e-6)
    assert cert.kind == "analytic" and not cert.evidence_only


def test_contraction_zero_map_returns_tol():
    cert = contraction_affine(np.zeros((2, 2)), tol=1e-9)
    assert cert.gamma == pytest.approx(1e-9)


def test_contraction_unit_gain_rejected():
    with pytest.raises(AnalysisError):
        contraction_affine(np.array([[1.0]]))


def test_contraction_non_normal_linear_part():
    a = np.array([[0.5, 10.0], [0.0, 0.5]])  # spectral radius 0.5, huge norm
    cert = contraction_affine(a)
    assert cert.contractive
    h = cert.H
    # certificate inequality A' H^2 A <= gamma H^2 via eigensolve of the difference
    lhs = a.T @ h @ h @ a
    rhs = cert.gamma * h @ h
    assert np.linalg.eigvalsh(rhs - lhs).min() > -1e-9


def test_contraction_sampled_matches_analytic_for_affine():
    a = np.array([[0.6, 0.1], [0.0, 0.3]])
    b = np.array([1.0, -2.0])
    analytic = contraction_affine(a)

    def f(t, s):
        return a @ s + b

    grid = [(0, np.array([0.0, 0.0])), (3, np.array([1.0, -1.0])), (5, np.array([10.0, 4.0]))]
    sampled = contraction_sampled(f, grid, h=analytic.H)
    assert sampled.evidence_only
    assert sampled.gamma == pytest.approx(analytic.gamma, rel=1e-5)


def test_contraction_sampled_identity_flagged():
    sampled = contraction_sampled(lambda t, s: s, [(0, np.array([0.0]))])
    assert sampled.gamma >= 1.0
    assert not sampled.contractive


def test_contraction_sampled_half_slope():
    sampled = contraction_sampled(lambda t, s: 0.5 * s + 3.0, [(0, np.array([2.0]))])
    assert sampled.gamma == pytest.approx(0.25, rel=1e-5)


def test_contraction_sampled_singular_h_rejected():
    with pytest.raises(AnalysisError):
        contraction_sampled(lambda t, s: 0.5 * s, [(0, np.array([0.0]))], h=np.array([[0.0]]))


# -- increment inequality ------------------------------------------------------


def test_lemma4_equal_points():
    cert = contraction_affine(np.array([[0.8]]))
    res = lemma4_check(lambda t, s: 0.8 * s, cert, [(0, np.array([1.0]), np.array([1.0]))])
    assert res.ok


def test_lemma4_affine_thousand_pairs():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(3, 3))
    a *= 0.75 / np.max(np.abs(np.linalg.eigvals(a)))
    b = rng.normal(size=3)
    cert = contraction_affine(a)

    def f(t, s):
        return a @ s + b

    samples = [
        (int(rng.integers(0, 100)), rng.normal(size=3) * 10, rng.normal(size=3) * 10)
        for _ in range(1000)
    ]
    assert lemma4_check(f, cert, samples).ok


def test_lemma4_falsified_for_expanding_map():
    cert = ContractionCertificate(np.eye(1), 0.81, "sampled")
    res = lemma4_check(lambda t, s: 1.1 * s, cert, [(0, np.array([0.0]), np.array([1.0]))])
    assert not res.ok
    assert res.witness is not None


# -- blended reference bound ---------------------------------------------------


def test_blended_bound_pure_decay():
    cert = contraction_affine(np.array([[0.8]]))
    bound = blended_bound(cert, 0, np.array([4.0]), sup_norm_hfs0=0.0)
    values = [bound(t) for t in range(0, 60, 10)]
    assert all(values[i + 1] < values[i] for i in range(len(values) - 1))
    assert bound(400) < 1e-15


def test_blended_bound_netsize_limit():
    # blended map s -> (1 - 1/N)s + 1 with H = 1: the offset term is exactly 1
    n = 10
    cert = contraction_affine(np.array([[1 - 1 / n]]))
    bound = blended_bound(cert, 0, np.array([0.0]), sup_norm_hfs0=1.0)
    assert bound.limit == pytest.approx(1.0 / (1.0 - math.sqrt(cert.gamma)), rel=1e-6)


def test_blended_bound_dominates_trace():
    g, seg, cert, nc = netsize_setup()
    sc = netsize_scenario(g, K=12, horizon=60, record="integer", initial=initial_constant(3.0))
    tr = simulate(sc)
    s1 = tr.blended_at(1)
    bound = blended_bound(cert, 1, s1, sup_norm_hfs0=float(np.linalg.norm(cert.H @ seg.blended.step(0, np.zeros(1)))))
    for t, s in enumerate(tr.blended, start=1):
        assert float(np.linalg.norm(cert.H @ s)) <= bound(t) + 1e-9


def test_blended_bound_carries_ms():
    g, seg, cert, nc = netsize_setup()
    bound = blended_bound(cert, 0, np.zeros(1), 1.0, norms=nc)
    root = math.sqrt(cert.gamma)
    expect = math.sqrt(g.n) * np.linalg.norm(seg.pair.q) * 1.0 * 1.0 * 1.0 / (1 - root)
    assert bound.M_s == pytest.approx(expect, rel=1e-9)


# -- analytic kmin -------------------------------------------------------------


def test_kmin_constants_formulas():
    g, seg, cert, consts = netsize_setup()
    pair, dec = seg.pair, seg.decomposition
    lip = family_lipschitz(seg.dynamics)
    root = math.sqrt(cert.gamma)
    threshold = lip * np.linalg.norm(pair.q) * np.linalg.norm(dec.R, 2) * np.linalg.norm(cert.H, 2) / root
    assert consts.eta == pytest.approx(2 * threshold, rel=1e-12)
    assert consts.eta > threshold
    assert consts.M1 == pytest.approx(
        max(np.linalg.norm(pair.p) * np.linalg.norm(np.linalg.inv(cert.H), 2), np.linalg.norm(dec.R, 2) / consts.eta)
    )
    expect_ms = math.sqrt(g.n) * np.linalg.norm(pair.q) * 1.0 / (1 - root)
    assert consts.steady_offset == pytest.approx(expect_ms, rel=1e-9)


def test_kmin_analytic_boundary_and_monotonicity():
    g, seg, cert, consts = netsize_setup()
    bound_fn = family_bound(seg.dynamics)
    k = kmin_analytic(consts, 0.4)
    lam = consts.lambda2_mag
    root = math.sqrt(cert.gamma)
    c1 = consts.eta * consts.L * consts.M1 * consts.norm_z
    c2 = 2 * consts.eta * consts.M1 * bound_fn(consts.norm_p * consts.steady_offset) * math.sqrt(g.n) * consts.norm_z / (1 - root)
    # both displays hold at K and at least one fails at K-1
    assert lam**k * c1 <= (1 - root) / 2 and lam**k * c2 <= 0.2
    assert lam ** (k - 1) * c1 > (1 - root) / 2 or lam ** (k - 1) * c2 > 0.2
    assert kmin_analytic(consts, 0.8) <= k
    smaller = replace(consts, lambda2_mag=lam / 2)
    assert kmin_analytic(smaller, 0.4) <= k


def test_kmin_analytic_rejects_unit_lambda():
    g, seg, cert, consts = netsize_setup()
    assert consts.L == 1.0  # the netsize family
    bad = replace(consts, lambda2_mag=1.0)
    with pytest.raises(AnalysisError):
        kmin_analytic(bad, 0.4)


# -- finite-time kmin ----------------------------------------------------------


def test_kmin_corollary_eps0_definition():
    g, seg, cert, nc = netsize_setup()
    norm_p = np.linalg.norm(seg.pair.p)
    norm_h_inv = np.linalg.norm(np.linalg.inv(cert.H), 2)
    norm_r = np.linalg.norm(seg.decomposition.R, 2)
    eps = 2 * max(norm_p * norm_h_inv, norm_r)
    out = kmin_corollary(nc, eps, sup_f=5.0)
    assert out.eps0 == pytest.approx(1.0, rel=1e-12)


def test_kmin_corollary_zero_supf():
    g, seg, cert, nc = netsize_setup()
    out = kmin_corollary(nc, 0.5, sup_f=0.0)
    assert out.kmin == 1


def test_kmin_corollary_boundary():
    g, seg, cert, nc = netsize_setup()
    out = kmin_corollary(nc, 0.5, sup_f=54.0)
    lam = seg.pair.lambda2_mag
    norm_z = np.linalg.norm(seg.decomposition.Z, 2)
    assert lam**out.kmin * norm_z * 54.0 <= out.delta
    assert lam ** (out.kmin - 1) * norm_z * 54.0 > out.delta


def test_estimate_sup_f_analytic_dominates_samples():
    g, seg, cert, nc = netsize_setup()
    est = estimate_sup_f(nc, eps=0.5, init_radius=5.0, seed=2)
    assert est.analytic >= est.sampled > 0


def test_estimate_sup_f_vector_states():
    # two-dimensional node states: the samples take their dimension from the maps
    g = generate_connected(8, 0.5, seed=4)
    sc = Scenario(
        graph=g,
        coupling="metropolis_hastings",
        parameter=0.5,
        dynamics_builder=lambda gr: [affine_dynamics(0.5 * np.eye(2), np.ones(2)) for _ in gr.nodes],
        K=1,
        horizon=1,
        n=2,
    )
    est = estimate_sup_f(certified(plan_segments(sc)[0]), eps=0.5, init_radius=1.0, seed=2)
    assert est.analytic >= est.sampled > 0


def expanding_certificate() -> ContractionCertificate:
    """Sampled evidence for the blend s -> 1.2 s + 1: gamma = 1.44, not a contraction."""
    cert = contraction_sampled(lambda t, s: 1.2 * s + 1.0, [(0, np.array([0.0]))])
    assert cert.gamma == pytest.approx(1.44, rel=1e-6) and not cert.contractive
    return cert


@pytest.mark.parametrize("consumer", ["estimate_sup_f", "kmin_corollary", "error_report"])
def test_non_contractive_certificate_is_refused_by_norm_constants(consumer):
    # every bound divides by 1 - sqrt(gamma); with gamma >= 1, delta and M_s would
    # come out negative and estimate_sup_f would sample from an empty interval
    tr = simulate(netsize_scenario(generate_connected(10, 0.35, seed=7), K=4, horizon=20))
    seg = tr.segments[0]
    consumers = {
        "estimate_sup_f": lambda nc: estimate_sup_f(nc, eps=0.5, init_radius=1.0),
        "kmin_corollary": lambda nc: kmin_corollary(nc, 0.5, sup_f=1.0),
        "error_report": lambda nc: error_report(tr, nc),
    }
    with pytest.raises(AnalysisError, match=r"t=0: a bound requires a contractive certificate, got gamma = 1\.44"):
        consumers[consumer](norm_constants(seg, expanding_certificate()))


# -- empirical kmin and tail measurement ----------------------------------------


def test_tail_window_quarter_and_minimum():
    assert tail_window(1, 100) == (76, 100)
    assert tail_window(1, 12) == (3, 12)
    assert tail_window(5, 8) == (5, 8)
    assert tail_window(1, 100, 1.0) == (1, 100)


@pytest.mark.parametrize("fraction", [-1.0, 0.0, 1.5, float("nan")])
def test_tail_window_rejects_fraction_outside_unit_interval(fraction):
    with pytest.raises(ValueError, match=r"outside \(0, 1\]"):
        tail_window(1, 100, fraction)


def test_kmin_empirical_huge_eps_returns_one():
    g = generate_connected(6, 0.5, seed=3)
    sc = netsize_scenario(g, K=1, horizon=40, record="integer")
    assert kmin_empirical(sc, 1e9) == 1


def test_kmin_empirical_search_contract():
    from dataclasses import replace

    g = generate_connected(10, 0.35, seed=7)
    sc = netsize_scenario(g, K=1, horizon=80, record="integer", seed=7)
    eps = 0.4
    k = kmin_empirical(sc, eps)
    assert k > 1
    err_at = lambda kk: measure_tail_error(simulate(replace(sc, K=kk)))[0]
    assert err_at(k) <= eps
    assert err_at(k - 1) > eps


def test_kmin_empirical_contract_on_a_shared_plan():
    # a small directed average-coupling K search: every probe takes the power path,
    # and fresh plans at K and K-1 must reproduce the search's pass and fail
    from dataclasses import replace

    g = generate_connected(30, 0.15, seed=5, undirected=False)
    rng = np.random.default_rng(5)
    a, b = rng.uniform(0.2, 1.3, g.n), rng.uniform(-1.0, 1.0, g.n)
    sc = Scenario(
        graph=g,
        coupling="average",
        parameter=0.5,
        dynamics_builder=lambda gr: [affine_dynamics(ai, bi) for ai, bi in zip(a, b)],
        K=1,
        horizon=80,
        initial=initial_box(-1.0, 1.0),
        record="integer",
        seed=5,
    )
    eps = 1e-3
    k = kmin_empirical(sc, eps, segments=plan_segments(sc))
    assert k > 2
    err_at = lambda kk: measure_tail_error(simulate(replace(sc, K=kk)))[0]
    assert err_at(k) <= eps < err_at(k - 1)


def test_kmin_empirical_below_analytic():
    g, seg, cert, nc = netsize_setup()
    sc = netsize_scenario(g, K=1, horizon=80, record="integer", seed=7)
    k_emp = kmin_empirical(sc, 0.4)
    k_ana = kmin_analytic(nc, 0.4)
    assert k_emp <= k_ana


def test_kmin_empirical_budget_exhausted():
    g = generate_connected(6, 0.5, seed=3)
    sc = netsize_scenario(g, K=1, horizon=40, record="integer")
    with pytest.raises(AnalysisError):
        kmin_empirical(sc, 1e-12, k_max=8)


# -- error report ----------------------------------------------------------------


def test_error_report_zero_when_started_synchronized():
    # identical maps and equal initial states: x[t] = p s[t] exactly from t = 1
    g = generate_connected(6, 0.5, seed=13)
    sc = Scenario(
        graph=g,
        coupling="metropolis_hastings",
        parameter=0.5,
        dynamics_builder=lambda gr: [affine_dynamics(0.5, 1.0) for _ in gr.nodes],
        K=4,
        horizon=30,
        initial=initial_constant(2.0),
    )
    tr = simulate(sc)
    rep = error_report(tr, certified(tr.segments[0]))
    assert rep.max_tail_error < 1e-12


def test_error_report_fields_and_lyapunov():
    g = generate_connected(10, 0.35, seed=7)
    sc = netsize_scenario(g, K=19, horizon=80, seed=7)
    tr = simulate(sc)
    rep = error_report(tr, certified(tr.segments[0]), eps=0.4)
    assert rep.window == (61, 80)
    assert set(rep.tail_errors) == set(g.nodes)
    assert rep.max_tail_error == pytest.approx(max(rep.tail_errors.values()))
    # one-step ultimate bound holds along the trace
    assert all(lhs <= rhs for _, lhs, rhs in rep.lyapunov_steps)
    # fractional errors carry the (eps/2)(1 + sigma_min(Lam)^-(K-k)) bound and respect it
    assert rep.fractional.shape == (80, 18, g.n)
    assert rep.fractional_bound is not None and rep.fractional_bound.shape == (18,)
    assert np.all(rep.fractional <= rep.fractional_bound[:, None])
    assert rep.eta > 0 and not rep.evidence_only


def reference_drive_steps(trace, seg, cert):
    """(t, dV, rhs) of error_report's Lyapunov steps, with one f_i call per node and count."""
    nc = norm_constants(seg, cert)
    v = dict(error_report(trace, nc).lyapunov)
    k_steps = trace.scenario.K
    steps = []
    for t in sorted(v)[:-1]:
        s_t = trace.blended_at(t)
        total = 0.0
        for d, p_i in zip(seg.dynamics, seg.pair.p):
            total += float(np.linalg.norm(np.atleast_1d(d.update(t, p_i * s_t)))) ** 2
        rhs = -(1.0 - cert.sqrt_gamma) / 2.0 * v[t] + seg.pair.lambda2_mag ** (k_steps - 1) * nc.eta * nc.norm_z * math.sqrt(total)
        steps.append((t, v[t + 1] - v[t], rhs))
    return steps


def squashed(a: float, b: float) -> NodeDynamics:
    """The non-affine map f(t, x) = a tanh(x) + b."""
    return NodeDynamics(update=lambda t, x: a * np.tanh(x) + b, lipschitz=abs(a), bound=lambda r: abs(a) * r + abs(b))


@pytest.mark.parametrize("n, event, squash", [(1, False, False), (2, False, False), (1, True, False), (1, False, True)])
def test_error_report_drive_term_matches_per_node_loop(n, event, squash):
    # PageRank coupling: p is not all-ones, so the drive term's p_i s[t] is exercised
    g = generate_connected(12, 0.35, seed=21, undirected=False)
    events = ()
    if event:
        leaver = next(v for v in g.nodes[1:] if is_strongly_connected(mutate(g, Leave(v))))
        events = ((30, Leave(leaver)),)

    def builder(gr):
        coeffs = [np.random.default_rng([21, v]) for v in gr.nodes]
        maps = [affine_dynamics(np.diag(r.uniform(-0.9, 0.9, n)), r.uniform(-1.0, 1.0, n)) for r in coeffs]
        if squash:
            maps[0] = squashed(0.5, 1.0)  # one non-affine map sends the drive term through the per-node loop
        return maps

    sc = Scenario(
        graph=g,
        coupling="pagerank",
        parameter=0.3,
        dynamics_builder=builder,
        K=7,
        horizon=60,
        initial=initial_box(-1.0, 1.0),
        events=events,
        record="integer",
        seed=21,
        n=n,
    )
    tr = simulate(sc)
    cert = contraction_affine(0.9 * np.eye(n))
    for seg in tr.segments:
        rep = error_report(tr, norm_constants(seg, cert))
        ref = reference_drive_steps(tr, seg, cert)
        assert [t for t, _, _ in rep.lyapunov_steps] == [t for t, _, _ in ref] != []
        for (_, dv, rhs), (_, dv_ref, rhs_ref) in zip(rep.lyapunov_steps, ref):
            assert dv == dv_ref
            assert abs(rhs - rhs_ref) <= 1e-12 * abs(rhs_ref)
            if squash:
                assert rhs == rhs_ref


@pytest.mark.parametrize("squash", [False, True], ids=["all-affine", "one-squashed"])
def test_node_step_calls_no_update_of_an_all_affine_window(monkeypatch, squash):
    inside = [False]  # whether a node_step call is running
    from_node_step = []  # one entry per update call: was it made by node_step?
    node_step = simulator.node_step

    def watched_node_step(values, t, dynamics):
        inside[0] = True
        try:
            return node_step(values, t, dynamics)
        finally:
            inside[0] = False

    def counted(d: NodeDynamics) -> NodeDynamics:
        def update(t, x):
            from_node_step.append(inside[0])
            return d.update(t, x)

        return NodeDynamics(update, d.lipschitz, d.bound, d.affine)

    def builder(gr):
        maps = [affine_dynamics(0.5, 1.0) for _ in gr.nodes]
        if squash:
            maps[0] = squashed(0.5, 1.0)  # one non-affine map keeps the window on the per-node loop
        return [counted(d) for d in maps]

    monkeypatch.setattr(simulator, "node_step", watched_node_step)
    g = generate_connected(8, 0.5, seed=3)
    sc = Scenario(graph=g, coupling="metropolis_hastings", parameter=0.5, dynamics_builder=builder, K=3, horizon=12)
    tr = simulate(sc)
    assert (tr.segments[0].affine is None) == squash
    assert sum(from_node_step) == (sc.horizon * g.n if squash else 0)


def test_kmin_empirical_stacks_the_maps_once_per_plan(monkeypatch):
    stacks, probes = [], []
    stack_affine, simulate_ = simulator._stack_affine, analysis.simulate
    monkeypatch.setattr(simulator, "_stack_affine", lambda dynamics: stacks.append(len(dynamics)) or stack_affine(dynamics))
    monkeypatch.setattr(analysis, "simulate", lambda *a, **kw: probes.append(1) or simulate_(*a, **kw))
    g = generate_connected(10, 0.35, seed=7)
    leaver = next(v for v in g.nodes[1:] if is_strongly_connected(mutate(g, Leave(v))))
    sc = netsize_scenario(g, K=1, horizon=80, events=((40, Leave(leaver)),))
    assert kmin_empirical(sc, 0.4) > 2
    # one stack per membership window, built by the one plan every probe reuses
    assert stacks == [10, 9] and len(probes) > 2


def test_error_report_requires_blended():
    g = generate_connected(6, 0.5, seed=13)
    sc = netsize_scenario(g, K=2, horizon=0)
    tr = simulate(sc)
    nc = certified(tr.segments[0])
    with pytest.raises(AnalysisError):
        error_report(tr, nc)


def test_fraction_identities_report():
    g = generate_connected(10, 0.35, seed=7)
    tr = simulate(netsize_scenario(g, K=9, horizon=30, seed=7))
    rep = fraction_identities(tr)
    assert rep.rounds == 30
    assert rep.max_xi1_dev <= 1e-12
    assert rep.max_decay_excess <= 1e-9


def test_sigma_min_of_lam_is_taken_once_per_decomposition(monkeypatch):
    # fraction_identities and error_report both read sigma_min(Lam) on a record = all run
    tr = simulate(netsize_scenario(generate_connected(10, 0.35, seed=7), K=6, horizon=30, seed=7))
    nc = certified(tr.segments[0])
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    frac = fraction_identities(tr)
    rep = error_report(tr, nc, eps=0.4)
    assert frac.rounds == 30 and rep.fractional_bound is not None
    assert len(calls) == 1
