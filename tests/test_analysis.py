import math

import numpy as np
import pytest

from blendnet.analysis import (
    AnalysisError,
    ContractionCertificate,
    blended_bound,
    contraction_affine,
    contraction_sampled,
    error_report,
    estimate_sup_f,
    family_bound,
    family_lipschitz,
    fraction_identities,
    kmin_analytic,
    kmin_constants,
    kmin_corollary,
    kmin_empirical,
    lemma4_check,
    measure_tail_error,
    norm_constants,
    tail_window,
)
from blendnet.graph import DirectedGraph, generate_connected
from blendnet.simulator import Scenario, affine_dynamics, build_blended, initial_constant, simulate
from blendnet.spectral import decompose, perron_pair
from blendnet.weights import metropolis_hastings


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


def netsize_setup(n=10, seed=7, p=0.35, mu=0.5):
    g = generate_connected(n, p, seed=seed)
    w = metropolis_hastings(g, mu)
    pair = perron_pair(w)
    dec = decompose(w, pair)
    dyn = netsize_builder(g)
    bd = build_blended(dyn, pair)
    cert = contraction_affine(bd.affine[0])
    return g, w, pair, dec, dyn, bd, cert


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
    g, w, pair, dec, dyn, bd, cert = netsize_setup()
    sc = netsize_scenario(g, K=12, horizon=60, record="integer", initial=initial_constant(3.0))
    tr = simulate(sc)
    s1 = tr.blended_at(1)
    bound = blended_bound(cert, 1, s1, sup_norm_hfs0=float(np.linalg.norm(cert.H @ bd.step(0, np.zeros(1)))))
    for t, s in enumerate(tr.blended, start=1):
        assert float(np.linalg.norm(cert.H @ s)) <= bound(t) + 1e-9


def test_blended_bound_carries_ms():
    g, w, pair, dec, dyn, bd, cert = netsize_setup()
    norms = norm_constants(dec, cert, family_lipschitz(dyn))
    bound = blended_bound(cert, 0, np.zeros(1), 1.0, norms=norms, n_agents=g.n, bound_fn=family_bound(dyn))
    root = math.sqrt(cert.gamma)
    expect = math.sqrt(g.n) * np.linalg.norm(pair.q) * 1.0 * 1.0 * 1.0 / (1 - root)
    assert bound.M_s == pytest.approx(expect, rel=1e-9)


# -- analytic kmin -------------------------------------------------------------


def test_kmin_constants_formulas():
    g, w, pair, dec, dyn, bd, cert = netsize_setup()
    lip = family_lipschitz(dyn)
    consts = kmin_constants(dec, cert, lip, family_bound(dyn))
    root = math.sqrt(cert.gamma)
    threshold = lip * np.linalg.norm(pair.q) * np.linalg.norm(dec.R, 2) * np.linalg.norm(cert.H, 2) / root
    assert consts.eta == pytest.approx(2 * threshold, rel=1e-12)
    assert consts.eta > threshold
    assert consts.M1 == pytest.approx(
        max(np.linalg.norm(pair.p) * np.linalg.norm(np.linalg.inv(cert.H), 2), np.linalg.norm(dec.R, 2) / consts.eta)
    )
    expect_ms = math.sqrt(g.n) * np.linalg.norm(pair.q) * 1.0 / (1 - root)
    assert consts.Ms == pytest.approx(expect_ms, rel=1e-9)


def test_kmin_analytic_boundary_and_monotonicity():
    g, w, pair, dec, dyn, bd, cert = netsize_setup()
    bound_fn = family_bound(dyn)
    consts = kmin_constants(dec, cert, family_lipschitz(dyn), bound_fn)
    k = kmin_analytic(consts, 0.4, g.n, bound_fn)
    lam = consts.lambda2_mag
    root = math.sqrt(consts.gamma)
    c1 = consts.eta * consts.L * consts.M1 * consts.norm_z
    c2 = 2 * consts.eta * consts.M1 * bound_fn(consts.norm_p * consts.Ms) * math.sqrt(g.n) * consts.norm_z / (1 - root)
    # both displays hold at K and at least one fails at K-1
    assert lam**k * c1 <= (1 - root) / 2 and lam**k * c2 <= 0.2
    assert lam ** (k - 1) * c1 > (1 - root) / 2 or lam ** (k - 1) * c2 > 0.2
    assert kmin_analytic(consts, 0.8, g.n, bound_fn) <= k
    smaller = type(consts)(**{**consts.__dict__, "lambda2_mag": lam / 2})
    assert kmin_analytic(smaller, 0.4, g.n, bound_fn) <= k


def test_kmin_analytic_rejects_unit_lambda():
    g, w, pair, dec, dyn, bd, cert = netsize_setup()
    consts = kmin_constants(dec, cert, 1.0, family_bound(dyn))
    bad = type(consts)(**{**consts.__dict__, "lambda2_mag": 1.0})
    with pytest.raises(AnalysisError):
        kmin_analytic(bad, 0.4, g.n, family_bound(dyn))


# -- finite-time kmin ----------------------------------------------------------


def test_kmin_corollary_eps0_definition():
    g, w, pair, dec, dyn, bd, cert = netsize_setup()
    norm_p = np.linalg.norm(pair.p)
    norm_h_inv = np.linalg.norm(np.linalg.inv(cert.H), 2)
    norm_r = np.linalg.norm(dec.R, 2)
    eps = 2 * max(norm_p * norm_h_inv, norm_r)
    out = kmin_corollary(dec, cert, eps, 1.0, sup_f=5.0)
    assert out.eps0 == pytest.approx(1.0, rel=1e-12)


def test_kmin_corollary_zero_supf():
    g, w, pair, dec, dyn, bd, cert = netsize_setup()
    out = kmin_corollary(dec, cert, 0.5, 1.0, sup_f=0.0)
    assert out.kmin == 1


def test_kmin_corollary_boundary():
    g, w, pair, dec, dyn, bd, cert = netsize_setup()
    out = kmin_corollary(dec, cert, 0.5, 1.0, sup_f=54.0)
    lam = pair.lambda2_mag
    norm_z = np.linalg.norm(dec.Z, 2)
    assert lam**out.kmin * norm_z * 54.0 <= out.delta
    assert lam ** (out.kmin - 1) * norm_z * 54.0 > out.delta


def test_estimate_sup_f_analytic_dominates_samples():
    g, w, pair, dec, dyn, bd, cert = netsize_setup()
    est = estimate_sup_f(dyn, dec, cert, eps=0.5, init_radius=5.0, seed=2)
    assert est.analytic >= est.sampled > 0


def test_estimate_sup_f_vector_states():
    # two-dimensional node states: the samples take their dimension from the maps
    g = generate_connected(8, 0.5, seed=4)
    w = metropolis_hastings(g, 0.5)
    pair = perron_pair(w)
    dec = decompose(w, pair)
    dyn = [affine_dynamics(0.5 * np.eye(2), np.ones(2)) for _ in g.nodes]
    cert = contraction_affine(build_blended(dyn, pair).affine[0])
    est = estimate_sup_f(dyn, dec, cert, eps=0.5, init_radius=1.0, seed=2)
    assert est.analytic >= est.sampled > 0


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


def test_kmin_empirical_below_analytic():
    g, w, pair, dec, dyn, bd, cert = netsize_setup()
    sc = netsize_scenario(g, K=1, horizon=80, record="integer", seed=7)
    k_emp = kmin_empirical(sc, 0.4)
    consts = kmin_constants(dec, cert, family_lipschitz(dyn), family_bound(dyn))
    k_ana = kmin_analytic(consts, 0.4, g.n, family_bound(dyn))
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
    seg = tr.segments[0]
    dec = decompose(seg.weights, seg.pair)
    cert = contraction_affine(build_blended(seg.dynamics, seg.pair).affine[0])
    rep = error_report(tr, seg.pair, dec, cert)
    assert rep.max_tail_error < 1e-12


def test_error_report_fields_and_lyapunov():
    g, w, pair, dec, dyn, bd, cert = netsize_setup()
    sc = netsize_scenario(g, K=19, horizon=80, seed=7)
    tr = simulate(sc)
    rep = error_report(tr, pair, dec, cert, eps=0.4)
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


def test_error_report_requires_blended():
    g = generate_connected(6, 0.5, seed=13)
    sc = netsize_scenario(g, K=2, horizon=0)
    tr = simulate(sc)
    seg = tr.segments[0]
    dec = decompose(seg.weights, seg.pair)
    cert = contraction_affine(build_blended(seg.dynamics, seg.pair).affine[0])
    with pytest.raises(AnalysisError):
        error_report(tr, seg.pair, dec, cert)


def test_fraction_identities_report():
    g, w, pair, dec, dyn, bd, cert = netsize_setup()
    tr = simulate(netsize_scenario(g, K=9, horizon=30, seed=7))
    rep = fraction_identities(tr, dec)
    assert rep.rounds == 30
    assert rep.max_xi1_dev <= 1e-12
    assert rep.max_decay_excess <= 1e-9
