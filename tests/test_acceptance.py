"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is oracle- or property-based at desk scale; scenario seeds are
fixed so reruns are exactly reproducible.
"""

import json
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from blendnet import apps
from blendnet.analysis import (
    certify_segment,
    contraction_affine,
    error_report,
    estimate_sup_f,
    kmin_analytic,
    kmin_corollary,
    kmin_empirical,
    lemma4_check,
    measure_tail_error,
    norm_constants,
    tail_window,
)
from blendnet.cli import main as cli_main
from blendnet.graph import DirectedGraph, Leave, generate_connected
from blendnet.simulator import initial_box, plan_segments, simulate, transform
from blendnet.spectral import decompose, eigen_magnitudes, perron_pair
from blendnet.weights import average_coupling, metropolis_hastings, pagerank_coupling, validate


def report(num, ok, detail=""):
    print(f"[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# shared corpora and scenario runs


@pytest.fixture(scope="module")
def graph_corpus():
    rng = np.random.default_rng(20250810)
    graphs = []
    for _ in range(100):
        n = int(rng.integers(3, 31))
        p = float(rng.uniform(0.25, 0.9))
        graphs.append(generate_connected(n, p, seed=int(rng.integers(1 << 31))))
    return graphs


def _constructors(g):
    return (
        ("metropolis_hastings", metropolis_hastings(g, 0.5), "both"),
        ("pagerank", pagerank_coupling(g, 0.15), "column"),
        ("average", average_coupling(g, 0.5), "row"),
    )


@pytest.fixture(scope="module")
def netsize_case():
    g = generate_connected(10, 0.35, seed=7)
    cfg = apps.NetSizeConfig(mu=0.5)
    base = apps.netsize_scenario(g, cfg, K=1, horizon=80, record="all", seed=7)
    k = kmin_empirical(base, 0.4)
    trace = simulate(replace(base, K=k))
    event_sc = apps.netsize_scenario(
        g, cfg, K=k, horizon=100, record="integer", seed=7, events=((20, Leave(4)),)
    )
    event_trace = simulate(event_sc)
    return {"graph": g, "cfg": cfg, "K": k, "base": replace(base, K=k),
            "trace": trace, "event_trace": event_trace}


@pytest.fixture(scope="module")
def pagerank_case():
    g = generate_connected(8, 0.3, seed=11, undirected=False)
    cfg = apps.PageRankConfig(n_agents=8, nu=0.5, m=0.15)
    base = apps.pagerank_scenario(g, cfg, K=1, horizon=60, record="all", seed=11)
    k = kmin_empirical(base, 5e-7)
    trace = simulate(replace(base, K=k))
    return {"graph": g, "cfg": cfg, "K": k, "trace": trace}


@pytest.fixture(scope="module")
def degseq_case():
    g = DirectedGraph.build([(i, i + 1) for i in range(1, 5)], undirected=True)
    cfg = apps.DegSeqConfig(theta=0.5)  # ids default to 2..6
    base = apps.degseq_scenario(g, cfg, K=1, horizon=30, record="all")
    k = kmin_empirical(base, 0.45)
    trace = simulate(replace(base, K=k))
    return {"graph": g, "cfg": cfg, "K": k, "trace": trace}


def _segment_reports(trace):
    """(segment, certificate, report) for every segment."""
    out = []
    for seg in trace.segments:
        if seg.t_end <= seg.t_start:
            continue
        cert = certify_segment(seg)
        out.append((seg, cert, error_report(trace, norm_constants(seg, cert))))
    return out


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_weight_matrix_properties(graph_corpus):
    start = time.perf_counter()
    checked = 0
    for g in graph_corpus:
        idx = g.index_of()
        allowed = np.eye(g.n, dtype=bool)
        for j, i in g.edges:
            allowed[idx[i], idx[j]] = True
        ones = np.ones(g.n)
        for kind, w, stochasticity in _constructors(g):
            e = w.entries
            assert (e[~allowed] == 0.0).all(), f"{kind}: nonzero off pattern"
            assert (e[allowed] > 0.0).all(), f"{kind}: pattern entry not positive"
            assert (np.diag(e) > 0).all(), f"{kind}: diagonal not positive"
            if stochasticity in ("row", "both"):
                assert np.max(np.abs(e @ ones - ones)) <= 1e-12, f"{kind}: row sums"
            if stochasticity in ("column", "both"):
                assert np.max(np.abs(ones @ e - ones)) <= 1e-12, f"{kind}: column sums"
            rho = float(np.max(np.abs(np.linalg.eigvals(e))))
            assert abs(rho - 1.0) <= 1e-10, f"{kind}: spectral radius {rho}"
            assert validate(w, g).ok
            checked += 1
    elapsed = time.perf_counter() - start
    report(1, elapsed < 10.0, f"{checked} matrices over 100 graphs in {elapsed:.2f}s")


def test_criterion_2_spectral_decomposition(graph_corpus):
    worst = {"ZtR": 0.0, "Ztp": 0.0, "Rtq": 0.0, "recon": 0.0, "qtp": 0.0}
    for g in graph_corpus:
        n = g.n
        for kind, w, _ in _constructors(g):
            pair = perron_pair(w)
            dec = decompose(w, pair)
            worst["qtp"] = max(worst["qtp"], abs(float(pair.q @ pair.p) - 1.0))
            worst["ZtR"] = max(worst["ZtR"], float(np.max(np.abs(dec.Z.T @ dec.R - np.eye(n - 1)))))
            worst["Ztp"] = max(worst["Ztp"], float(np.max(np.abs(dec.Z.T @ pair.p))))
            worst["Rtq"] = max(worst["Rtq"], float(np.max(np.abs(dec.R.T @ pair.q))))
            left = np.column_stack([pair.p, dec.R])
            mid = np.zeros((n, n))
            mid[0, 0] = 1.0
            mid[1:, 1:] = dec.Lam
            right = np.vstack([pair.q[None, :], dec.Z.T])
            worst["recon"] = max(worst["recon"], float(np.max(np.abs(left @ mid @ right - w.entries))))
    ok = (
        worst["ZtR"] <= 1e-10
        and worst["Ztp"] <= 1e-10
        and worst["Rtq"] <= 1e-10
        and worst["recon"] <= 1e-10
        and worst["qtp"] <= 1e-13
    )
    report(2, ok, f"worst deviations {worst}")


def test_criterion_3_increment_inequality_suite():
    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n))
        target = float(rng.uniform(0.2, 0.95))
        rho = np.max(np.abs(np.linalg.eigvals(a)))
        if rho > 0:
            a *= target / rho
        b = rng.normal(size=n) * 3.0
        cert = contraction_affine(a)

        def f(t, s, a=a, b=b):
            return a @ s + b

        samples = [
            (int(rng.integers(0, 50)), rng.normal(size=n) * 20, rng.normal(size=n) * 20)
            for _ in range(1000)
        ]
        if not lemma4_check(f, cert, samples).ok:
            violations += 1
    report(3, violations == 0, f"50 maps x 1000 sample pairs, {violations} violations")


def test_criterion_4_fraction_count_identities(netsize_case, pagerank_case, degseq_case):
    worst_dev = 0.0
    worst_excess = -math.inf
    for case in (netsize_case, pagerank_case, degseq_case):
        trace = case["trace"]
        k_steps = trace.scenario.K
        seg = trace.segments[-1]
        dec = seg.decomposition
        lam_n = seg.pair.lambdaN_mag
        for t in range(seg.t_start, seg.t_end):
            nxt = transform(trace.state_at(t + 1, 0), dec)
            scale = max(1.0, float(np.max(np.abs(nxt.xi1))))
            norm_next = float(np.linalg.norm(nxt.xitilde))
            for k in range(1, k_steps):
                ts = transform(trace.state_at(t, k), dec)
                worst_dev = max(worst_dev, float(np.max(np.abs(ts.xi1 - nxt.xi1))) / scale)
                if lam_n > 1e-12:
                    lhs = float(np.linalg.norm(ts.xitilde)) * lam_n ** (k_steps - k)
                    worst_excess = max(worst_excess, lhs - norm_next)
    ok = worst_dev <= 1e-12 and worst_excess <= 1e-9
    report(4, ok, f"xi1 deviation {worst_dev:.2e} (rel), decay excess {worst_excess:.2e}")


def test_criterion_5_network_size_estimation():
    # timed end to end: the K search, both runs, and the checks
    start = time.perf_counter()
    g = generate_connected(10, 0.35, seed=7)
    cfg = apps.NetSizeConfig(mu=0.5)
    base = apps.netsize_scenario(g, cfg, K=1, horizon=80, record="integer", seed=7)
    k = kmin_empirical(base, 0.4)
    trace = simulate(replace(base, K=k))
    w_lo, w_hi = tail_window(1, 80, trace.scenario.tail_fraction)
    ok_ten = True
    for t in range(w_lo, w_hi + 1):
        st = trace.state_at(t, 0)
        ok_ten &= all(abs(float(x[0]) - 10.0) < 0.5 for x in st.values)
    est = apps.netsize_estimate(trace)
    ok_ten &= set(est.per_node.values()) == {10} and est.reliable

    ev_sc = apps.netsize_scenario(
        g, cfg, K=k, horizon=100, record="integer", seed=7, events=((20, Leave(4)),)
    )
    ev = simulate(ev_sc)
    pw_lo, pw_hi = tail_window(21, 100, ev.scenario.tail_fraction)
    ok_nine = True
    for t in range(pw_lo, pw_hi + 1):
        st = ev.state_at(t, 0)
        ok_nine &= all(abs(float(x[0]) - 9.0) < 0.5 for x in st.values)
    ok_nine &= set(apps.netsize_estimate(ev).per_node.values()) == {9}
    elapsed = time.perf_counter() - start
    ok = ok_ten and ok_nine and elapsed < 5.0
    report(5, ok, f"K={k}, tail->10 {ok_ten}, post-leave tail->9 {ok_nine}, {elapsed:.2f}s")


def test_criterion_6_pagerank_scores():
    # timed end to end: the K search, the run, and the eigensolve comparison
    start = time.perf_counter()
    g = generate_connected(8, 0.3, seed=11, undirected=False)
    cfg = apps.PageRankConfig(n_agents=8, nu=0.5, m=0.15)
    base = apps.pagerank_scenario(g, cfg, K=1, horizon=60, record="integer", seed=11)
    k = kmin_empirical(base, 5e-7)
    trace = simulate(replace(base, K=k))
    scores = apps.pagerank_scores(trace)
    w = pagerank_coupling(g, 0.15)
    vals, vecs = np.linalg.eig(w.entries)
    lead = np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))])
    lead /= lead.sum()
    err = max(abs(scores[v] - lead[pos]) for pos, v in enumerate(g.nodes))
    elapsed = time.perf_counter() - start
    ok = err <= 1e-6 and elapsed < 5.0
    report(6, ok, f"K={k}, max |x_i - p_i| = {err:.2e}, {elapsed:.2f}s")


def test_criterion_7_degree_sequence(degseq_case):
    g = degseq_case["graph"]
    cfg = degseq_case["cfg"]
    trace = degseq_case["trace"]
    assert 5**6 < 2**53  # floating window holds for base 5, ids up to 6
    eps_measured = measure_tail_error(trace)[0]
    seqs = apps.degseq_estimate(trace, cfg)
    ok_decode = eps_measured < 1.0 and all(s == (2, 2, 2, 1, 1) for s in seqs.values())
    exact_cfg = apps.DegSeqConfig(theta=cfg.theta, ids=cfg.ids, n_agents=cfg.n_agents, arithmetic="exact")
    fp = apps.degseq_exact_blended_fixed_point(exact_cfg, g)
    expect = sum(g.in_degree(v) * Fraction(5) ** (v + 1 - 1) for v in g.nodes)
    ok_exact = isinstance(fp, Fraction) and fp == expect == 4680
    report(7, ok_decode and ok_exact, f"measured eps {eps_measured:.3f}, decode ok {ok_decode}, exact s*={fp}")


def test_criterion_8_geometric_decay(netsize_case):
    base = netsize_case["base"]
    k = netsize_case["K"]
    lam2 = netsize_case["trace"].segments[0].pair.lambda2_mag
    errs = []
    for kk in range(k, k + 7):
        tr = simulate(replace(base, K=kk, record="integer"))
        errs.append(measure_tail_error(tr)[0])
    ratios = [errs[i + 1] / errs[i] for i in range(6)]
    ok = all(abs(r - lam2) <= 0.1 * lam2 for r in ratios)
    report(8, ok, f"ratios {[f'{r:.3f}' for r in ratios]} vs |lambda2| {lam2:.3f}")


def test_criterion_9_finite_time_bound(netsize_case):
    g = netsize_case["graph"]
    cfg = netsize_case["cfg"]
    eps = 0.5
    seg = plan_segments(netsize_case["base"])[0]
    nc = norm_constants(seg, certify_segment(seg))
    sup_f = estimate_sup_f(nc, eps, init_radius=5.0, seed=3)
    cor = kmin_corollary(nc, eps, sup_f.analytic)
    worst = 0.0
    for seed in range(20):
        sc = apps.netsize_scenario(
            g, cfg, K=cor.kmin, horizon=40, record="integer", seed=seed,
            initial=initial_box(-5.0, 5.0),
        )
        tr = simulate(sc)
        for t in range(1, 41):
            st = tr.state_at(t, 0)
            s_t = tr.blended_at(t)
            for p_i, x in zip(seg.pair.p, st.values):
                worst = max(worst, float(np.linalg.norm(x - p_i * s_t)))
    ok = worst <= eps
    report(9, ok, f"K={cor.kmin} (eps0={cor.eps0:.3g}, delta={cor.delta:.3g}), worst error {worst:.3g} <= {eps}")


def test_criterion_10_lyapunov_one_step_bound(netsize_case, pagerank_case, degseq_case):
    worst = -math.inf
    steps = 0
    traces = [netsize_case["trace"], netsize_case["event_trace"], pagerank_case["trace"], degseq_case["trace"]]
    for trace in traces:
        for seg, cert, rep in _segment_reports(trace):
            for _, lhs, rhs in rep.lyapunov_steps:
                worst = max(worst, lhs - rhs)
                steps += 1
    ok = steps > 0 and worst <= 0.0
    report(10, ok, f"{steps} integer steps, worst V-step excess {worst:.3e}")


def test_criterion_11_kmin_ordering(netsize_case, pagerank_case, degseq_case):
    results = []
    for case, eps in ((netsize_case, 0.4), (pagerank_case, 5e-7), (degseq_case, 0.45)):
        trace = case["trace"]
        seg = trace.segments[0]
        k_ana = kmin_analytic(norm_constants(seg, certify_segment(seg)), eps)
        results.append((case["K"], k_ana))
    ok = all(k_emp <= k_ana for k_emp, k_ana in results)
    report(11, ok, f"(empirical, analytic) pairs: {results}")


def test_criterion_12_determinism(tmp_path):
    cfg_text = """\
[graph]
nodes = 10
edge_probability = 0.35
undirected = true

[coupling]
kind = metropolis_hastings
parameter = 0.5

[app]
kind = netsize

[simulation]
K = 19
horizon = 100
record = all
initial = zeros
seed = 7

[events]
script =
    20 leave 4
"""
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(cfg_text)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    names = ("trace.csv", "blended.csv", "results.json", "report.json", "lyapunov.csv")
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names)
    report(12, identical, f"{len(names)} files byte-identical across reruns")
